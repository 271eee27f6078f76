// Lightweight statistics helpers for experiment harnesses: running moments
// and percentile estimation over retained samples.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace nk {

// Running mean / variance / extrema (Welford). O(1) memory.
class running_stats {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Retains all samples; exact percentiles. For experiment-scale sample counts.
class sample_set {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double mean() const;
  // p in [0, 100]; nearest-rank on the sorted samples.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double min() const { return percentile(0); }
  [[nodiscard]] double median() const { return percentile(50); }
  [[nodiscard]] double p99() const { return percentile(99); }
  [[nodiscard]] double max() const { return percentile(100); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace nk
