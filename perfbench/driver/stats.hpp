// Sample statistics used by every benchmark metric.
//
// Timings are reported as a median plus the highest percentile that still
// has at least ten samples beyond it, together with the sample count, so a
// tail figure is never read off a handful of outliers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nkb {

// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
// at least p% of the samples at or below it. p in [0, 100]; 0 for no samples.
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted, double p);

// The highest percentile from the ladder 50, 90, 99, 99.9, 99.99, 99.999
// that leaves at least `min_beyond` samples strictly above its rank among
// `n` samples; 0 when even the median does not qualify.
[[nodiscard]] double supported_tail(std::size_t n, std::size_t min_beyond = 10);

struct summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;     // nearest-rank p99 (0 when unsupported)
  double tail_p = 0.0;  // percentile chosen by supported_tail()
  double tail = 0.0;    // value at tail_p
};

// Sorts `samples` in place and summarizes them.
[[nodiscard]] summary summarize(std::vector<double>& samples);

// Median of `v` (nearest rank); 0 for an empty vector.
[[nodiscard]] double median(std::vector<double> v);

// Nearest-rank percentile over a log-linear histogram's bucket counts,
// reported as the upper bound of the bucket the rank falls in (the
// resolution obs::histogram::percentile gives). 0 for an empty histogram.
template <typename Buckets, typename UpperFn>
[[nodiscard]] double bucket_percentile(const Buckets& counts, double p,
                                       UpperFn upper) {
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) return 0.0;
  const double exact = p / 100.0 * static_cast<double>(total);
  auto rank = static_cast<std::uint64_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  if (rank < 1) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) return static_cast<double>(upper(static_cast<int>(i)));
  }
  return static_cast<double>(upper(static_cast<int>(counts.size()) - 1));
}

}  // namespace nkb
