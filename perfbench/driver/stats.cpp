#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace nkb {

namespace {

// 1-based nearest rank of percentile p among n samples: ceil(p/100 * n),
// at least 1. The epsilon keeps exact products (99.9% of 10000) from
// rounding up a rank because of binary floating point.
std::size_t rank_of(double p, std::size_t n) {
  const double exact = p / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_of(p, sorted.size()) - 1];
}

double supported_tail(std::size_t n, std::size_t min_beyond) {
  static constexpr double ladder[] = {99.999, 99.99, 99.9, 99.0, 90.0, 50.0};
  if (n == 0) return 0.0;
  for (const double p : ladder) {
    if (n - rank_of(p, n) >= min_beyond) return p;
  }
  return 0.0;
}

summary summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  summary s;
  s.n = samples.size();
  s.p50 = nearest_rank(samples, 50.0);
  if (s.n > 0 && s.n - rank_of(99.0, s.n) >= 10) {
    s.p99 = nearest_rank(samples, 99.0);
  }
  s.tail_p = supported_tail(s.n);
  if (s.tail_p > 0.0) s.tail = nearest_rank(samples, s.tail_p);
  return s;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return nearest_rank(v, 50.0);
}

}  // namespace nkb
