#include "common/rng.hpp"

#include <cmath>

#include "common/hash.hpp"

namespace nk {
namespace {

// splitmix64's generator step: advance by the golden gamma, then mix.
std::uint64_t splitmix64(std::uint64_t& x) {
  const std::uint64_t z = mix64(x);
  x += 0x9e3779b97f4a7c15ULL;
  return z;
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void rng::reseed(std::uint64_t seed) {
  // splitmix64 expansion guarantees a nonzero state for any seed.
  for (auto& s : s_) s = splitmix64(seed);
}

std::uint64_t rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t rng::next_below(std::uint64_t bound) {
  // Lemire's nearly-divisionless method would be overkill here; modulo bias
  // is negligible for the bounds simulations use (<< 2^32).
  return next_u64() % bound;
}

double rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double rng::exponential(double mean) {
  // Inverse transform; next_double() < 1 so the log argument is > 0.
  double u = next_double();
  while (u <= 0.0) u = next_double();
  return -mean * std::log(u);
}

double rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

}  // namespace nk
