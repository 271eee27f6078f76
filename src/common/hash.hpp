// splitmix64's finalizer (Steele et al.; the mixer inside java.util
// SplittableRandom): full avalanche — every input bit flips ~half the
// output bits — bijective and constexpr. The one 64-bit mixer of the tree:
// the rng seeds its state with it, buffer::pattern derives its bytes from
// it, CoreEngine steers flows to shards with it, and nkq mints its
// connection ids and 0-RTT tokens with it.
#pragma once

#include <cstdint>

namespace nk {

[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace nk
