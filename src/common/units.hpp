// Units and literals used throughout NetKernel: data sizes, data rates,
// and simulated time. All simulated time is integral nanoseconds.
#pragma once

#include <chrono>
#include <cstdint>

namespace nk {

// Simulated time: signed 64-bit nanoseconds (~292 years of range).
using sim_time = std::chrono::nanoseconds;

constexpr sim_time nanoseconds(std::int64_t n) { return sim_time{n}; }
constexpr sim_time microseconds(std::int64_t n) { return sim_time{n * 1000}; }
constexpr sim_time milliseconds(std::int64_t n) { return sim_time{n * 1'000'000}; }
constexpr sim_time seconds(std::int64_t n) { return sim_time{n * 1'000'000'000}; }

constexpr double to_seconds(sim_time t) {
  return static_cast<double>(t.count()) * 1e-9;
}

// Data sizes in bytes.
constexpr std::uint64_t kib(std::uint64_t n) { return n * 1024; }
constexpr std::uint64_t mib(std::uint64_t n) { return n * 1024 * 1024; }
constexpr std::uint64_t gib(std::uint64_t n) { return n * 1024 * 1024 * 1024; }

// A data rate in bits per second. Stored as double: rates are used for
// serialization-time arithmetic, never for exact accounting.
class data_rate {
 public:
  constexpr data_rate() = default;
  static constexpr data_rate bits_per_sec(double b) { return data_rate{b}; }
  static constexpr data_rate mbps(double m) { return data_rate{m * 1e6}; }
  static constexpr data_rate gbps(double g) { return data_rate{g * 1e9}; }

  [[nodiscard]] constexpr double bps() const { return bits_per_sec_; }
  [[nodiscard]] constexpr double bytes_per_sec() const { return bits_per_sec_ / 8.0; }
  [[nodiscard]] constexpr bool is_zero() const { return bits_per_sec_ <= 0.0; }

  // Time to serialize `bytes` onto a medium of this rate.
  [[nodiscard]] constexpr sim_time transmission_time(std::uint64_t bytes) const {
    if (bits_per_sec_ <= 0.0) return sim_time::zero();
    const double ns = static_cast<double>(bytes) * 8.0 * 1e9 / bits_per_sec_;
    return sim_time{static_cast<std::int64_t>(ns + 0.5)};
  }

  // Bytes deliverable in interval `t` at this rate.
  [[nodiscard]] constexpr double bytes_in(sim_time t) const {
    return bytes_per_sec() * to_seconds(t);
  }

  friend constexpr bool operator==(data_rate a, data_rate b) {
    return a.bits_per_sec_ == b.bits_per_sec_;
  }
  friend constexpr bool operator<(data_rate a, data_rate b) {
    return a.bits_per_sec_ < b.bits_per_sec_;
  }
  friend constexpr data_rate operator*(data_rate a, double s) {
    return data_rate{a.bits_per_sec_ * s};
  }
  friend constexpr data_rate operator/(data_rate a, double s) {
    return data_rate{a.bits_per_sec_ / s};
  }
  friend constexpr data_rate operator+(data_rate a, data_rate b) {
    return data_rate{a.bits_per_sec_ + b.bits_per_sec_};
  }

 private:
  constexpr explicit data_rate(double bps) : bits_per_sec_{bps} {}
  double bits_per_sec_ = 0.0;
};

// Rate observed when `bytes` are moved over interval `t`.
constexpr data_rate rate_of(std::uint64_t bytes, sim_time t) {
  if (t <= sim_time::zero()) return data_rate{};
  return data_rate::bits_per_sec(static_cast<double>(bytes) * 8.0 / to_seconds(t));
}

}  // namespace nk
