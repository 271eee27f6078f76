// Token bucket over simulated time; used by the SLA manager to enforce
// per-tenant rate guarantees/caps at the NSM boundary.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace nk {

class token_bucket {
 public:
  // rate: refill rate; burst: bucket depth in bytes. The bucket starts full.
  token_bucket(data_rate rate, std::uint64_t burst_bytes);

  // True and debits if `bytes` tokens are available at time `now`.
  bool try_consume(sim_time now, std::uint64_t bytes);

  // Time at which `bytes` tokens will be available (>= now).
  [[nodiscard]] sim_time next_available(sim_time now, std::uint64_t bytes) const;

  [[nodiscard]] double tokens_at(sim_time now) const;
  [[nodiscard]] data_rate rate() const { return rate_; }
  [[nodiscard]] std::uint64_t burst() const { return burst_; }

 private:
  void refill(sim_time now);

  data_rate rate_;
  std::uint64_t burst_;
  double tokens_;
  sim_time last_ = sim_time::zero();
};

}  // namespace nk
