// RFC 6298 retransmission-timeout estimation (SRTT / RTTVAR / RTO with
// exponential backoff), plus a windowed minimum-RTT tracker used by the
// delay-based congestion controllers (BBR, Compound).
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace nk::tcp {

struct rtt_config {
  sim_time min_rto = milliseconds(200);
};

class rtt_estimator {
 public:
  using config = rtt_config;

  // RFC 6298 (2.1): the RTO before the first sample; backoff caps at
  // max_rto (RFC 6298 (2.5) allows an upper bound of at least 60 s).
  static constexpr sim_time initial_rto = seconds(1);
  static constexpr sim_time max_rto = seconds(60);

  explicit rtt_estimator(const config& cfg = {})
      : cfg_{cfg}, rto_{initial_rto} {}

  // Feeds a new sample from a segment that was not retransmitted (Karn).
  void add_sample(sim_time rtt);

  // Doubles the RTO after a retransmission timeout (capped).
  void backoff();

  [[nodiscard]] sim_time rto() const { return rto_; }
  [[nodiscard]] sim_time srtt() const { return srtt_; }
  [[nodiscard]] sim_time rttvar() const { return rttvar_; }
  [[nodiscard]] sim_time latest() const { return latest_; }
  [[nodiscard]] bool has_sample() const { return has_sample_; }

 private:
  void recompute_rto();

  config cfg_;
  bool has_sample_ = false;
  sim_time srtt_ = sim_time::zero();
  sim_time rttvar_ = sim_time::zero();
  sim_time latest_ = sim_time::zero();
  sim_time rto_;
};

// Sliding-window minimum, coarse-grained: keeps the minimum RTT observed in
// the last `window` of simulated time.
class min_rtt_tracker {
 public:
  explicit min_rtt_tracker(sim_time window = seconds(10)) : window_{window} {}

  void add(sim_time rtt, sim_time now);

  [[nodiscard]] sim_time value() const { return min_; }
  [[nodiscard]] bool valid() const { return min_ != sim_time::max(); }
  // Forgets the current minimum so the next sample re-seeds it.
  void reset() { min_ = sim_time::max(); }

 private:
  sim_time window_;
  sim_time min_ = sim_time::max();
  sim_time stamped_at_ = sim_time::zero();
};

}  // namespace nk::tcp
