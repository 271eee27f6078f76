#include "tcp/rtt_estimator.hpp"

#include <algorithm>

namespace nk::tcp {

namespace {
// RFC 6298's clock granularity G: the floor on an RTT sample and on the
// RTTVAR term of the RTO.
constexpr sim_time clock_granularity = microseconds(1);
}  // namespace

void rtt_estimator::add_sample(sim_time rtt) {
  rtt = std::max(rtt, clock_granularity);
  latest_ = rtt;
  if (!has_sample_) {
    // RFC 6298 (2.2): first measurement seeds SRTT and RTTVAR.
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    has_sample_ = true;
  } else {
    // RFC 6298 (2.3): RTTVAR <- 3/4 RTTVAR + 1/4 |SRTT - R'|,
    //                 SRTT   <- 7/8 SRTT + 1/8 R'.
    const sim_time err = srtt_ > rtt ? srtt_ - rtt : rtt - srtt_;
    rttvar_ = (rttvar_ * 3 + err) / 4;
    srtt_ = (srtt_ * 7 + rtt) / 8;
  }
  recompute_rto();
}

void rtt_estimator::recompute_rto() {
  const sim_time var_term = std::max(clock_granularity, rttvar_ * 4);
  rto_ = std::clamp(srtt_ + var_term, cfg_.min_rto, max_rto);
}

void rtt_estimator::backoff() {
  rto_ = std::min(rto_ * 2, max_rto);
}

void min_rtt_tracker::add(sim_time rtt, sim_time now) {
  if (rtt <= min_ || now - stamped_at_ > window_) {
    min_ = rtt;
    stamped_at_ = now;
  }
}

}  // namespace nk::tcp
