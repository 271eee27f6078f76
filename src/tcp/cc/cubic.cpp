#include "tcp/cc/cubic.hpp"

#include <algorithm>
#include <cmath>

namespace nk::tcp {

namespace {
constexpr double infinite_window = 1e18;
constexpr double cubic_c = 0.4;     // cubic scaling constant (segments/sec^3)
constexpr double cubic_beta = 0.7;  // multiplicative decrease factor
}  // namespace

cubic::cubic(std::uint32_t mss)
    : mss_{mss},
      cwnd_segments_{static_cast<double>(initial_cwnd_segments)},
      ssthresh_segments_{infinite_window} {}

void cubic::on_established(sim_time now) { epoch_start_ = now; }

double cubic::w_cubic(double t_seconds) const {
  const double dt = t_seconds - k_seconds_;
  return cubic_c * dt * dt * dt + w_max_segments_;
}

void cubic::on_ack(const ack_sample& ack) {
  if (ack.acked_bytes == 0 || ack.in_recovery) return;
  const double acked_segments =
      static_cast<double>(ack.acked_bytes) / static_cast<double>(mss_);

  if (in_slow_start()) {
    cwnd_segments_ += acked_segments;
    return;
  }

  if (!epoch_valid_) {
    // First congestion-avoidance ACK of this epoch: seed the cubic curve
    // from the current window (RFC 8312 §4.8 after-timeout/startup case).
    epoch_start_ = ack.now;
    epoch_valid_ = true;
    if (w_max_segments_ < cwnd_segments_) {
      w_max_segments_ = cwnd_segments_;
      k_seconds_ = 0.0;
    } else {
      k_seconds_ = std::cbrt((w_max_segments_ - cwnd_segments_) / cubic_c);
    }
    w_est_segments_ = cwnd_segments_;
    acked_since_epoch_ = 0;
  }

  acked_since_epoch_ += ack.acked_bytes;
  const double t = to_seconds(ack.now - epoch_start_);
  const double rtt_s = to_seconds(ack.rtt != sim_time::zero()
                                      ? ack.rtt
                                      : milliseconds(100));

  // Target: cubic window one RTT ahead.
  const double target = w_cubic(t + rtt_s);
  if (target > cwnd_segments_) {
    // Approach the target within one RTT.
    cwnd_segments_ +=
        (target - cwnd_segments_) / cwnd_segments_ * acked_segments;
  } else {
    // Plateau region: grow very slowly (1.5x spacing per 100 acks).
    cwnd_segments_ += 0.01 * acked_segments / cwnd_segments_;
  }

  // TCP-friendly region (RFC 8312 §4.2): W_est follows what Reno would
  // achieve; CUBIC never does worse.
  w_est_segments_ += 3.0 * (1.0 - cubic_beta) / (1.0 + cubic_beta) *
                     acked_segments / cwnd_segments_;
  cwnd_segments_ = std::max(cwnd_segments_, w_est_segments_);
}

void cubic::enter_congestion() {
  // Fast convergence (RFC 8312 §4.6): if this loss happened below the
  // previous W_max, release bandwidth faster.
  if (cwnd_segments_ < w_max_segments_) {
    w_max_segments_ = cwnd_segments_ * (1.0 + cubic_beta) / 2.0;
  } else {
    w_max_segments_ = cwnd_segments_;
  }
  cwnd_segments_ = std::max(cwnd_segments_ * cubic_beta, 2.0);
  ssthresh_segments_ = cwnd_segments_;
  k_seconds_ = std::cbrt(w_max_segments_ * (1.0 - cubic_beta) / cubic_c);
  epoch_start_ = {};
  epoch_valid_ = false;
}

void cubic::on_fast_retransmit(const loss_sample& loss) {
  (void)loss;
  enter_congestion();
}

void cubic::on_rto(const loss_sample& loss) {
  (void)loss;
  enter_congestion();
  cwnd_segments_ = 1.0;
}

}  // namespace nk::tcp
