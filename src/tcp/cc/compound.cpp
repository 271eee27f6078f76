#include "tcp/cc/compound.hpp"

#include <algorithm>
#include <cmath>

namespace nk::tcp {

namespace {
constexpr double infinite_window = 1e18;
}

compound::compound(const cc_config& cfg, const compound_params& params)
    : cfg_{cfg},
      p_{params},
      cwnd_seg_{static_cast<double>(cfg.initial_cwnd_segments)},
      ssthresh_seg_{infinite_window} {}

void compound::per_rtt_update() {
  if (round_rtt_count_ == 0) return;
  const sim_time avg_rtt = round_rtt_sum_ / static_cast<std::int64_t>(round_rtt_count_);
  const double win = cwnd_seg_ + dwnd_seg_;

  // diff = win/base_rtt - win/rtt  (packets resident in queues).
  const double base_s = to_seconds(rtt_base_);
  const double rtt_s = to_seconds(avg_rtt);
  if (base_s <= 0.0 || rtt_s <= 0.0) return;
  const double expected = win / base_s;
  const double actual = win / rtt_s;
  const double diff = (expected - actual) * base_s;
  last_diff_ = diff;

  if (diff < p_.gamma) {
    // Path underutilized: binomial increase of the delay window.
    const double inc = p_.alpha * std::pow(win, p_.k) - 1.0;
    dwnd_seg_ += std::max(inc, 0.0);
  } else {
    // Early congestion (queue building): retreat.
    dwnd_seg_ = std::max(dwnd_seg_ - p_.zeta * diff, 0.0);
  }

  round_bytes_ = 0;
  round_rtt_sum_ = {};
  round_rtt_count_ = 0;
}

void compound::on_ack(const ack_sample& ack) {
  if (ack.rtt != sim_time::zero()) {
    rtt_base_ = std::min(rtt_base_, ack.rtt);
    round_rtt_sum_ += ack.rtt;
    ++round_rtt_count_;
  }
  if (ack.acked_bytes == 0 || ack.in_recovery) return;

  // Loss-based component: standard Reno.
  if (cwnd_seg_ < ssthresh_seg_) {
    cwnd_seg_ +=
        static_cast<double>(ack.acked_bytes) / static_cast<double>(cfg_.mss);
  } else {
    const double win = cwnd_seg_ + dwnd_seg_;
    cwnd_seg_ += static_cast<double>(ack.acked_bytes) /
                 static_cast<double>(cfg_.mss) / win;
  }

  // One "round" = one window's worth of acknowledged bytes.
  round_bytes_ += ack.acked_bytes;
  if (ack.delivered >= next_round_at_) {
    per_rtt_update();
    const auto win_bytes = cwnd_bytes();
    next_round_at_ = ack.delivered + win_bytes;
  }
}

void compound::on_fast_retransmit(const loss_sample& loss) {
  (void)loss;
  const double win = cwnd_seg_ + dwnd_seg_;
  if (last_diff_ < p_.gamma) {
    // The delay estimator says the queue is empty: this loss is random, not
    // congestion. Retreat only mildly (the delay window absorbs the cut).
    const double target = std::max(win * (1.0 - p_.random_loss_beta), 2.0);
    cwnd_seg_ = std::max(std::min(cwnd_seg_, target), 2.0);
    dwnd_seg_ = std::max(target - cwnd_seg_, 0.0);
    ssthresh_seg_ = cwnd_seg_;
    return;
  }
  // Congestion loss: total window scaled by (1 - beta); the loss window
  // halves (Reno) and dwnd absorbs the remainder.
  cwnd_seg_ = std::max(cwnd_seg_ / 2.0, 2.0);
  dwnd_seg_ = std::max(win * (1.0 - p_.beta) - cwnd_seg_, 0.0);
  ssthresh_seg_ = cwnd_seg_;
}

void compound::on_rto(const loss_sample& loss) {
  (void)loss;
  ssthresh_seg_ = std::max((cwnd_seg_ + dwnd_seg_) / 2.0, 2.0);
  cwnd_seg_ = 1.0;
  dwnd_seg_ = 0.0;
}

std::uint64_t compound::cwnd_bytes() const {
  return static_cast<std::uint64_t>((cwnd_seg_ + dwnd_seg_) *
                                    static_cast<double>(cfg_.mss));
}

}  // namespace nk::tcp
