#include "tcp/cc/compound.hpp"

#include <algorithm>
#include <cmath>

namespace nk::tcp {

namespace {
constexpr double infinite_window = 1e18;

// Tan et al.'s beta/gamma, but with the more aggressive delay-window gain
// production Windows stacks ship (the original paper's alpha=0.125, k=0.75
// recovers far too slowly on large-BDP paths — the Figure 5 point is
// precisely that C-TCP's delay component keeps the pipe fuller than pure
// loss-based control under sporadic loss).
constexpr double ctcp_alpha = 0.4;   // dwnd increase factor
constexpr double ctcp_beta = 0.5;    // dwnd decrease factor on congestion loss
constexpr double ctcp_k = 0.8;       // binomial exponent for dwnd growth
constexpr double ctcp_gamma = 30.0;  // queueing threshold in packets
constexpr double ctcp_zeta = 1.0;    // dwnd decrease slope vs measured queueing
// Loss with an empty-queue delay estimate is treated as non-congestion
// (CTCP-TUBE-style discrimination): the total window shrinks by this mild
// factor instead of beta. This is what lets C-TCP hold most of a clean
// high-BDP pipe under sporadic random loss where Reno/Cubic collapse.
constexpr double ctcp_random_loss_beta = 0.15;
}  // namespace

compound::compound(std::uint32_t mss)
    : mss_{mss},
      cwnd_seg_{static_cast<double>(initial_cwnd_segments)},
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

  if (diff < ctcp_gamma) {
    // Path underutilized: binomial increase of the delay window.
    const double inc = ctcp_alpha * std::pow(win, ctcp_k) - 1.0;
    dwnd_seg_ += std::max(inc, 0.0);
  } else {
    // Early congestion (queue building): retreat.
    dwnd_seg_ = std::max(dwnd_seg_ - ctcp_zeta * diff, 0.0);
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
        static_cast<double>(ack.acked_bytes) / static_cast<double>(mss_);
  } else {
    const double win = cwnd_seg_ + dwnd_seg_;
    cwnd_seg_ += static_cast<double>(ack.acked_bytes) /
                 static_cast<double>(mss_) / win;
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
  if (last_diff_ < ctcp_gamma) {
    // The delay estimator says the queue is empty: this loss is random, not
    // congestion. Retreat only mildly (the delay window absorbs the cut).
    const double target = std::max(win * (1.0 - ctcp_random_loss_beta), 2.0);
    cwnd_seg_ = std::max(std::min(cwnd_seg_, target), 2.0);
    dwnd_seg_ = std::max(target - cwnd_seg_, 0.0);
    ssthresh_seg_ = cwnd_seg_;
    return;
  }
  // Congestion loss: total window scaled by (1 - beta); the loss window
  // halves (Reno) and dwnd absorbs the remainder.
  cwnd_seg_ = std::max(cwnd_seg_ / 2.0, 2.0);
  dwnd_seg_ = std::max(win * (1.0 - ctcp_beta) - cwnd_seg_, 0.0);
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
                                    static_cast<double>(mss_));
}

}  // namespace nk::tcp
