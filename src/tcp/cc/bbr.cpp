#include "tcp/cc/bbr.hpp"

#include <algorithm>
#include <cmath>

namespace nk::tcp {

namespace {
// 2/ln(2): fills the pipe in one round per bandwidth doubling.
constexpr double startup_gain = 2.885;
constexpr double drain_gain = 1.0 / startup_gain;
constexpr double probe_bw_cwnd_gain = 2.0;
constexpr std::uint64_t min_cwnd_segments = 4;
}  // namespace

bbr::bbr(std::uint32_t mss)
    : mss_{mss}, pacing_gain_{startup_gain}, cwnd_gain_{startup_gain} {}

void bbr::on_established(sim_time now) {
  cycle_stamp_ = now;
  min_rtt_stamp_ = now;
}

double bbr::max_bw() const {
  return bw_samples_.empty() ? 0.0
                             : std::max(0.0, bw_samples_.front().second);
}

std::uint64_t bbr::bdp_bytes(double gain) const {
  if (min_rtt_ == sim_time::max() || max_bw() <= 0.0) {
    return mss_ * initial_cwnd_segments;
  }
  const double bdp = max_bw() * to_seconds(min_rtt_);
  return static_cast<std::uint64_t>(gain * bdp);
}

void bbr::push_bw_sample(double rate, std::uint64_t round) {
  // Rounds never decrease, so a sample no larger than a newer one can never
  // be the window's max again: drop it. Rates then fall front to back, and
  // the front is the max of every sample the window still holds.
  while (!bw_samples_.empty() && bw_samples_.back().second <= rate) {
    bw_samples_.pop_back();
  }
  bw_samples_.emplace_back(round, rate);
  while (!bw_samples_.empty() &&
         bw_samples_.front().first + bw_window_rounds < round) {
    bw_samples_.pop_front();
  }
}

void bbr::update_min_rtt(const ack_sample& ack) {
  if (ack.rtt == sim_time::zero()) return;
  if (ack.rtt <= min_rtt_) {
    min_rtt_ = ack.rtt;
    min_rtt_stamp_ = ack.now;
  }
  // Expiry of the window is handled by the ProbeRTT machinery, not by
  // silently adopting an inflated sample here — otherwise ProbeRTT would
  // never trigger. While probing, the pipe is drained, so every sample is
  // a candidate for the fresh minimum.
  if (mode_ == mode::probe_rtt) {
    probe_rtt_min_ = std::min(probe_rtt_min_, ack.rtt);
  }
}

void bbr::check_full_pipe(const ack_sample& ack) {
  if (filled_pipe_ || ack.rate_app_limited) return;
  const double bw = max_bw();
  if (bw > full_bw_ * 1.25) {
    full_bw_ = bw;
    full_bw_count_ = 0;
    return;
  }
  if (++full_bw_count_ >= 3) filled_pipe_ = true;
}

void bbr::advance_machine(const ack_sample& ack) {
  switch (mode_) {
    case mode::startup:
      if (filled_pipe_) {
        mode_ = mode::drain;
        pacing_gain_ = drain_gain;
        cwnd_gain_ = startup_gain;
      }
      break;
    case mode::drain:
      if (ack.in_flight <= bdp_bytes(1.0)) {
        mode_ = mode::probe_bw;
        cycle_index_ = 0;
        cycle_stamp_ = ack.now;
        pacing_gain_ = pacing_gain_cycle[0];
        cwnd_gain_ = probe_bw_cwnd_gain;
      }
      break;
    case mode::probe_bw: {
      // Advance the gain cycle once per min_rtt.
      const sim_time phase =
          min_rtt_ == sim_time::max() ? milliseconds(10) : min_rtt_;
      if (ack.now - cycle_stamp_ > phase) {
        cycle_index_ = (cycle_index_ + 1) % pacing_gain_cycle.size();
        cycle_stamp_ = ack.now;
        pacing_gain_ = pacing_gain_cycle[cycle_index_];
      }
      break;
    }
    case mode::probe_rtt:
      if (ack.now >= probe_rtt_done_at_) {
        if (probe_rtt_min_ != sim_time::max()) min_rtt_ = probe_rtt_min_;
        min_rtt_stamp_ = ack.now;
        mode_ = filled_pipe_ ? mode::probe_bw : mode::startup;
        if (mode_ == mode::probe_bw) {
          cycle_index_ = 0;
          cycle_stamp_ = ack.now;
          pacing_gain_ = pacing_gain_cycle[0];
          cwnd_gain_ = probe_bw_cwnd_gain;
        } else {
          pacing_gain_ = cwnd_gain_ = startup_gain;
        }
      }
      return;
  }

  // Enter ProbeRTT when the min-RTT estimate has gone stale.
  if (mode_ != mode::probe_rtt && min_rtt_ != sim_time::max() &&
      ack.now - min_rtt_stamp_ > min_rtt_window) {
    mode_ = mode::probe_rtt;
    prior_cwnd_ = cwnd_bytes();
    pacing_gain_ = 1.0;
    cwnd_gain_ = 1.0;
    probe_rtt_min_ = sim_time::max();
    probe_rtt_done_at_ = ack.now + probe_rtt_duration;
  }
}

void bbr::on_ack(const ack_sample& ack) {
  if (rto_collapsed_ && ack.acked_bytes > 0) rto_collapsed_ = false;
  if (ack.delivery_rate > 0.0 &&
      (!ack.rate_app_limited || ack.delivery_rate > max_bw())) {
    push_bw_sample(ack.delivery_rate, ack.round_trips);
  }
  if (ack.round_trips > last_round_) {
    last_round_ = ack.round_trips;
    check_full_pipe(ack);
  }
  update_min_rtt(ack);
  advance_machine(ack);
}

void bbr::on_fast_retransmit(const loss_sample& loss) {
  // BBR v1 does not react to isolated loss beyond what the inflight cap
  // already enforces. But repeated loss episodes during STARTUP mean the
  // 2.885x overshoot is flooding the bottleneck queue faster than the
  // plateau detector can notice — treat that as "pipe full" (the same
  // practical escape hatch Linux added for lossy startup paths).
  (void)loss;
  if (mode_ == mode::startup && ++startup_loss_events_ >= 3) {
    filled_pipe_ = true;
  }
}

void bbr::on_rto(const loss_sample& loss) {
  // Conservative on timeout: collapse the window (restored on the next
  // delivery, like Linux's bbr_set_cwnd on loss recovery) but keep the
  // model — the bandwidth estimate is still the best available knowledge.
  (void)loss;
  rto_collapsed_ = true;
}

std::uint64_t bbr::cwnd_bytes() const {
  if (rto_collapsed_) return min_cwnd_segments * mss_;
  if (mode_ == mode::probe_rtt) return min_cwnd_segments * mss_;
  return std::max<std::uint64_t>(bdp_bytes(cwnd_gain_),
                                 min_cwnd_segments * mss_);
}

data_rate bbr::pacing_rate() const {
  const double init_bytes =
      static_cast<double>(mss_ * initial_cwnd_segments);
  // Floor: never pace slower than the initial window per round trip (one
  // guessed millisecond before the first RTT sample). Early, noisy
  // bandwidth samples must not strangle startup.
  const double floor_interval_s =
      min_rtt_ == sim_time::max() ? 1e-3 : to_seconds(min_rtt_);
  const double floor_bw = init_bytes / floor_interval_s;
  const double bw = std::max(max_bw(), floor_bw);
  return data_rate::bits_per_sec(bw * 8.0 * pacing_gain_);
}

}  // namespace nk::tcp
