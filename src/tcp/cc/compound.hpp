// Compound TCP (Tan et al., INFOCOM 2006) — the default "C-TCP" of Windows
// Server, which Figure 5 runs as the native Windows stack. The send window
// is the sum of a loss-based component (cwnd, Reno-like) and a delay-based
// component (dwnd) that grows aggressively while queueing delay is low and
// retreats when delay builds, recovering high-BDP paths much faster than
// Reno/Cubic after random loss.
#pragma once

#include "tcp/cc/congestion_controller.hpp"

namespace nk::tcp {

// Defaults follow Tan et al. for beta/gamma but with the more aggressive
// delay-window gain production Windows stacks ship (the original paper's
// alpha=0.125, k=0.75 recovers far too slowly on large-BDP paths — the
// Figure 5 point is precisely that C-TCP's delay component keeps the pipe
// fuller than pure loss-based control under sporadic loss).
struct compound_params {
  double alpha = 0.4;   // dwnd increase factor
  double beta = 0.5;    // dwnd decrease factor on congestion loss
  double k = 0.8;       // binomial exponent for dwnd growth
  double gamma = 30.0;  // queueing threshold in packets
  double zeta = 1.0;    // dwnd decrease slope vs measured queueing
  // Loss with an empty-queue delay estimate is treated as non-congestion
  // (CTCP-TUBE-style discrimination): the total window shrinks by this mild
  // factor instead of beta. This is what lets C-TCP hold most of a clean
  // high-BDP pipe under sporadic random loss where Reno/Cubic collapse.
  double random_loss_beta = 0.15;
};

class compound final : public congestion_controller {
 public:
  compound(const cc_config& cfg, const compound_params& params = {});

  void on_ack(const ack_sample& ack) override;
  void on_fast_retransmit(const loss_sample& loss) override;
  void on_rto(const loss_sample& loss) override;

  [[nodiscard]] std::uint64_t cwnd_bytes() const override;
  [[nodiscard]] std::string_view name() const override { return "compound"; }

  [[nodiscard]] double delay_window_segments() const { return dwnd_seg_; }
  // 0 while ssthresh is still at its "infinite" initial value.
  [[nodiscard]] std::uint64_t ssthresh_bytes() const override {
    return ssthresh_seg_ >= 1e17
               ? 0
               : static_cast<std::uint64_t>(ssthresh_seg_ *
                                            static_cast<double>(cfg_.mss));
  }

 private:
  void per_rtt_update();

  cc_config cfg_;
  compound_params p_;

  double cwnd_seg_;
  double dwnd_seg_ = 0.0;
  double ssthresh_seg_;

  // Per-RTT sampling state.
  double last_diff_ = 0.0;               // queueing estimate (packets)
  sim_time rtt_base_ = sim_time::max();  // propagation estimate
  std::uint64_t round_bytes_ = 0;        // bytes acked this round
  sim_time round_rtt_sum_{};             // sum of samples this round
  std::uint64_t round_rtt_count_ = 0;
  std::uint64_t next_round_at_ = 0;      // delivered watermark ending the round
};

}  // namespace nk::tcp
