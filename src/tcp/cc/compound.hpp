// Compound TCP (Tan et al., INFOCOM 2006) — the default "C-TCP" of Windows
// Server, which Figure 5 runs as the native Windows stack. The send window
// is the sum of a loss-based component (cwnd, Reno-like) and a delay-based
// component (dwnd) that grows aggressively while queueing delay is low and
// retreats when delay builds, recovering high-BDP paths much faster than
// Reno/Cubic after random loss.
#pragma once

#include "tcp/cc/congestion_controller.hpp"

namespace nk::tcp {

class compound final : public congestion_controller {
 public:
  explicit compound(std::uint32_t mss);

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
                                            static_cast<double>(mss_));
  }

 private:
  void per_rtt_update();

  std::uint32_t mss_;

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
