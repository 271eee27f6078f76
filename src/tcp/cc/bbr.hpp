// BBR congestion control (v1 model, after Cardwell et al., CACM 2017 — the
// algorithm the paper ports into its BBR NSM).
//
// Model-based: estimates bottleneck bandwidth (windowed-max delivery rate)
// and round-trip propagation delay (windowed-min RTT), paces at
// gain × BtlBw and caps inflight at cwnd_gain × BDP. Loss is not a primary
// congestion signal, which is why BBR sustains throughput on the lossy
// Figure 5 WAN path where Cubic collapses.
#pragma once

#include <array>
#include <deque>

#include "tcp/cc/congestion_controller.hpp"

namespace nk::tcp {

class bbr final : public congestion_controller {
 public:
  explicit bbr(std::uint32_t mss);

  void on_established(sim_time now) override;
  void on_ack(const ack_sample& ack) override;
  void on_fast_retransmit(const loss_sample& loss) override;
  void on_rto(const loss_sample& loss) override;

  [[nodiscard]] std::uint64_t cwnd_bytes() const override;
  [[nodiscard]] data_rate pacing_rate() const override;
  [[nodiscard]] std::string_view name() const override { return "bbr"; }

  enum class mode { startup, drain, probe_bw, probe_rtt };
  [[nodiscard]] mode state() const { return mode_; }
  [[nodiscard]] double bottleneck_bw_bytes_per_sec() const { return max_bw(); }
  [[nodiscard]] sim_time min_rtt() const { return min_rtt_; }

 private:
  [[nodiscard]] double max_bw() const;
  [[nodiscard]] std::uint64_t bdp_bytes(double gain) const;
  void push_bw_sample(double rate, std::uint64_t round);
  void update_min_rtt(const ack_sample& ack);
  void check_full_pipe(const ack_sample& ack);
  void advance_machine(const ack_sample& ack);

  std::uint32_t mss_;
  mode mode_ = mode::startup;

  // Windowed-max bottleneck bandwidth filter (last 10 rounds): a monotonic
  // deque of (round, rate), rates strictly falling front to back, so the
  // max is the front, exactly as a scan of every sample would find it.
  std::deque<std::pair<std::uint64_t, double>> bw_samples_;
  static constexpr std::uint64_t bw_window_rounds = 10;

  sim_time min_rtt_ = sim_time::max();
  sim_time min_rtt_stamp_{};
  static constexpr sim_time min_rtt_window = seconds(10);
  static constexpr sim_time probe_rtt_duration = milliseconds(200);
  sim_time probe_rtt_done_at_{};
  sim_time probe_rtt_min_ = sim_time::max();  // freshest drained-pipe sample

  // Startup full-pipe detection.
  double full_bw_ = 0.0;
  int full_bw_count_ = 0;
  bool filled_pipe_ = false;

  // ProbeBW gain cycling.
  static constexpr std::array<double, 8> pacing_gain_cycle = {
      1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  std::size_t cycle_index_ = 0;
  sim_time cycle_stamp_{};

  double pacing_gain_;
  double cwnd_gain_;
  bool rto_collapsed_ = false;  // window floor until post-RTO delivery
  int startup_loss_events_ = 0;
  std::uint64_t last_round_ = 0;
  std::uint64_t prior_cwnd_ = 0;  // saved across probe_rtt
};

}  // namespace nk::tcp
