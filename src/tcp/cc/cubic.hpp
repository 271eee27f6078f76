// CUBIC congestion control (RFC 8312): window growth is a cubic function of
// time since the last congestion event, independent of RTT, with a
// TCP-friendly region and fast convergence. This is the "Linux Cubic" /
// "CUBIC NSM" of Figures 4 and 5.
#pragma once

#include "tcp/cc/congestion_controller.hpp"

namespace nk::tcp {

class cubic final : public congestion_controller {
 public:
  explicit cubic(std::uint32_t mss);

  void on_established(sim_time now) override;
  void on_ack(const ack_sample& ack) override;
  void on_fast_retransmit(const loss_sample& loss) override;
  void on_rto(const loss_sample& loss) override;

  [[nodiscard]] std::uint64_t cwnd_bytes() const override {
    return static_cast<std::uint64_t>(cwnd_segments_ *
                                      static_cast<double>(mss_));
  }
  [[nodiscard]] std::string_view name() const override { return "cubic"; }
  // 0 while ssthresh is still at its "infinite" initial value.
  [[nodiscard]] std::uint64_t ssthresh_bytes() const override {
    return ssthresh_segments_ >= 1e17
               ? 0
               : static_cast<std::uint64_t>(ssthresh_segments_ *
                                            static_cast<double>(mss_));
  }

  [[nodiscard]] bool in_slow_start() const {
    return cwnd_segments_ < ssthresh_segments_;
  }

 private:
  void enter_congestion();
  [[nodiscard]] double w_cubic(double t_seconds) const;

  std::uint32_t mss_;

  double cwnd_segments_;
  double ssthresh_segments_;
  double w_max_segments_ = 0.0;  // window at the last congestion event
  double k_seconds_ = 0.0;       // time to regain w_max
  sim_time epoch_start_{};       // last congestion event
  bool epoch_valid_ = false;

  // Reno-friendly window estimation state.
  double w_est_segments_ = 0.0;
  std::uint64_t acked_since_epoch_ = 0;
};

}  // namespace nk::tcp
