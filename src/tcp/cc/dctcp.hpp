// DCTCP (Alizadeh et al., SIGCOMM 2010): ECN-fraction-proportional window
// reduction for datacenter networks. Mentioned by the paper (§5) as the
// stack a Spark container would want while a web-server container wants
// BBR/Cubic — the multi-NSM scenario of example multi_tenant_sla.
//
// Requires ECN marking at switch queues (phys::droptail_config::
// ecn_threshold_bytes). The sender keeps an EWMA `alpha` of the fraction of
// ECN-marked bytes per window and scales cwnd by (1 - alpha/2) once per
// window of marked data.
#pragma once

#include "tcp/cc/newreno.hpp"

namespace nk::tcp {

class dctcp final : public newreno {
 public:
  explicit dctcp(std::uint32_t mss);

  void on_ack(const ack_sample& ack) override;

  [[nodiscard]] bool wants_ecn() const override { return true; }
  [[nodiscard]] std::string_view name() const override { return "dctcp"; }

  [[nodiscard]] double alpha() const { return alpha_; }

 private:
  double alpha_ = 1.0;  // start conservative, as Linux does
  std::uint64_t window_acked_ = 0;
  std::uint64_t window_marked_ = 0;
  std::uint64_t next_window_at_ = 0;  // delivered watermark closing the window
};

}  // namespace nk::tcp
