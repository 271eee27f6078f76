// TCP NewReno (RFC 5681/6582): slow start, AIMD congestion avoidance,
// halve-on-loss. The simplest controller; baseline for tests and the loss
// model other controllers are compared against.
#pragma once

#include "tcp/cc/congestion_controller.hpp"

namespace nk::tcp {

class newreno : public congestion_controller {
 public:
  explicit newreno(std::uint32_t mss);

  void on_ack(const ack_sample& ack) override;
  void on_fast_retransmit(const loss_sample& loss) override;
  void on_rto(const loss_sample& loss) override;

  [[nodiscard]] std::uint64_t cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] std::string_view name() const override { return "newreno"; }

  // Reports 0 while ssthresh is still at its "infinite" initial value.
  [[nodiscard]] std::uint64_t ssthresh_bytes() const override {
    return ssthresh_ == ~std::uint64_t{0} ? 0 : ssthresh_;
  }
  [[nodiscard]] bool in_slow_start() const { return cwnd_ < ssthresh_; }

 protected:
  // Shared halving logic; DCTCP overrides the multiplicative factor.
  void enter_loss(std::uint64_t in_flight, double factor);

  std::uint32_t mss_;
  std::uint64_t cwnd_;
  std::uint64_t ssthresh_;
  std::uint64_t ca_accumulator_ = 0;  // byte-counting congestion avoidance
};

}  // namespace nk::tcp
