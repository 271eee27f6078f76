#include "tcp/cc/newreno.hpp"

#include <algorithm>

namespace nk::tcp {

namespace {
constexpr std::uint64_t infinite_ssthresh = ~std::uint64_t{0};
}

newreno::newreno(std::uint32_t mss)
    : mss_{mss},
      cwnd_{mss * initial_cwnd_segments},
      ssthresh_{infinite_ssthresh} {}

void newreno::on_ack(const ack_sample& ack) {
  if (ack.acked_bytes == 0 || ack.in_recovery) return;
  if (in_slow_start()) {
    cwnd_ += ack.acked_bytes;
    return;
  }
  // Congestion avoidance, appropriate byte counting (RFC 3465): one MSS per
  // cwnd's worth of acknowledged bytes.
  ca_accumulator_ += ack.acked_bytes;
  if (ca_accumulator_ >= cwnd_) {
    ca_accumulator_ -= cwnd_;
    cwnd_ += mss_;
  }
}

void newreno::enter_loss(std::uint64_t in_flight, double factor) {
  const auto base = std::max<std::uint64_t>(in_flight, cwnd_ / 2);
  ssthresh_ = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(static_cast<double>(base) * factor),
      2 * mss_);
  cwnd_ = ssthresh_;
  ca_accumulator_ = 0;
}

void newreno::on_fast_retransmit(const loss_sample& loss) {
  enter_loss(loss.in_flight, 0.5);
}

void newreno::on_rto(const loss_sample& loss) {
  // RFC 5681 (4.2): ssthresh = max(FlightSize/2, 2 MSS); cwnd = 1 MSS.
  ssthresh_ = std::max<std::uint64_t>(loss.in_flight / 2, 2 * mss_);
  cwnd_ = mss_;
  ca_accumulator_ = 0;
}

}  // namespace nk::tcp
