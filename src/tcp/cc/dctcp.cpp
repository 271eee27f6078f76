#include "tcp/cc/dctcp.hpp"

#include <algorithm>

namespace nk::tcp {

namespace {
constexpr double dctcp_gain = 1.0 / 16.0;  // EWMA weight g
}  // namespace

dctcp::dctcp(std::uint32_t mss) : newreno{mss} {}

void dctcp::on_ack(const ack_sample& ack) {
  window_acked_ += ack.acked_bytes;
  if (ack.ece) window_marked_ += ack.acked_bytes;

  if (ack.delivered >= next_window_at_ && window_acked_ > 0) {
    const double fraction = static_cast<double>(window_marked_) /
                            static_cast<double>(window_acked_);
    alpha_ = (1.0 - dctcp_gain) * alpha_ + dctcp_gain * fraction;

    if (window_marked_ > 0) {
      // DCTCP's proportional decrease replaces Reno's halving for ECN.
      const double factor = 1.0 - alpha_ / 2.0;
      cwnd_ = std::max<std::uint64_t>(
          static_cast<std::uint64_t>(static_cast<double>(cwnd_) * factor),
          2 * mss_);
      ssthresh_ = cwnd_;
    }
    window_acked_ = 0;
    window_marked_ = 0;
    next_window_at_ = ack.delivered + cwnd_;
  }

  // Additive increase is inherited (Reno slow start / CA) — but skip it if
  // the window just shrank due to marks this ACK carried.
  newreno::on_ack(ack);
}

}  // namespace nk::tcp
