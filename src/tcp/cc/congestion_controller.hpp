// Pluggable congestion control.
//
// This is the axis the paper's flexibility story turns on: an NSM is "a
// network stack", and what distinguishes the CUBIC NSM from the BBR NSM in
// Figures 4 and 5 is exactly which congestion_controller its stack mounts.
// Implementations: NewReno, CUBIC (RFC 8312), BBR (v1 model), Compound TCP
// (Windows C-TCP) and DCTCP.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "common/units.hpp"

namespace nk::tcp {

enum class cc_algorithm { newreno, cubic, bbr, compound, dctcp };

[[nodiscard]] constexpr std::string_view to_string(cc_algorithm a) {
  switch (a) {
    case cc_algorithm::newreno: return "newreno";
    case cc_algorithm::cubic: return "cubic";
    case cc_algorithm::bbr: return "bbr";
    case cc_algorithm::compound: return "compound";
    case cc_algorithm::dctcp: return "dctcp";
  }
  return "unknown";
}

[[nodiscard]] std::optional<cc_algorithm> parse_cc_algorithm(
    std::string_view name);

// Per-ACK information handed to the controller.
struct ack_sample {
  sim_time now{};
  std::uint64_t acked_bytes = 0;    // newly cumulatively-acked bytes
  sim_time rtt{};                   // RTT measurement; zero if none
  sim_time min_rtt{};               // connection-lifetime windowed min
  bool ece = false;                 // ECN echo on this ACK
  std::uint64_t in_flight = 0;      // outstanding bytes after this ACK
  std::uint64_t delivered = 0;      // cumulative delivered bytes
  double delivery_rate = 0.0;       // bytes/sec estimate for the acked data
  bool rate_app_limited = false;    // rate sample taken while app-limited
  bool in_recovery = false;         // loss recovery in progress
  std::uint64_t round_trips = 0;    // completed delivery rounds
};

struct loss_sample {
  sim_time now{};
  std::uint64_t in_flight = 0;
};

class congestion_controller {
 public:
  virtual ~congestion_controller() = default;

  virtual void on_established(sim_time now) { (void)now; }

  // Cumulative ACK advanced (also called for ECE-only progress).
  virtual void on_ack(const ack_sample& ack) = 0;

  // Entering fast-recovery after triple-dupack.
  virtual void on_fast_retransmit(const loss_sample& loss) = 0;

  // Recovery completed (full ACK of the recovery point).
  virtual void on_recovery_exit(sim_time now) { (void)now; }

  // Retransmission timeout fired.
  virtual void on_rto(const loss_sample& loss) = 0;

  // Current congestion window in bytes (lower-bounded by callers at 1 MSS).
  [[nodiscard]] virtual std::uint64_t cwnd_bytes() const = 0;

  // Slow-start threshold in bytes, for introspection (obs::nk_flow_info).
  // 0 means "not yet set" (no congestion event so far) or "not applicable"
  // (BBR has no ssthresh in this model).
  [[nodiscard]] virtual std::uint64_t ssthresh_bytes() const { return 0; }

  // Pacing rate; zero rate means "no pacing, window-limited send".
  [[nodiscard]] virtual data_rate pacing_rate() const { return {}; }

  // True if the algorithm wants ECT marking on data segments.
  [[nodiscard]] virtual bool wants_ecn() const { return false; }

  [[nodiscard]] virtual std::string_view name() const = 0;
};

// Every controller starts from this window, in segments (RFC 6928).
inline constexpr std::uint64_t initial_cwnd_segments = 10;

[[nodiscard]] std::unique_ptr<congestion_controller> make_congestion_controller(
    cc_algorithm algorithm, std::uint32_t mss);

}  // namespace nk::tcp
