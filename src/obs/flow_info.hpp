// Per-flow telemetry record (paper §5: the provider operates the stack, so
// it can see inside every tenant connection — state, RTT, cwnd, loss — that
// a black-box guest kernel hides).
//
// nk_flow_info is a plain snapshot filled by tcp::tcb::flow_info() and
// surfaced through stack::netstack -> core::service_lib (keyed <NSM, cID>)
// -> core::core_engine (joined with the connection-mapping table, keyed
// <VM, fd>) -> health_monitor::report_json(). Header-only and free of any
// tcp/stack dependency so the lower layers can fill it without a cycle.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace nk::obs {

struct nk_flow_info {
  // Identity / algorithm. All three strings come from compile-time
  // to_string tables (transport kind, tcp_state / nkq state, cc name), so
  // they are JSON-safe without escaping. `transport` is the name of the
  // protocol that filled this row ("tcp" or "nkq"): the flow
  // table is transport-agnostic, fields keep their closest-equivalent
  // meaning (retransmits = fast retransmits + timeouts for TCP, lost
  // packets recovered by pn-threshold/PTO for nkq).
  std::string transport = "tcp";
  std::string state;
  std::string cc;

  // Round-trip estimation (RFC 6298 smoothed values, nanoseconds).
  // min_rtt_ns is the windowed path-RTT floor both transports track for
  // their delivery-rate samplers; 0 until the first valid sample.
  std::uint64_t srtt_ns = 0;
  std::uint64_t rttvar_ns = 0;
  std::uint64_t min_rtt_ns = 0;

  // Congestion control. ssthresh_bytes 0 means "not yet set" (no loss seen,
  // still in initial slow start) or "not applicable" (BBR has no ssthresh).
  std::uint64_t cwnd_bytes = 0;
  std::uint64_t ssthresh_bytes = 0;
  std::uint64_t bytes_in_flight = 0;

  // Loss recovery.
  std::uint64_t retransmits = 0;  // fast retransmits + RTO firings
  std::uint64_t bytes_retransmitted = 0;

  // Most recent delivery-rate sample (bits/sec), BBR-style accounting.
  double delivery_rate_bps = 0.0;

  // Cumulative volume.
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t segments_in = 0;
  std::uint64_t segments_out = 0;

  // Buffer occupancy (unacked+unsent vs capacity; undrained receive data).
  std::uint64_t sndbuf_bytes = 0;
  std::uint64_t sndbuf_capacity = 0;
  std::uint64_t rcvbuf_bytes = 0;
  std::uint64_t rcvbuf_capacity = 0;

  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os << "{\"transport\":\"" << transport << "\",\"state\":\"" << state
       << "\",\"cc\":\"" << cc
       << "\",\"srtt_ns\":" << srtt_ns << ",\"rttvar_ns\":" << rttvar_ns
       << ",\"min_rtt_ns\":" << min_rtt_ns
       << ",\"cwnd_bytes\":" << cwnd_bytes
       << ",\"ssthresh_bytes\":" << ssthresh_bytes
       << ",\"bytes_in_flight\":" << bytes_in_flight
       << ",\"retransmits\":" << retransmits
       << ",\"bytes_retransmitted\":" << bytes_retransmitted
       << ",\"delivery_rate_bps\":" << delivery_rate_bps
       << ",\"bytes_in\":" << bytes_in << ",\"bytes_out\":" << bytes_out
       << ",\"segments_in\":" << segments_in
       << ",\"segments_out\":" << segments_out
       << ",\"sndbuf_bytes\":" << sndbuf_bytes
       << ",\"sndbuf_capacity\":" << sndbuf_capacity
       << ",\"rcvbuf_bytes\":" << rcvbuf_bytes
       << ",\"rcvbuf_capacity\":" << rcvbuf_capacity << "}";
    return os.str();
  }
};

}  // namespace nk::obs
