// One nkq connection: a reliable byte stream (QUIC-like stream 0) over
// datagrams, with a connection-ID handshake, 0-RTT-style resumption,
// packet-number loss detection + probe timeout (PTO), connection-level flow
// control (max_data, so a stalled reader closes the window instead of
// forcing silent loss), and a pluggable congestion controller reused from
// tcp::cc (default BBR — the lean loss-tolerant profile that wins the
// Fig 5 lossy-WAN regime).
//
// Handshake:
//   cold    client --initial(token=0)-------> server
//           client <-accept(NEW_TOKEN, ack)-- server        (1 RTT to send)
//   resumed client --initial(token)+data----> server        (0 RTT to send)
// The client keeps emitting `initial`-type packets (token attached) until
// the first accept/ack arrives, so a lost first flight still creates the
// server-side connection on retransmission. Tokens are a keyed hash of the
// client address minted by the server transport; validation is stateless.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>

#include "common/buffer.hpp"
#include "common/result.hpp"
#include "nkq/wire.hpp"
#include "obs/flow_info.hpp"
#include "sim/simulator.hpp"
#include "tcp/cc/congestion_controller.hpp"
#include "tcp/reassembly.hpp"
#include "tcp/rtt_estimator.hpp"

namespace nk::nkq {

struct nkq_config {
  tcp::cc_algorithm cc = tcp::cc_algorithm::bbr;
  std::size_t mss = 1200;  // stream payload bytes per packet (QUIC-sized)
  std::size_t send_buffer = 256 * 1024;
  std::size_t recv_buffer = 256 * 1024;
};

enum class conn_state : std::uint8_t { connecting, established, closed };

[[nodiscard]] constexpr std::string_view to_string(conn_state s) {
  switch (s) {
    case conn_state::connecting: return "connecting";
    case conn_state::established: return "established";
    case conn_state::closed: return "closed";
  }
  return "unknown";
}

struct connection_stats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t bytes_sent = 0;      // stream payload
  std::uint64_t bytes_received = 0;  // stream payload accepted in order
  std::uint64_t retransmits = 0;     // lost ranges requeued (pn + PTO)
  std::uint64_t bytes_retransmitted = 0;
  std::uint64_t pto_fired = 0;
};

class connection {
 public:
  struct callbacks {
    std::function<void(buffer)> emit;  // one encoded datagram toward the peer
    std::function<void()> on_connected;
    std::function<void()> on_readable;
    std::function<void()> on_writable;
    std::function<void(std::uint64_t)> on_token;  // server-issued resumption
    std::function<void(errc)> on_closed;  // terminal; peer close / timeout
  };

  // `server`: created by a listener from an inbound initial. `issue_token`
  // is the resumption token a server mints for this client (0: none).
  connection(sim::simulator& sim, const nkq_config& cfg, std::uint64_t conn_id,
             bool server, std::uint64_t issue_token, callbacks cb);
  ~connection();

  connection(const connection&) = delete;
  connection& operator=(const connection&) = delete;

  // Client: start the handshake. token != 0 resumes: the connection is
  // writable immediately and the first flight carries stream data (0-RTT).
  void connect(std::uint64_t token);

  // Server marker: the creating initial carried a token that validated.
  void mark_resumed() { resumed_ = true; }

  // A decoded datagram for this conn_id.
  void on_packet(const wire_packet& p);

  // Stream API (service_lib semantics: would_block on a full buffer /
  // nothing readable, closed on EOF / after close).
  [[nodiscard]] result<std::size_t> send(buffer data);
  [[nodiscard]] result<buffer> recv(std::size_t max);
  void shutdown_write();
  // Graceful local close: drains the send side (FIN + loss recovery) so
  // the peer receives every byte, then emits the terminal CLOSE frame.
  // on_closed fires once the drain completes (possibly synchronously).
  void close();
  // Silent teardown (NSM crash path): no frame, no callback.
  void abort();

  [[nodiscard]] conn_state state() const { return state_; }
  [[nodiscard]] bool resumed() const { return resumed_; }
  [[nodiscard]] std::uint64_t conn_id() const { return conn_id_; }
  [[nodiscard]] const connection_stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t send_space() const {
    return cfg_.send_buffer - send_chain_.size();
  }
  // Stream bytes the peer has cumulatively acknowledged.
  [[nodiscard]] std::uint64_t acked_bytes() const { return send_base_; }
  // Stream bytes sent at least once: the new-data cursor, which loss
  // recovery never moves back (retransmissions go through retx_queue_).
  // An ACK that advances either count, or a probe timeout that advances
  // sent_bytes(), raises on_writable once, after the sends it caused.
  [[nodiscard]] std::uint64_t sent_bytes() const { return next_unsent_; }

  [[nodiscard]] obs::nk_flow_info flow_info() const;

 private:
  struct sent_range {
    std::uint64_t offset = 0;
    std::uint32_t len = 0;
    bool fin = false;
  };
  struct sent_packet {
    sim_time sent_at{};
    std::vector<sent_range> ranges;
    std::uint64_t bytes = 0;  // stream payload (cc accounting)
    std::uint64_t delivered_at_send = 0;
    bool initial = false;
  };

  void maybe_send();
  // Sends `p` and tracks it in flight until acked or declared lost.
  void emit_packet(wire_packet p, sent_packet tracked);
  // Sends a frameless client hello carrying the resumption token.
  void send_initial();
  [[nodiscard]] frame make_ack_frame();
  void process_ack(const ack_frame& a);
  void process_stream(const stream_frame& s);
  void on_packet_lost(std::uint64_t pn, sent_packet& sp);
  // Next retransmittable/new stream range up to mss, clipped against the
  // acked set; nullopt when there is nothing stream-wise to send.
  [[nodiscard]] std::optional<sent_range> next_stream_range();
  void arm_pto();
  void on_pto();
  void terminate(errc err);
  void maybe_finish_drain();
  void finish_close(errc err);
  [[nodiscard]] std::uint64_t advertised_max_data() const {
    return consumed_total_ + cfg_.recv_buffer;
  }
  [[nodiscard]] sim_time pto_interval() const;
  void note_pn_received(std::uint64_t pn);

  sim::simulator& sim_;
  nkq_config cfg_;
  std::uint64_t conn_id_;
  bool server_;
  std::uint64_t issue_token_;
  callbacks cb_;
  std::unique_ptr<tcp::congestion_controller> cc_;

  conn_state state_ = conn_state::connecting;
  bool resumed_ = false;
  bool confirmed_ = false;  // client: first accept/ack seen
  std::uint64_t client_token_ = 0;

  // --- send side -------------------------------------------------------------
  buffer_chain send_chain_;       // [send_base_, send_base_+size) unacked+unsent
  std::uint64_t send_base_ = 0;   // absolute offset of the chain front
  std::uint64_t stream_len_ = 0;  // absolute length the app has written
  std::uint64_t next_unsent_ = 0;
  bool fin_pending_ = false;
  bool draining_ = false;  // local close waiting for the send side to ack out
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  std::deque<sent_range> retx_queue_;
  std::map<std::uint64_t, std::uint64_t> acked_;  // merged [off, end) ranges
  std::map<std::uint64_t, sent_packet> sent_packets_;
  std::uint64_t next_pn_ = 0;
  std::uint64_t largest_acked_ = 0;
  bool any_acked_ = false;
  std::uint64_t bytes_in_flight_ = 0;
  std::uint64_t peer_max_data_;
  bool in_recovery_ = false;
  std::uint64_t recovery_end_pn_ = 0;

  // --- receive side ----------------------------------------------------------
  // Out-of-order stream data. Every range a sender puts on the wire is a
  // front-clipped piece of one first-transmission range, so overlapping
  // arrivals share their end and keep-first trimming never drops a byte
  // the packet-level ack covers. Its limit, recv_buffer, never binds: flow
  // control keeps every held byte inside the advertised window.
  tcp::reassembly_buffer reassembly_;
  std::uint64_t recv_next_ = 0;     // next in-order offset to deliver
  buffer_chain recv_chain_;         // in-order data awaiting the app
  std::uint64_t consumed_total_ = 0;
  std::optional<std::uint64_t> fin_offset_;
  std::uint64_t largest_pn_rx_ = 0;
  std::uint64_t pn_rx_bitmap_ = 0;
  bool any_pn_rx_ = false;
  bool ack_pending_ = false;
  std::uint64_t last_advertised_max_ = 0;

  // --- timing / cc -----------------------------------------------------------
  tcp::rtt_estimator rtt_;  // srtt/rttvar; its RTO is unused (PTO below)
  sim_time min_rtt_{};      // all-time minimum
  int pto_count_ = 0;
  sim::timer pto_timer_;
  sim::timer connected_timer_;  // a resumed connect's on_connected
  std::uint64_t delivered_ = 0;
  double delivery_rate_ = 0.0;
  std::uint64_t round_trips_ = 0;
  std::uint64_t round_end_pn_ = 0;

  connection_stats stats_;
};

}  // namespace nk::nkq
