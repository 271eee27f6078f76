// TCP connection state machine (transmission control block).
//
// One tcb is one connection: handshake, ordered reliable byte stream with
// flow control, NewReno loss recovery (fast retransmit / partial ACKs),
// RFC 6298 RTO, delayed ACKs (every second segment, at once for PSH and
// gap-filling segments, held for the reply on request/response flows),
// GSO-style transmit bursts, TCP Small Queues (at most two bursts of wire
// bytes below the stack), optional Nagle, optional pacing (driven by the
// congestion controller, e.g. BBR), ECN feedback for DCTCP, and full
// close/TIME_WAIT handling. Sequence tracking is in absolute 64-bit stream
// offsets (0 = SYN, 1 = first data byte); the wire carries 32-bit sequence
// numbers via tcp/seq.hpp.
//
// The tcb is transport only: demultiplexing, port allocation and listener
// sockets live in stack/netstack.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/result.hpp"
#include "net/packet.hpp"
#include "obs/flow_info.hpp"
#include "sim/simulator.hpp"
#include "tcp/cc/congestion_controller.hpp"
#include "tcp/reassembly.hpp"
#include "tcp/rtt_estimator.hpp"

namespace nk::tcp {

enum class tcp_state {
  closed,
  syn_sent,
  syn_received,
  established,
  fin_wait_1,
  fin_wait_2,
  close_wait,
  closing,
  last_ack,
  time_wait,
};

[[nodiscard]] std::string_view to_string(tcp_state s);

struct tcp_config {
  std::uint32_t mss = 1448;
  std::size_t send_buffer = 256 * 1024;
  std::size_t recv_buffer = 256 * 1024;
  cc_algorithm cc = cc_algorithm::cubic;
  bool nagle = false;  // bulk/RPC workloads here want it off
  // Longest an ACK is held for a second segment or for the reply. Must stay
  // below rto.min_rto, or the peer's RTO fires before a held ACK is sent.
  sim_time delayed_ack_timeout = milliseconds(25);
  rtt_estimator::config rto{};
};

struct tcp_stats {
  std::uint64_t bytes_sent = 0;       // first transmissions only
  std::uint64_t bytes_retransmitted = 0;
  std::uint64_t bytes_acked = 0;
  std::uint64_t bytes_received = 0;   // delivered to the app-side buffer
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t rtos = 0;
  std::uint64_t dup_acks_received = 0;
  std::uint64_t ecn_ce_received = 0;
  std::uint64_t sack_blocks_received = 0;
  std::uint64_t sack_loss_markings = 0;
};

class tcb {
 public:
  struct environment {
    sim::simulator* sim = nullptr;
    // Hands finished segments to the IP layer / nic below, in wire order;
    // the callee moves them out of the span. Each call is one burst: the
    // segments of one output pass (at most gso_max_bytes of wire bytes), or
    // a single segment sent on its own.
    std::function<void(std::span<net::packet>)> emit;
    // Socket-layer notifications.
    std::function<void()> on_connected;          // handshake done (active open)
    std::function<void()> on_accept_ready;       // handshake done (passive open)
    std::function<void()> on_readable;           // data or EOF became available
    std::function<void()> on_writable;           // send space freed or payload sent
    std::function<void(errc)> on_closed;         // fully closed / reset / timeout
  };

  // Largest transmit burst, in wire bytes (the Linux GSO limit): the output
  // path hands the stack its segments in bursts up to this size, and the
  // stack pays its per-packet cost once per burst.
  static constexpr std::size_t gso_max_bytes = 64 * 1024;
  // TCP Small Queues: the most wire bytes one connection may hold below
  // the stack — on the stack core's transmit queue, in the vSwitch and in
  // the host link's queue — until they finish serializing on the link.
  // Two bursts: one on the wire while the next is built behind it.
  static constexpr std::size_t tsq_limit_bytes = 2 * gso_max_bytes;

  tcb(environment env, tcp_config cfg, net::four_tuple tuple,
      std::uint32_t initial_seq);
  ~tcb();

  tcb(const tcb&) = delete;
  tcb& operator=(const tcb&) = delete;

  // --- opening -------------------------------------------------------------

  // Active open: transmit SYN.
  void connect();

  // Passive open: adopt a received SYN (stack-side listener calls this).
  void accept_from_syn(const net::packet& syn);

  // --- application data ----------------------------------------------------

  // Appends as much of `data` as fits in the send buffer; returns the number
  // of bytes accepted (0 with would_block if the buffer is full).
  result<std::size_t> send(buffer data);

  // Drains up to `max` bytes of in-order received data.
  buffer receive(std::size_t max);

  [[nodiscard]] std::size_t receive_available() const { return recvq_.size(); }
  [[nodiscard]] std::size_t send_space() const;
  // Payload bytes the peer has cumulatively acknowledged (SYN and FIN
  // excluded).
  [[nodiscard]] std::uint64_t acked_bytes() const { return sendq_base_ - 1; }
  // Payload bytes transmitted at least once (SYN and FIN excluded): an RTO
  // rewind of the send cursor does not lower it. An ACK that frees send
  // space, and an ACK or timer that advances sent_bytes(), raises
  // on_writable once, after the transmissions it caused.
  [[nodiscard]] std::uint64_t sent_bytes() const {
    std::uint64_t hi = std::max(snd_nxt_, rto_rewind_high_water_);
    if (fin_offset_valid_) hi = std::min(hi, fin_offset_);
    return hi > 0 ? hi - 1 : 0;
  }
  [[nodiscard]] bool eof_pending() const {
    return fin_received_ && recvq_.empty();
  }

  // --- closing -------------------------------------------------------------

  void shutdown_write();  // send FIN after pending data
  void close();           // shutdown write; discard future reads
  void abort();           // RST the peer, drop state immediately

  // --- from the network ----------------------------------------------------

  void segment_arrived(const net::packet& p);

  // --- introspection ---------------------------------------------------------

  [[nodiscard]] tcp_state state() const { return state_; }
  [[nodiscard]] const net::four_tuple& tuple() const { return tuple_; }
  [[nodiscard]] const tcp_stats& stats() const { return stats_; }
  [[nodiscard]] const tcp_config& config() const { return cfg_; }
  [[nodiscard]] congestion_controller& cc() { return *cc_; }
  [[nodiscard]] const rtt_estimator& rtt() const { return rtt_; }
  // Outstanding bytes the network may still hold: sent minus cumulatively
  // acked, minus SACKed, minus marked-lost-awaiting-retransmit.
  [[nodiscard]] std::uint64_t bytes_in_flight() const {
    const std::uint64_t gross = snd_nxt_ - snd_una_;
    const std::uint64_t deduct = sacked_bytes_ + lost_unretx_bytes_;
    return gross > deduct ? gross - deduct : 0;
  }
  [[nodiscard]] std::uint64_t cwnd_bytes() const { return cc_->cwnd_bytes(); }
  // Wire bytes emitted and not yet serialized on the host link (TSQ).
  [[nodiscard]] std::size_t tsq_queued_bytes() const {
    return tsq_->queued_bytes;
  }
  [[nodiscard]] bool ecn_active() const { return ecn_enabled_; }

  // Provider-side telemetry snapshot (paper §5 introspection): everything
  // the operator needs to diagnose this flow, in one plain record.
  [[nodiscard]] obs::nk_flow_info flow_info() const;

 private:
  struct sent_record {
    std::uint64_t start = 0;  // absolute stream offset (SYN=0, data from 1)
    std::uint64_t end = 0;    // one past the last occupied offset
    sim_time sent_at{};
    std::uint64_t delivered_at_send = 0;
    sim_time delivered_time_at_send{};
    bool retransmitted = false;
    bool app_limited = false;
    bool sacked = false;  // selectively acknowledged (RFC 2018)
    bool lost = false;    // marked lost by the SACK scoreboard, awaiting retx
  };

  // --- segment construction -------------------------------------------------
  net::packet make_segment(std::uint64_t seq_abs, net::tcp_flags flags,
                           buffer payload) const;
  // Queues a segment on the open burst (try_send) or emits it on its own.
  void emit_segment(net::packet p);
  void flush_burst();
  void send_control(net::tcp_flags flags);  // bare ACK / RST etc at snd_nxt

  // --- transmission ----------------------------------------------------------
  void try_send();
  // TSQ: true (and output marked throttled) when `bytes` more would take
  // this connection's queued wire bytes past tsq_limit_bytes.
  bool tsq_blocks(std::size_t bytes);
  void tsq_released();
  bool pacing_gate();  // true = allowed to send now
  void transmit_range(std::uint64_t start, std::uint64_t end, bool rtx);
  void retransmit_first_unacked();
  [[nodiscard]] std::uint64_t effective_window() const;
  [[nodiscard]] buffer payload_for(std::uint64_t start, std::uint64_t end) const;
  [[nodiscard]] bool fin_at(std::uint64_t off) const;
  [[nodiscard]] bool syn_at(std::uint64_t off) const { return off == 0; }

  // --- receive path ----------------------------------------------------------
  void handle_ack(const net::packet& p);
  // Raises on_writable if snd_una_ moved past `una_before` with send space
  // free, or sent_bytes() past `sent_before`.
  void report_send_progress(std::uint64_t una_before,
                            std::uint64_t sent_before);
  void process_sacks(const net::tcp_header& h);
  void retransmit_lost();
  void handle_payload(const net::packet& p, std::uint64_t seg_abs);
  void handle_fin(std::uint64_t fin_abs);
  void maybe_send_ack(bool immediate);
  void send_ack_now();
  [[nodiscard]] std::uint32_t advertised_window() const;
  void maybe_send_window_update();

  // --- timers ---------------------------------------------------------------
  void arm_rto();
  void cancel_rto();
  void on_rto_fired();
  void arm_persist();
  void on_persist_fired();
  void enter_time_wait();
  void become_closed(errc reason);

  // --- congestion feedback ----------------------------------------------------
  void ack_advanced(std::uint64_t newly_acked, const net::packet& p);
  [[nodiscard]] std::uint32_t now_ts() const;

  environment env_;
  tcp_config cfg_;
  net::four_tuple tuple_;
  tcp_state state_ = tcp_state::closed;
  std::unique_ptr<congestion_controller> cc_;
  rtt_estimator rtt_;
  min_rtt_tracker min_rtt_{};
  tcp_stats stats_;

  // Wire sequence bases.
  std::uint32_t iss_;        // our initial sequence number
  std::uint32_t irs_ = 0;    // peer's ISN (valid once SYN seen)

  // Send side (absolute offsets; 0 is SYN, data starts at 1).
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t snd_wnd_ = 0;       // peer's advertised window (bytes)
  buffer_chain sendq_;              // unacked + unsent payload bytes
  std::uint64_t sendq_base_ = 1;    // stream offset of sendq_ front
  std::deque<sent_record> inflight_;
  bool fin_queued_ = false;         // shutdown requested
  std::uint64_t fin_offset_ = 0;    // valid when fin_queued_ and sendq_ drained
  bool fin_offset_valid_ = false;
  int syn_retries_ = 0;

  // Receive side.
  std::uint64_t rcv_nxt_ = 0;
  reassembly_buffer reasm_;
  buffer_chain recvq_;
  bool fin_received_ = false;
  bool fin_seen_ = false;  // FIN observed, possibly beyond a reassembly gap
  std::uint64_t fin_abs_ = 0;
  std::uint32_t last_adv_wnd_ = 0;
  std::uint32_t pending_ack_segments_ = 0;
  // Request/response flow (Linux "pingpong" mode): set when fresh payload
  // goes out after payload came in, cleared when the delayed-ACK timer
  // fires. While set, short PSH segments get a delayed ACK.
  bool pingpong_ = false;
  std::uint32_t last_ts_val_ = 0;   // peer timestamp to echo
  // Rotating window over held ranges; presentation state only, advanced
  // even when composing segments (hence mutable in const make_segment).
  mutable std::size_t sack_rotation_ = 0;

  // Loss recovery.
  std::uint32_t dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recovery_point_ = 0;
  std::uint64_t rto_rewind_high_water_ = 0;  // highest snd_nxt before an RTO
  // SACK scoreboard.
  std::uint64_t sacked_bytes_ = 0;
  std::uint64_t lost_unretx_bytes_ = 0;
  std::uint64_t highest_sacked_ = 0;

  // Delivery-rate accounting (BBR-style).
  std::uint64_t delivered_ = 0;
  sim_time delivered_time_{};
  double last_delivery_rate_bps_ = 0.0;  // most recent valid rate sample
  std::uint64_t round_count_ = 0;
  std::uint64_t next_round_delivered_ = 0;
  bool app_limited_ = false;

  // ECN.
  bool ecn_requested_;
  bool ecn_enabled_ = false;
  bool ece_pending_ = false;  // echo CE back on outgoing ACKs

  // Transmit burst: segments try_send() has built but not yet emitted.
  std::vector<net::packet> burst_;
  std::size_t burst_bytes_ = 0;
  bool batching_ = false;  // try_send() is filling burst_

  // TCP Small Queues. Every emitted segment carries a ticket on tsq_; a
  // throttled output pass re-runs, from a fresh event, once a release
  // leaves room for a whole burst again.
  std::shared_ptr<net::tx_account> tsq_;
  bool tsq_throttled_ = false;
  sim::timer tsq_timer_;

  // Pacing.
  sim_time next_release_{};
  sim::timer pacing_timer_;

  sim::timer rto_timer_;
  sim::timer delack_timer_;
  sim::timer persist_timer_;
  sim::timer time_wait_timer_;
};

}  // namespace nk::tcp
