// White-box tcb tests: a single TCP control block driven with hand-crafted
// segments, no stack or network below it. Covers wire-level behaviours the
// loopback tests cannot isolate: exact flags, ECN negotiation bits, Karn's
// rule, zero-window probes, simultaneous close, timestamp echo.
#include <gtest/gtest.h>

#include <deque>
#include <span>

#include "tcp/seq.hpp"
#include "tcp/tcb.hpp"

namespace nk::tcp {
namespace {

constexpr std::uint32_t peer_isn = 9000;

// Harness: owns one tcb, captures everything it emits, and lets tests
// inject peer segments.
struct tcb_harness {
  explicit tcb_harness(tcp_config cfg = make_cfg()) {
    tcb::environment env;
    env.sim = &sim;
    env.emit = [this](std::span<net::packet> burst) {
      for (auto& p : burst) sent.push_back(std::move(p));
    };
    env.on_connected = [this] { connected = true; };
    env.on_readable = [this] { ++readable_events; };
    env.on_writable = [this] {
      ++writable_events;
      sent_at_writable = conn->sent_bytes();
    };
    env.on_closed = [this](errc reason) {
      closed = true;
      close_reason = reason;
    };
    net::four_tuple tuple{{net::ipv4_addr::from_octets(10, 0, 0, 1), 1000},
                          {net::ipv4_addr::from_octets(10, 0, 0, 2), 2000}};
    conn = std::make_unique<tcb>(std::move(env), cfg, tuple, /*iss=*/5000);
  }

  static tcp_config make_cfg() {
    tcp_config cfg;
    cfg.mss = 1000;
    cfg.cc = cc_algorithm::newreno;
    cfg.rto.min_rto = milliseconds(50);
    cfg.delayed_ack_timeout = milliseconds(5);
    return cfg;
  }

  // Builds a peer segment. seq/ack are the peer's absolute stream offsets
  // (peer ISN = peer_isn; our ISS = 5000).
  net::packet peer_segment(std::uint64_t seq_abs, std::uint64_t ack_abs,
                           net::tcp_flags flags, buffer payload = {},
                           std::uint32_t wnd = 1 << 20) {
    net::packet p;
    p.ip.src = net::ipv4_addr::from_octets(10, 0, 0, 2);
    p.ip.dst = net::ipv4_addr::from_octets(10, 0, 0, 1);
    net::tcp_header h;
    h.src_port = 2000;
    h.dst_port = 1000;
    h.seq = wrap_seq(seq_abs, peer_isn);
    if (flags.ack) h.ack = wrap_seq(ack_abs, 5000);
    h.flags = flags;
    h.wnd = wnd;
    p.l4 = h;
    p.payload = std::move(payload);
    return p;
  }

  // Completes the three-way handshake as the active opener; `ecn` has the
  // peer confirm ECN on its SYN-ACK.
  void establish(bool ecn = false) {
    conn->connect();
    sim.run_until(sim.now() + microseconds(10));
    ASSERT_FALSE(sent.empty());
    ASSERT_TRUE(sent.front().tcp().flags.syn);
    sent.clear();
    net::tcp_flags synack;
    synack.syn = true;
    synack.ack = true;
    synack.ece = ecn;
    conn->segment_arrived(peer_segment(0, 1, synack));
    sim.run_until(sim.now() + microseconds(10));
    ASSERT_TRUE(connected);
    sent.clear();
  }

  const net::packet& last_sent() const { return sent.back(); }

  sim::simulator sim;
  std::unique_ptr<tcb> conn;
  std::deque<net::packet> sent;
  bool connected = false;
  bool closed = false;
  errc close_reason = errc::ok;
  int readable_events = 0;
  int writable_events = 0;
  std::uint64_t sent_at_writable = 0;  // sent_bytes() at the last writable
};

TEST(tcb_wire, syn_carries_correct_iss_and_no_ack) {
  tcb_harness h;
  h.conn->connect();
  h.sim.run_until(microseconds(10));
  ASSERT_EQ(h.sent.size(), 1u);
  const auto& syn = h.sent[0].tcp();
  EXPECT_TRUE(syn.flags.syn);
  EXPECT_FALSE(syn.flags.ack);
  EXPECT_EQ(syn.seq, 5000u);
  EXPECT_EQ(h.conn->state(), tcp_state::syn_sent);
}

TEST(tcb_wire, handshake_ack_numbers_are_exact) {
  tcb_harness h;
  h.establish();
  // Send one data byte; the segment must carry seq = ISS+1, ack = IRS+1.
  ASSERT_TRUE(h.conn->send(buffer::pattern(1, 0)).ok());
  h.sim.run_until(h.sim.now() + microseconds(10));
  ASSERT_FALSE(h.sent.empty());
  const auto& d = h.last_sent().tcp();
  EXPECT_EQ(d.seq, 5001u);
  EXPECT_EQ(d.ack, peer_isn + 1);
  EXPECT_TRUE(d.flags.psh);
}

TEST(tcb_wire, timestamps_echo_peer_ts_val) {
  tcb_harness h;
  h.establish();
  net::tcp_flags ack;
  ack.ack = true;
  auto seg = h.peer_segment(1, 1, ack, buffer::pattern(100, 0));
  seg.tcp().ts_val = 0xdeadbeef;
  h.conn->segment_arrived(seg);
  h.sim.run_until(h.sim.now() + milliseconds(10));
  ASSERT_FALSE(h.sent.empty());
  EXPECT_EQ(h.last_sent().tcp().ts_ecr, 0xdeadbeef);
}

TEST(tcb_wire, rst_tears_down_immediately) {
  tcb_harness h;
  h.establish();
  net::tcp_flags rst;
  rst.rst = true;
  h.conn->segment_arrived(h.peer_segment(1, 1, rst));
  EXPECT_TRUE(h.closed);
  EXPECT_EQ(h.close_reason, errc::connection_reset);
  EXPECT_EQ(h.conn->state(), tcp_state::closed);
}

TEST(tcb_wire, abort_emits_rst) {
  tcb_harness h;
  h.establish();
  h.conn->abort();
  ASSERT_FALSE(h.sent.empty());
  EXPECT_TRUE(h.last_sent().tcp().flags.rst);
  EXPECT_TRUE(h.closed);
}

TEST(tcb_karn, no_rtt_sample_from_retransmission) {
  tcb_harness h;
  h.establish();
  ASSERT_TRUE(h.conn->send(buffer::pattern(1000, 0)).ok());
  h.sim.run_until(h.sim.now() + microseconds(10));
  const sim_time srtt_before = h.conn->rtt().srtt();

  // Let the RTO fire (segment "lost"), then ack the retransmission much
  // later. Karn: the late ack must not poison srtt.
  h.sim.run_until(h.sim.now() + seconds(2));
  EXPECT_GT(h.conn->stats().rtos, 0u);
  net::tcp_flags ack;
  ack.ack = true;
  h.conn->segment_arrived(h.peer_segment(1, 1001, ack));
  // srtt unchanged (no valid sample was available in this exchange).
  EXPECT_EQ(h.conn->rtt().srtt(), srtt_before);
}

TEST(tcb_zero_window, probe_carries_one_byte) {
  tcb_harness h;
  h.establish();
  // Peer closes its window entirely.
  net::tcp_flags ack;
  ack.ack = true;
  h.conn->segment_arrived(h.peer_segment(1, 1, ack, {}, /*wnd=*/0));
  ASSERT_TRUE(h.conn->send(buffer::pattern(5000, 0)).ok());
  h.sent.clear();
  // Persist timer fires within a few RTOs.
  h.sim.run_until(h.sim.now() + seconds(3));
  ASSERT_FALSE(h.sent.empty());
  bool saw_probe = false;
  for (const auto& p : h.sent) {
    if (p.payload.size() == 1) saw_probe = true;
  }
  EXPECT_TRUE(saw_probe);

  // Window reopens: transfer resumes in full segments.
  h.sent.clear();
  std::uint64_t acked = h.conn->stats().bytes_acked;
  h.conn->segment_arrived(h.peer_segment(1, 1 + acked, ack, {}, 1 << 20));
  h.sim.run_until(h.sim.now() + milliseconds(10));
  EXPECT_FALSE(h.sent.empty());
  EXPECT_EQ(h.sent.front().payload.size(), 1000u);
}

TEST(tcb_close, simultaneous_close_reaches_closed) {
  tcb_harness h;
  h.establish();
  h.conn->close();  // our FIN goes out
  h.sim.run_until(h.sim.now() + microseconds(10));
  ASSERT_TRUE(h.last_sent().tcp().flags.fin);
  EXPECT_EQ(h.conn->state(), tcp_state::fin_wait_1);

  // Peer's FIN crosses ours (acks only our SYN-era data, not the FIN).
  net::tcp_flags fin;
  fin.fin = true;
  fin.ack = true;
  h.conn->segment_arrived(h.peer_segment(1, 1, fin));
  EXPECT_EQ(h.conn->state(), tcp_state::closing);

  // Now the peer acks our FIN: TIME_WAIT, then closed after the timeout.
  net::tcp_flags ack;
  ack.ack = true;
  h.conn->segment_arrived(h.peer_segment(2, 2, ack));
  EXPECT_EQ(h.conn->state(), tcp_state::time_wait);
  h.sim.run_until(h.sim.now() + seconds(2));
  EXPECT_TRUE(h.closed);
  EXPECT_EQ(h.close_reason, errc::ok);
}

TEST(tcb_close, half_close_still_receives) {
  tcb_harness h;
  h.establish();
  h.conn->shutdown_write();
  h.sim.run_until(h.sim.now() + microseconds(10));
  EXPECT_EQ(h.conn->state(), tcp_state::fin_wait_1);

  // Peer acks the FIN, then keeps sending data: we must accept and ack it.
  net::tcp_flags ack;
  ack.ack = true;
  h.conn->segment_arrived(h.peer_segment(1, 2, ack));
  EXPECT_EQ(h.conn->state(), tcp_state::fin_wait_2);
  h.conn->segment_arrived(h.peer_segment(1, 2, ack, buffer::pattern(500, 0)));
  h.sim.run_until(h.sim.now() + milliseconds(10));
  EXPECT_EQ(h.conn->receive_available(), 500u);
  EXPECT_TRUE(h.conn->receive(500).matches_pattern(0));
}

TEST(tcb_recv, out_of_order_acks_carry_sack_blocks) {
  tcb_harness h;
  h.establish();
  net::tcp_flags ack;
  ack.ack = true;
  // Peer data arrives with a hole: bytes [1001,2001) but not [1,1001).
  h.conn->segment_arrived(
      h.peer_segment(1001, 1, ack, buffer::pattern(1000, 1000)));
  h.sim.run_until(h.sim.now() + milliseconds(10));
  ASSERT_FALSE(h.sent.empty());
  const auto& out = h.last_sent().tcp();
  ASSERT_GE(out.sack_count, 1);
  // The SACK block names the held range in the peer's sequence space.
  EXPECT_EQ(out.sacks[0].start, wrap_seq(1001, peer_isn));
  EXPECT_EQ(out.sacks[0].end, wrap_seq(2001, peer_isn));
}

TEST(tcb_recv, duplicate_fin_is_reacked_not_reprocessed) {
  tcb_harness h;
  h.establish();
  net::tcp_flags fin;
  fin.fin = true;
  fin.ack = true;
  h.conn->segment_arrived(h.peer_segment(1, 1, fin));
  EXPECT_EQ(h.conn->state(), tcp_state::close_wait);
  const int readable_before = h.readable_events;
  h.sent.clear();
  h.conn->segment_arrived(h.peer_segment(1, 1, fin));  // retransmitted FIN
  EXPECT_EQ(h.conn->state(), tcp_state::close_wait);
  EXPECT_EQ(h.readable_events, readable_before);  // EOF reported once
  EXPECT_FALSE(h.sent.empty());                   // but re-acked
}

TEST(tcb_ecn, dctcp_negotiates_and_echoes_ce) {
  tcp_config cfg = tcb_harness::make_cfg();
  cfg.cc = cc_algorithm::dctcp;
  tcb_harness h{cfg};
  h.conn->connect();
  h.sim.run_until(microseconds(10));
  // SYN must request ECN (ECE+CWR).
  EXPECT_TRUE(h.sent.front().tcp().flags.ece);
  EXPECT_TRUE(h.sent.front().tcp().flags.cwr);
  h.sent.clear();

  net::tcp_flags synack;
  synack.syn = true;
  synack.ack = true;
  synack.ece = true;  // peer confirms ECN
  h.conn->segment_arrived(h.peer_segment(0, 1, synack));
  h.sim.run_until(h.sim.now() + microseconds(10));
  ASSERT_TRUE(h.conn->ecn_active());

  // A CE-marked data segment arrives: the ACK must carry ECE.
  net::tcp_flags ack;
  ack.ack = true;
  auto seg = h.peer_segment(1, 1, ack, buffer::pattern(100, 0));
  seg.ip.ecn = net::ecn_codepoint::ce;
  h.sent.clear();
  h.conn->segment_arrived(seg);
  h.sim.run_until(h.sim.now() + milliseconds(10));
  ASSERT_FALSE(h.sent.empty());
  EXPECT_TRUE(h.last_sent().tcp().flags.ece);

  // Our own data segments are ECT(0)-marked.
  ASSERT_TRUE(h.conn->send(buffer::pattern(100, 0)).ok());
  h.sim.run_until(h.sim.now() + microseconds(10));
  EXPECT_EQ(h.last_sent().ip.ecn, net::ecn_codepoint::ect0);
}

TEST(tcb_ecn, one_ce_mark_is_echoed_on_one_reply) {
  tcp_config cfg = tcb_harness::make_cfg();
  cfg.cc = cc_algorithm::dctcp;
  tcb_harness h{cfg};
  h.establish(/*ecn=*/true);
  ASSERT_TRUE(h.conn->ecn_active());

  // Ping-pong of 100 B requests and replies; only request 2 is CE-marked.
  // From the first reply on, each reply carries the ACK of its request, so
  // no pure ACK ever clears the pending echo.
  constexpr std::uint64_t size = 100;
  int echoed = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    net::tcp_flags flags;
    flags.ack = true;
    flags.psh = true;
    auto req = h.peer_segment(1 + size * i, 1 + size * i, flags,
                              buffer::pattern(size, size * i));
    if (i == 2) req.ip.ecn = net::ecn_codepoint::ce;
    h.sent.clear();
    h.conn->segment_arrived(req);
    ASSERT_EQ(h.conn->receive(size).size(), size);
    ASSERT_TRUE(h.conn->send(buffer::pattern(size, size * i)).ok());
    h.sim.run_until(h.sim.now() + microseconds(10));
    ASSERT_FALSE(h.sent.empty());
    const auto& reply = h.last_sent();
    ASSERT_EQ(reply.payload.size(), size);
    EXPECT_EQ(reply.tcp().flags.ece, i == 2) << "reply " << i;
    for (const auto& p : h.sent) echoed += p.tcp().flags.ece ? 1 : 0;
  }
  EXPECT_EQ(echoed, 1);
}

TEST(tcb_ecn, plain_cubic_does_not_negotiate) {
  tcb_harness h;  // newreno, no ECN
  h.conn->connect();
  h.sim.run_until(microseconds(10));
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_FALSE(h.sent.front().tcp().flags.ece);
  EXPECT_FALSE(h.sent.front().tcp().flags.cwr);

  net::tcp_flags synack;
  synack.syn = true;
  synack.ack = true;
  h.conn->segment_arrived(h.peer_segment(0, 1, synack));
  h.sim.run_until(h.sim.now() + microseconds(10));
  ASSERT_TRUE(h.connected);
  EXPECT_FALSE(h.conn->ecn_active());
}

TEST(tcb_buffers, send_respects_buffer_capacity) {
  tcp_config cfg = tcb_harness::make_cfg();
  cfg.send_buffer = 4000;
  tcb_harness h{cfg};
  h.establish();
  auto r = h.conn->send(buffer::pattern(10000, 0));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 4000u);
  EXPECT_EQ(h.conn->send_space(), 0u);
  EXPECT_EQ(h.conn->send(buffer::pattern(1, 0)).error(), errc::would_block);
}

TEST(tcb_buffers, send_after_shutdown_rejected) {
  tcb_harness h;
  h.establish();
  h.conn->shutdown_write();
  EXPECT_EQ(h.conn->send(buffer::pattern(10, 0)).error(), errc::closed);
}

TEST(tcb_sent_bytes, excludes_syn_and_fin_and_survives_an_rto_rewind) {
  tcb_harness h;
  h.establish();
  EXPECT_EQ(h.conn->sent_bytes(), 0u);  // the SYN is not payload
  ASSERT_EQ(h.conn->send(buffer::pattern(5000, 0)).value(), 5000u);
  h.sim.run_until(h.sim.now() + microseconds(10));
  EXPECT_EQ(h.conn->sent_bytes(), 5000u);

  // The first segment is acknowledged, the rest is lost: the RTO rewinds
  // the send cursor to the hole (go-back-N), and sent_bytes stays put.
  net::tcp_flags ack;
  ack.ack = true;
  h.conn->segment_arrived(h.peer_segment(1, 1001, ack));
  h.sent.clear();
  h.sim.run_until(h.sim.now() + milliseconds(60));
  ASSERT_EQ(h.conn->stats().rtos, 1u);
  ASSERT_FALSE(h.sent.empty());
  EXPECT_EQ(h.sent.front().tcp().seq, wrap_seq(1001, 5000));
  EXPECT_EQ(h.conn->bytes_in_flight(), 1000u);  // the cursor went back
  EXPECT_EQ(h.conn->sent_bytes(), 5000u);

  // Everything acknowledged, then the FIN goes out: it is not payload.
  h.conn->segment_arrived(h.peer_segment(1, 5001, ack));
  h.sent.clear();
  h.conn->shutdown_write();
  h.sim.run_until(h.sim.now() + microseconds(10));
  ASSERT_FALSE(h.sent.empty());
  EXPECT_TRUE(h.last_sent().tcp().flags.fin);
  EXPECT_EQ(h.conn->sent_bytes(), 5000u);
  h.conn->segment_arrived(h.peer_segment(1, 5002, ack));
  EXPECT_EQ(h.conn->acked_bytes(), 5000u);
  EXPECT_EQ(h.conn->sent_bytes(), 5000u);
}

// An ACK's writable is raised after the transmissions it clocked out, so a
// listener sees the acknowledged and the newly sent bytes together.
TEST(tcb_sent_bytes, writable_follows_the_ack_clocked_transmissions) {
  tcb_harness h;
  h.establish();
  ASSERT_EQ(h.conn->send(buffer::pattern(50000, 0)).value(), 50000u);
  h.sim.run_until(h.sim.now() + microseconds(10));
  const std::uint64_t first_flight = h.conn->sent_bytes();
  ASSERT_GT(first_flight, 0u);
  ASSERT_LT(first_flight, 50000u);  // the initial window binds
  net::tcp_flags ack;
  ack.ack = true;
  h.conn->segment_arrived(h.peer_segment(1, 2001, ack));
  EXPECT_GT(h.conn->sent_bytes(), first_flight);
  EXPECT_EQ(h.sent_at_writable, h.conn->sent_bytes());
}

// TCP Small Queues. With 16 000-byte segments the 10-segment initial window
// (160 000 B) is more than tsq_limit_bytes, and the harness holds every
// emitted frame, so the frames' tickets keep their bytes below the stack.
// Output stops before a frame would cross the limit and, with no ACK,
// resumes only once released tickets leave room for a whole burst.
TEST(tcb_tsq, released_tickets_wake_output_without_an_ack) {
  constexpr std::uint64_t mss = 16000;
  tcp_config cfg = tcb_harness::make_cfg();
  cfg.mss = mss;
  tcb_harness h{cfg};
  h.establish();
  ASSERT_EQ(h.conn->send(buffer::pattern(10 * mss, 0)).value(), 10 * mss);
  h.sim.run_until(h.sim.now() + microseconds(10));
  const std::size_t first = h.sent.size();
  ASSERT_GT(first, 0u);
  ASSERT_LT(first, 10u);
  std::size_t held = 0;
  for (const auto& p : h.sent) held += p.wire_size();
  EXPECT_EQ(h.conn->tsq_queued_bytes(), held);
  EXPECT_LE(held, tcb::tsq_limit_bytes);
  EXPECT_GT(held + h.sent.front().wire_size(), tcb::tsq_limit_bytes);
  EXPECT_EQ(h.conn->sent_bytes(), first * mss);

  // Frames leave the host one at a time, oldest first: output stays
  // stopped while a whole burst would not fit.
  const int writable_before = h.writable_events;
  while (true) {
    h.sent.pop_front();
    const bool room = h.conn->tsq_queued_bytes() + tcb::gso_max_bytes <=
                      tcb::tsq_limit_bytes;
    EXPECT_EQ(h.conn->sent_bytes(), first * mss);  // never from the release
    h.sim.run_until(h.sim.now() + microseconds(10));
    if (room) break;
    ASSERT_EQ(h.conn->sent_bytes(), first * mss);
  }
  // The release that made room re-ran output from a fresh event and
  // reported the transmitted bytes.
  EXPECT_EQ(h.conn->sent_bytes(), 10 * mss);
  EXPECT_GT(h.writable_events, writable_before);
  EXPECT_EQ(h.sent_at_writable, 10 * mss);
}

// A copied frame holds nothing; the original's ticket is released when it
// is destroyed, and only once.
TEST(tcb_tsq, copied_frames_hold_no_bytes) {
  tcb_harness h;
  h.establish();
  ASSERT_TRUE(h.conn->send(buffer::pattern(3000, 0)).ok());
  h.sim.run_until(h.sim.now() + microseconds(10));
  ASSERT_FALSE(h.sent.empty());
  const std::size_t held = h.conn->tsq_queued_bytes();
  ASSERT_GT(held, 0u);
  std::vector<net::packet> copies{h.sent.begin(), h.sent.end()};
  EXPECT_EQ(h.conn->tsq_queued_bytes(), held);
  copies.clear();
  EXPECT_EQ(h.conn->tsq_queued_bytes(), held);
  h.sent.clear();
  EXPECT_EQ(h.conn->tsq_queued_bytes(), 0u);
}

}  // namespace
}  // namespace nk::tcp
