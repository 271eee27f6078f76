// TCP state-machine and end-to-end behaviour tests on the loopback rig,
// plus unit tests for the TCP helpers (sequence math, RTT estimation,
// reassembly).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "sim/cpu_core.hpp"
#include "tcp/reassembly.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/seq.hpp"
#include "util/loopback.hpp"

namespace nk {
namespace {

using stack::socket_event_type;
using test::lan_params;
using test::loopback;

// --- helpers -------------------------------------------------------------------------

struct sink_state {
  stack::socket_id listener = 0;
  stack::socket_id conn = 0;
  buffer_chain received;
  bool saw_eof = false;
};

// Installs a byte sink on stack `st` listening at `port`.
void install_sink(stack::netstack& st, std::uint16_t port, sink_state& state) {
  state.listener = st.listen(port).value();
  st.set_event_handler([&st, &state](const stack::socket_event& ev) {
    if (ev.type == socket_event_type::accept_ready) {
      if (auto r = st.accept(state.listener)) state.conn = r.value();
      return;
    }
    if (ev.type == socket_event_type::readable && ev.sock == state.conn) {
      while (true) {
        auto r = st.recv(state.conn, 1 << 20);
        if (!r) {
          if (r.error() == errc::closed) state.saw_eof = true;
          break;
        }
        state.received.append(std::move(r).value());
      }
    }
  });
}

// Records the frames on the wire: those stack a hands to the link (a→b),
// stamped when its nic transmits them, and those the link delivers back to
// it (b→a). `drop` may discard an a→b frame before it reaches the link.
struct wire_tap {
  struct frame {
    sim_time at;
    net::packet p;
  };
  std::vector<frame> a_to_b;
  std::vector<frame> b_to_a;
  std::function<bool(const net::packet&)> drop;

  explicit wire_tap(loopback& net) {
    net.nic_a.attach_tx([this, &net](net::packet p) {
      if (drop && drop(p)) return;
      a_to_b.push_back({net.sim.now(), p});
      net.cable.forward().send(std::move(p));
    });
    net.cable.backward().set_sink([this, &net](net::packet p) {
      b_to_a.push_back({net.sim.now(), p});
      net.nic_a.receive(std::move(p));
    });
  }

  [[nodiscard]] std::vector<frame> data_frames() const {
    std::vector<frame> out;
    for (const auto& f : a_to_b) {
      if (!f.p.payload.empty()) out.push_back(f);
    }
    return out;
  }
};

// --- handshake / teardown ---------------------------------------------------------------

TEST(tcp_handshake, connects_and_reports_events) {
  loopback net{lan_params()};
  sink_state sink;
  install_sink(net.b, 5001, sink);

  bool connected = false;
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.a.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock == conn && ev.type == socket_event_type::connected) {
      connected = true;
    }
  });

  net.run_for(milliseconds(10));
  EXPECT_TRUE(connected);
  ASSERT_NE(sink.conn, 0u);
  EXPECT_EQ(net.a.tcb_of(conn)->state(), tcp::tcp_state::established);
  EXPECT_EQ(net.b.tcb_of(sink.conn)->state(), tcp::tcp_state::established);
}

TEST(tcp_handshake, connect_to_closed_port_is_refused) {
  loopback net{lan_params()};
  const auto conn = net.a.connect(net.addr_b(4444)).value();
  errc err = errc::ok;
  net.a.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock == conn && ev.type == socket_event_type::error) {
      err = ev.error;
    }
  });
  net.run_for(milliseconds(50));
  EXPECT_EQ(err, errc::connection_refused);
  EXPECT_GT(net.b.stats().resets_sent, 0u);
}

TEST(tcp_handshake, syn_timeout_when_peer_unreachable) {
  auto params = lan_params();
  params.wire.loss_rate = 1.0;  // black hole
  loopback net{params};

  const auto conn = net.a.connect(net.addr_b(5001)).value();
  errc err = errc::ok;
  net.a.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock == conn && ev.type == socket_event_type::error) {
      err = ev.error;
    }
  });
  // Six SYN retransmissions after RTOs of 1, 2, 4, 8, 16 and 32 s; the
  // seventh RTO (capped at 60 s) gives up at 123 s.
  net.run_for(seconds(122));
  EXPECT_EQ(err, errc::ok);
  net.run_for(seconds(2));
  EXPECT_EQ(err, errc::timed_out);
}

TEST(tcp_close, fin_handshake_reaches_closed_and_signals_eof) {
  loopback net{lan_params()};
  sink_state sink;
  install_sink(net.b, 5001, sink);

  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));
  ASSERT_TRUE(net.a.send(conn, buffer::pattern(1000, 0)).ok());
  net.run_for(milliseconds(5));
  ASSERT_TRUE(net.a.close(conn).ok());
  net.run_for(milliseconds(20));

  EXPECT_TRUE(sink.saw_eof);
  EXPECT_EQ(sink.received.size(), 1000u);
  // The passive side should close too once it calls close(); do that now.
  ASSERT_TRUE(net.b.close(sink.conn).ok());
  net.run_for(seconds(2));
  // Both endpoints are gone from their stacks (reaped after TIME_WAIT).
  EXPECT_EQ(net.a.tcb_of(conn), nullptr);
  EXPECT_EQ(net.b.tcb_of(sink.conn), nullptr);
}

TEST(tcp_close, abort_sends_rst) {
  loopback net{lan_params()};
  sink_state sink;
  install_sink(net.b, 5001, sink);
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));

  errc remote_err = errc::ok;
  net.b.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.type == socket_event_type::error) remote_err = ev.error;
  });
  ASSERT_TRUE(net.a.abort(conn).ok());
  net.run_for(milliseconds(5));
  EXPECT_EQ(remote_err, errc::connection_reset);
}

// --- data transfer ---------------------------------------------------------------------

TEST(tcp_transfer, small_message_delivered_exactly) {
  loopback net{lan_params()};
  sink_state sink;
  install_sink(net.b, 5001, sink);
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));
  ASSERT_TRUE(net.a.send(conn, buffer::pattern(12345, 0)).ok());
  net.run_for(milliseconds(50));
  EXPECT_EQ(sink.received.size(), 12345u);
  EXPECT_TRUE(sink.received.pop(12345).matches_pattern(0));
}

TEST(tcp_transfer, multi_megabyte_clean_link) {
  loopback net{lan_params()};
  sink_state sink;
  install_sink(net.b, 5001, sink);
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));

  constexpr std::uint64_t total = 8 * 1024 * 1024;
  std::uint64_t queued = 0;
  // Keep the send buffer topped up from writable events.
  auto push = [&] {
    while (queued < total) {
      const std::size_t n =
          std::min<std::uint64_t>(64 * 1024, total - queued);
      auto r = net.a.send(conn, buffer::pattern(n, queued));
      if (!r) break;
      queued += r.value();
    }
  };
  net.a.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock == conn && ev.type == socket_event_type::writable) push();
  });
  push();
  net.run_for(seconds(2));

  EXPECT_EQ(sink.received.size(), total);
  EXPECT_TRUE(sink.received.pop(total).matches_pattern(0));
  // 8 MB in 2 s needs > 32 Mb/s: trivially met at 10 Gb/s unless broken.
  EXPECT_EQ(net.a.tcb_of(conn)->stats().rtos, 0u);
}

TEST(tcp_transfer, survives_heavy_loss_with_integrity) {
  auto params = lan_params(99);
  params.forward_loss = 0.05;  // 5% data-direction loss
  loopback net{params};
  sink_state sink;
  install_sink(net.b, 5001, sink);
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(20));

  constexpr std::uint64_t total = 512 * 1024;
  std::uint64_t queued = 0;
  auto push = [&] {
    while (queued < total) {
      const std::size_t n = std::min<std::uint64_t>(32 * 1024, total - queued);
      auto r = net.a.send(conn, buffer::pattern(n, queued));
      if (!r) break;
      queued += r.value();
    }
  };
  net.a.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock == conn && ev.type == socket_event_type::writable) push();
  });
  push();
  net.run_for(seconds(30));

  ASSERT_EQ(sink.received.size(), total);
  EXPECT_TRUE(sink.received.pop(total).matches_pattern(0));
  const auto& st = net.a.tcb_of(conn)->stats();
  EXPECT_GT(st.bytes_retransmitted, 0u);
}

TEST(tcp_transfer, bidirectional_streams_do_not_interfere) {
  loopback net{lan_params()};
  sink_state sink_b;
  install_sink(net.b, 5001, sink_b);
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));

  // b echoes nothing; instead both sides just send independent patterns.
  buffer_chain received_a;
  net.a.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock == conn && ev.type == socket_event_type::readable) {
      while (auto r = net.a.recv(conn, 1 << 20)) {
        received_a.append(std::move(r).value());
      }
    }
  });

  ASSERT_TRUE(net.a.send(conn, buffer::pattern(100000, 0)).ok());
  ASSERT_TRUE(net.b.send(sink_b.conn, buffer::pattern(100000, 0)).ok());
  net.run_for(milliseconds(200));

  EXPECT_EQ(sink_b.received.size(), 100000u);
  EXPECT_EQ(received_a.size(), 100000u);
  EXPECT_TRUE(received_a.pop(100000).matches_pattern(0));
}

TEST(tcp_flow_control, zero_window_stalls_then_resumes) {
  auto params = lan_params();
  tcp::tcp_config small = params.tcp_b;
  small.recv_buffer = 16 * 1024;  // tiny receiver
  params.tcp_b = small;
  loopback net{params};

  // Receiver that does NOT read until told to.
  auto listener = net.b.listen(5001).value();
  stack::socket_id server_conn = 0;
  net.b.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.type == socket_event_type::accept_ready) {
      server_conn = net.b.accept(listener).value();
    }
  });

  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));

  std::uint64_t queued = 0;
  constexpr std::uint64_t total = 256 * 1024;
  auto push = [&] {
    while (queued < total) {
      auto r = net.a.send(conn, buffer::pattern(16 * 1024, queued));
      if (!r) break;
      queued += r.value();
    }
  };
  net.a.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock == conn && ev.type == socket_event_type::writable) push();
  });
  push();
  net.run_for(milliseconds(200));

  // Receiver never read: delivery is limited to roughly its buffer.
  const std::uint64_t acked_before = net.a.tcb_of(conn)->stats().bytes_acked;
  EXPECT_LT(acked_before, 64 * 1024u);

  // Now drain the receiver continuously; the window reopens and the rest
  // flows.
  buffer_chain received;
  net.b.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock == server_conn && ev.type == socket_event_type::readable) {
      while (auto r = net.b.recv(server_conn, 1 << 20)) {
        received.append(std::move(r).value());
      }
    }
  });
  // Kick the drain (data is already buffered).
  while (auto r = net.b.recv(server_conn, 1 << 20)) {
    received.append(std::move(r).value());
  }
  net.run_for(seconds(10));
  EXPECT_EQ(received.size() , total);
  EXPECT_TRUE(received.pop(total).matches_pattern(0));
}

TEST(tcp_acks, delayed_acks_reduce_ack_traffic) {
  loopback net{lan_params()};
  sink_state sink;
  install_sink(net.b, 5001, sink);
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));
  ASSERT_TRUE(net.a.send(conn, buffer::pattern(200000, 0)).ok());
  net.run_for(milliseconds(100));

  const auto& tx = net.a.tcb_of(conn)->stats();
  // The receiver of this one-way flow ACKs every second data segment.
  EXPECT_LT(tx.segments_received, tx.segments_sent);
}

// Echo peer on `st` at `port`: reads every request and, while `answer` is
// set, writes it straight back.
struct echo_state {
  stack::socket_id listener = 0;
  stack::socket_id conn = 0;
  bool answer = true;
  sim_time last_request_at{};  // when the latest request became readable
};

void install_echo(stack::netstack& st, const sim::simulator& sim,
                  std::uint16_t port, echo_state& state) {
  state.listener = st.listen(port).value();
  st.set_event_handler([&st, &sim, &state](const stack::socket_event& ev) {
    if (ev.type == socket_event_type::accept_ready) {
      if (auto r = st.accept(state.listener)) state.conn = r.value();
      return;
    }
    if (ev.type != socket_event_type::readable || ev.sock != state.conn) {
      return;
    }
    while (auto r = st.recv(state.conn, 1 << 20)) {
      state.last_request_at = sim.now();
      if (state.answer) {
        ASSERT_TRUE(st.send(state.conn, std::move(r).value()).ok());
      }
    }
  });
}

// Segments a side sends besides its requests or replies: SYN and handshake
// ACK (or the SYN-ACK), a quick ACK in the first exchange, before the flow
// is known to be interactive, and the timed-out ACK of the last reply.
constexpr std::uint64_t overhead_segments = 4;

TEST(tcp_acks, echo_replies_carry_the_acks) {
  loopback net{lan_params()};
  echo_state echo;
  install_echo(net.b, net.sim, 5001, echo);
  const auto conn = net.a.connect(net.addr_b(5001)).value();

  constexpr int exchanges = 100;
  constexpr std::size_t request_size = 64;
  int sent = 0;
  buffer_chain replies;
  const auto send_next = [&] {
    ASSERT_TRUE(net.a.send(conn, buffer::pattern(request_size,
                                                 request_size * sent))
                    .ok());
    ++sent;
  };
  net.a.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock != conn) return;
    if (ev.type == socket_event_type::connected) {
      send_next();
      return;
    }
    if (ev.type != socket_event_type::readable) return;
    while (auto r = net.a.recv(conn, 1 << 20)) {
      replies.append(std::move(r).value());
    }
    if (replies.size() < request_size * sent) return;
    if (sent < exchanges) send_next();
  });
  net.run_for(milliseconds(100));

  ASSERT_EQ(sent, exchanges);
  ASSERT_EQ(replies.size(), request_size * exchanges);
  EXPECT_TRUE(replies.pop(request_size * exchanges).matches_pattern(0));
  // Each reply carries the ACK of its request and each next request the
  // ACK of the reply: no pure ACK per exchange in either direction.
  const auto& client = net.a.tcb_of(conn)->stats();
  const auto& server = net.b.tcb_of(echo.conn)->stats();
  EXPECT_LE(client.segments_sent, exchanges + overhead_segments);
  EXPECT_LE(server.segments_sent, exchanges + overhead_segments);
  EXPECT_EQ(client.rtos, 0u);
  EXPECT_EQ(server.rtos, 0u);
}

TEST(tcp_acks, unanswered_request_is_acked_after_the_timeout) {
  const auto params = lan_params();
  const sim_time timeout = params.tcp_b.delayed_ack_timeout;
  loopback net{params};
  echo_state echo;
  install_echo(net.b, net.sim, 5001, echo);
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));

  // Two answered exchanges: the server has replied, so its flow is
  // interactive.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(net.a.send(conn, buffer::pattern(64, 64ull * i)).ok());
    net.run_for(milliseconds(5));
  }
  const auto& client = net.a.tcb_of(conn)->stats();
  const auto& server = net.b.tcb_of(echo.conn)->stats();
  const std::uint64_t acked_before = client.bytes_acked;

  // The app never answers this request: its ACK goes out exactly one
  // delayed-ACK timeout after the request arrived.
  echo.answer = false;
  ASSERT_TRUE(net.a.send(conn, buffer::pattern(64, 128)).ok());
  net.run_for(microseconds(100));
  const sim_time arrived = echo.last_request_at;
  const std::uint64_t sent_before = server.segments_sent;
  net.sim.run_until(arrived + timeout - nanoseconds(1));
  EXPECT_EQ(server.segments_sent, sent_before);
  net.sim.run_until(arrived + timeout);
  EXPECT_EQ(server.segments_sent, sent_before + 1);
  net.run_for(milliseconds(10));
  EXPECT_EQ(client.bytes_acked, acked_before + 64);
  EXPECT_EQ(client.rtos, 0u);

  // The timer put the server back on quick ACKs: the next request is ACKed
  // on arrival, well inside the timeout.
  ASSERT_TRUE(net.a.send(conn, buffer::pattern(64, 192)).ok());
  net.run_for(microseconds(100));
  EXPECT_EQ(server.segments_sent, sent_before + 2);
  EXPECT_EQ(client.bytes_acked, acked_before + 128);
}

TEST(tcp_acks, one_way_bulk_acks_every_second_segment) {
  const auto params = lan_params();
  loopback net{params};
  sink_state sink;
  install_sink(net.b, 5001, sink);
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));
  constexpr std::size_t total = 200000;
  ASSERT_TRUE(net.a.send(conn, buffer::pattern(total, 0)).ok());
  net.run_for(milliseconds(100));
  ASSERT_EQ(sink.received.size(), total);

  // Only the last data segment empties the sender's queue, so only it
  // carries PSH: the receiver ACKs every second segment and the last.
  const std::uint64_t data_segments =
      (total + params.tcp_a.mss - 1) / params.tcp_a.mss;
  const auto& rx = net.b.tcb_of(sink.conn)->stats();
  // The listener consumes the SYN; the tcb counts the handshake ACK and
  // sends the SYN-ACK.
  EXPECT_EQ(rx.segments_received, 1 + data_segments);
  EXPECT_LE(rx.segments_sent, 2 + (data_segments + 1) / 2);
  EXPECT_EQ(net.a.tcb_of(conn)->stats().rtos, 0u);
}

TEST(tcp_acks, data_with_fin_draws_one_ack) {
  constexpr std::size_t total = 200000;
  // The same transfer twice, the second time with the FIN on its last data
  // segment: one ACK covers both, so the FIN costs the receiver nothing.
  const auto receiver_segments = [total](bool fin) -> std::uint64_t {
    loopback net{lan_params()};
    wire_tap tap{net};
    sink_state sink;
    install_sink(net.b, 5001, sink);
    const auto conn = net.a.connect(net.addr_b(5001)).value();
    net.run_for(milliseconds(5));
    EXPECT_TRUE(net.a.send(conn, buffer::pattern(total, 0)).ok());
    if (fin) {
      EXPECT_TRUE(net.a.shutdown_write(conn).ok());
    }
    net.run_for(milliseconds(100));
    EXPECT_EQ(sink.received.size(), total);
    EXPECT_EQ(sink.saw_eof, fin);
    const auto data = tap.data_frames();
    EXPECT_EQ(data.back().p.tcp().flags.fin, fin);
    if (fin) {
      EXPECT_EQ(net.a.tcb_of(conn)->state(), tcp::tcp_state::fin_wait_2);
    }
    return net.b.tcb_of(sink.conn)->stats().segments_sent;
  };
  EXPECT_EQ(receiver_segments(true), receiver_segments(false));
}

TEST(tcp_acks, gap_filling_segment_is_acked_at_once) {
  const auto params = lan_params();
  loopback net{params};
  wire_tap tap{net};
  // The receiving app reads nothing until the end, so no window update can
  // stand in for the ACK.
  const auto listener = net.b.listen(5001).value();
  stack::socket_id server = 0;
  net.b.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.type != socket_event_type::accept_ready) return;
    if (auto r = net.b.accept(listener)) server = r.value();
  });
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));

  // Drop the first transmission of data segment 3 of 10. All ten leave in
  // the initial window, so the retransmission goes out alone: no second
  // segment or PSH follows it to draw the ACK.
  int data_seen = 0;
  std::optional<std::uint32_t> hole;
  tap.drop = [&](const net::packet& p) {
    if (hole || p.payload.empty() || ++data_seen < 3) return false;
    hole = p.tcp().seq;
    return true;
  };
  const std::size_t total = 10 * params.tcp_a.mss;
  ASSERT_TRUE(net.a.send(conn, buffer::pattern(total, 0)).ok());
  net.run_for(milliseconds(100));
  ASSERT_TRUE(hole.has_value());
  buffer_chain received;
  while (auto r = net.b.recv(server, 1 << 20)) {
    received.append(std::move(r).value());
  }
  ASSERT_EQ(received.size(), total);
  EXPECT_TRUE(received.pop(total).matches_pattern(0));

  const auto& frames = tap.a_to_b;
  const auto rtx =
      std::find_if(frames.begin(), frames.end(), [&](const auto& f) {
        return !f.p.payload.empty() && f.p.tcp().seq == *hole;
      });
  ASSERT_NE(rtx, frames.end());
  // The retransmission does not empty the queue, so it carries no PSH: the
  // filled gap alone draws its ACK.
  EXPECT_FALSE(rtx->p.tcp().flags.psh);
  const std::uint32_t hole_end =
      *hole + static_cast<std::uint32_t>(rtx->p.payload.size());
  const auto ack = std::find_if(
      tap.b_to_a.begin(), tap.b_to_a.end(), [&](const auto& f) {
        return f.at >= rtx->at &&
               static_cast<std::int32_t>(f.p.tcp().ack - hole_end) >= 0;
      });
  ASSERT_NE(ack, tap.b_to_a.end());
  // One 50 us round trip, far inside the 1 ms delayed-ACK timeout.
  EXPECT_LT(ack->at - rtx->at, microseconds(200));
  EXPECT_LT(microseconds(200), params.tcp_b.delayed_ack_timeout);
  EXPECT_EQ(net.a.tcb_of(conn)->stats().rtos, 0u);
}

TEST(tcp_acks, psh_marks_only_the_segment_that_drains_the_queue) {
  const auto params = lan_params();
  const std::size_t mss = params.tcp_a.mss;
  loopback net{params};
  wire_tap tap{net};
  sink_state sink;
  install_sink(net.b, 5001, sink);
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));

  // 3.5 segments leave in one pass; the last one empties the queue.
  const std::size_t first = 3 * mss + mss / 2;
  ASSERT_TRUE(net.a.send(conn, buffer::pattern(first, 0)).ok());
  net.run_for(milliseconds(5));
  // 40 segments, more than the window, leave over several ACK-clocked
  // passes; only the last, which carries the FIN, empties the queue.
  const std::size_t second = 40 * mss;
  ASSERT_TRUE(net.a.send(conn, buffer::pattern(second, first)).ok());
  ASSERT_TRUE(net.a.shutdown_write(conn).ok());
  net.run_for(milliseconds(50));
  ASSERT_EQ(sink.received.size(), first + second);
  EXPECT_TRUE(sink.received.pop(first + second).matches_pattern(0));

  const auto data = tap.data_frames();
  ASSERT_EQ(data.size(), 4u + 40u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i].p.tcp().flags.psh, i == 3 || i == data.size() - 1)
        << "segment " << i;
  }
  EXPECT_TRUE(data.back().p.tcp().flags.fin);
}

// --- GSO transmit --------------------------------------------------------------------

TEST(tcp_gso, burst_charges_one_per_packet_cost) {
  auto params = lan_params();
  params.tx_cost_a = stack::processing_cost{microseconds(2), 0.5};
  const std::size_t mss = params.tcp_a.mss;
  loopback net{params};
  sim::cpu_core core{net.sim, "a/tx"};
  net.a.add_core(core);
  wire_tap tap{net};
  sink_state sink;
  install_sink(net.b, 5001, sink);
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));

  const sim_time busy_before = core.busy_time();
  const stack::netstack_stats stats_before = net.a.stats();
  const std::size_t frames_before = tap.a_to_b.size();
  const sim_time sent_at = net.sim.now();
  ASSERT_TRUE(net.a.send(conn, buffer::pattern(3 * mss, 0)).ok());
  net.run_for(milliseconds(5));
  ASSERT_EQ(sink.received.size(), 3 * mss);
  EXPECT_EQ(net.a.stats().tx_packets, stats_before.tx_packets + 3);
  EXPECT_EQ(net.a.stats().tx_bursts, stats_before.tx_bursts + 1);

  // The link carries the three MSS-sized frames, in stream order...
  ASSERT_EQ(tap.a_to_b.size(), frames_before + 3);
  const auto first = tap.a_to_b.begin() + static_cast<long>(frames_before);
  std::size_t wire_bytes = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& f = first[static_cast<long>(i)];
    EXPECT_EQ(f.p.tcp().seq, first->p.tcp().seq + i * mss);
    EXPECT_TRUE(f.p.payload.matches_pattern(i * mss));
    EXPECT_EQ(f.p.payload.size(), mss);
    wire_bytes += f.p.wire_size();
  }
  // ...which cost the core one per-packet charge plus their bytes, and
  // leave together when that one charge completes.
  const sim_time burst = params.tx_cost_a.of(wire_bytes);
  EXPECT_EQ(core.busy_time() - busy_before, burst);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first[static_cast<long>(i)].at, sent_at + burst);
  }
}

TEST(tcp_gso, initial_window_over_64k_splits_into_two_bursts) {
  auto params = lan_params();
  params.tcp_a.mss = 8000;
  params.tcp_b.mss = 8000;
  params.tx_cost_a = stack::processing_cost{microseconds(2), 0.5};
  loopback net{params};
  sim::cpu_core core{net.sim, "a/tx"};
  net.a.add_core(core);
  wire_tap tap{net};
  sink_state sink;
  install_sink(net.b, 5001, sink);
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));

  // The initial window is 10 segments, 80 000 B of payload: more than one
  // burst may carry.
  const sim_time busy_before = core.busy_time();
  const std::size_t frames_before = tap.a_to_b.size();
  const sim_time sent_at = net.sim.now();
  ASSERT_TRUE(net.a.send(conn, buffer::pattern(10 * 8000, 0)).ok());
  net.run_for(microseconds(100));
  ASSERT_EQ(tap.a_to_b.size(), frames_before + 10);

  // The first burst takes whole frames up to gso_max_bytes, the second the
  // rest; each pays one per-packet charge and leaves when it completes.
  std::vector<std::size_t> sizes;
  for (std::size_t i = frames_before; i < tap.a_to_b.size(); ++i) {
    sizes.push_back(tap.a_to_b[i].p.wire_size());
  }
  std::size_t split = 0;
  std::size_t first_bytes = 0;
  while (first_bytes + sizes[split] <= tcp::tcb::gso_max_bytes) {
    first_bytes += sizes[split++];
  }
  ASSERT_GT(split, 1u);
  ASSERT_LT(split, sizes.size());
  std::size_t second_bytes = 0;
  for (std::size_t i = split; i < sizes.size(); ++i) second_bytes += sizes[i];
  const sim_time first_cost = params.tx_cost_a.of(first_bytes);
  const sim_time second_cost = params.tx_cost_a.of(second_bytes);
  EXPECT_EQ(core.busy_time() - busy_before, first_cost + second_cost);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const sim_time at = tap.a_to_b[frames_before + i].at;
    EXPECT_EQ(at, sent_at + first_cost + (i < split ? sim_time::zero()
                                                     : second_cost))
        << "frame " << i;
  }
  net.run_for(milliseconds(5));
  EXPECT_EQ(sink.received.size(), 10u * 8000u);
}

// --- TCP Small Queues ----------------------------------------------------------------

// The datacenter testbed's host path: 40 GbE with a 2 MB drop-tail queue in
// front of a's NIC, jumbo segments, and windows that never bind, so a
// loss-based flow without TSQ grows until that queue overflows.
test::loopback_params host_queue_params(std::uint64_t seed = 1) {
  test::loopback_params p = lan_params(seed);
  p.wire.rate = data_rate::gbps(40);
  p.wire.propagation_delay = microseconds(5);
  p.wire.queue.capacity_bytes = 2 * 1024 * 1024;
  for (tcp::tcp_config* t : {&p.tcp_a, &p.tcp_b}) {
    t->mss = 8930;
    t->send_buffer = 4 * 1024 * 1024;
    t->recv_buffer = 4 * 1024 * 1024;
  }
  return p;
}

// A listener on `st` that accepts every connection and counts (and, for
// pattern streams, checks) what each one delivers.
struct counting_sink {
  counting_sink(stack::netstack& st, std::uint16_t port) {
    const stack::socket_id listener = st.listen(port).value();
    st.set_event_handler([this, &st, listener](const stack::socket_event& ev) {
      if (ev.type == socket_event_type::accept_ready) {
        while (auto r = st.accept(listener)) bytes[r.value()];
      } else if (ev.type == socket_event_type::readable) {
        while (auto r = st.recv(ev.sock, 1 << 20)) {
          pattern_ok = pattern_ok && r.value().matches_pattern(bytes[ev.sock]);
          bytes[ev.sock] += r.value().size();
        }
      }
    });
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t n = 0;
    for (const auto& [sock, b] : bytes) n += b;
    return n;
  }

  std::map<stack::socket_id, std::uint64_t> bytes;
  bool pattern_ok = true;
};

// Keeps a's connection `conn` written: zero-filled 64 KB writes without
// end, or `total` pattern bytes.
struct bulk_source {
  bulk_source(stack::netstack& st, stack::socket_id conn,
              std::uint64_t total = 0)
      : st{st}, conn{conn}, total{total} {}

  void push() {
    while (total == 0 || written < total) {
      const std::uint64_t n =
          total == 0 ? zeros.size()
                     : std::min<std::uint64_t>(zeros.size(), total - written);
      auto r = st.send(conn, total == 0 ? zeros : buffer::pattern(n, written));
      if (!r) return;
      written += r.value();
    }
  }

  stack::netstack& st;
  stack::socket_id conn;
  std::uint64_t total;
  std::uint64_t written = 0;
  buffer zeros = buffer::zeroed(64 * 1024);
};

// Opens a bulk connection from a to the sink at `port` and writes it from
// its connected and writable events.
void start_bulk(loopback& net, std::uint16_t port,
                std::optional<bulk_source>& src, std::uint64_t total = 0) {
  src.emplace(net.a, net.a.connect(net.addr_b(port)).value(), total);
  net.a.set_event_handler([&src](const stack::socket_event& ev) {
    if (ev.sock == src->conn && (ev.type == socket_event_type::connected ||
                                 ev.type == socket_event_type::writable)) {
      src->push();
    }
  });
}

// One CUBIC flow whose bottleneck is its own host's NIC queue keeps at most
// two GSO bursts there, yet fills the link and loses nothing.
TEST(tcp_tsq, bulk_flow_keeps_two_bursts_in_the_host_queue) {
  loopback net{host_queue_params()};
  counting_sink sink{net.b, 5001};
  std::optional<bulk_source> src;
  start_bulk(net, 5001, src);
  net.run_for(milliseconds(20));  // well past slow start

  const std::uint64_t at_warm = sink.total();
  std::size_t queue_peak = 0;
  std::size_t tsq_peak = 0;
  for (int i = 0; i < 5000; ++i) {  // 10 ms
    net.run_for(microseconds(2));
    queue_peak = std::max(queue_peak, net.cable.forward().queue_bytes());
    tsq_peak = std::max(tsq_peak, net.a.tcb_of(src->conn)->tsq_queued_bytes());
  }
  EXPECT_LE(queue_peak, tcp::tcb::tsq_limit_bytes);
  EXPECT_LE(tsq_peak, tcp::tcb::tsq_limit_bytes);
  const double gbps =
      rate_of(sink.total() - at_warm, milliseconds(10)).bps() / 1e9;
  EXPECT_GT(gbps, 39.0);
  EXPECT_EQ(net.cable.forward().queue_statistics().dropped, 0u);
  EXPECT_EQ(net.a.tcb_of(src->conn)->stats().bytes_retransmitted, 0u);
}

// A queue smaller than one GSO burst drops the sender's segments inside its
// own transmit (the stack has no core, so sends run synchronously). The
// dropped packets' tickets release their bytes and wake the sender, so a
// 4 MB flow completes byte-exact and leaves nothing accounted below the
// stack; leaked bytes would close the gate for good and stall the flow.
TEST(tcp_tsq, dropped_segments_release_their_bytes) {
  auto params = host_queue_params(7);
  params.wire.queue.capacity_bytes = 32 * 1024;
  loopback net{params};
  counting_sink sink{net.b, 5001};
  std::optional<bulk_source> src;
  constexpr std::uint64_t total = 4u << 20;
  start_bulk(net, 5001, src, total);
  net.run_for(milliseconds(100));

  EXPECT_EQ(sink.total(), total);
  EXPECT_TRUE(sink.pattern_ok);
  EXPECT_GT(net.cable.forward().queue_statistics().dropped, 0u);
  const tcp::tcb* t = net.a.tcb_of(src->conn);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->tsq_queued_bytes(), 0u);
}

// A connection aborted while its segments still wait in the link queue:
// their tickets outlive the tcb, and releasing them later must not touch it.
TEST(tcp_tsq, abort_with_segments_in_the_host_queue) {
  loopback net{host_queue_params()};
  counting_sink sink{net.b, 5001};
  std::optional<bulk_source> src;
  start_bulk(net, 5001, src);
  net.run_for(milliseconds(5));
  ASSERT_GT(net.cable.forward().queue_bytes(), 0u);
  ASSERT_GT(net.a.tcb_of(src->conn)->tsq_queued_bytes(), 0u);

  ASSERT_TRUE(net.a.abort(src->conn).ok());
  EXPECT_EQ(net.a.tcb_of(src->conn), nullptr);
  EXPECT_GT(net.cable.forward().queue_bytes(), 0u);
  net.run_for(milliseconds(5));
  EXPECT_EQ(net.cable.forward().queue_bytes(), 0u);
  EXPECT_GT(sink.total(), 0u);
}

// A connection opened behind a bulk flow on the same host waits for what
// TSQ lets the bulk flow queue (about 128 KB of serialization), not for a
// full 2 MB queue.
TEST(tcp_tsq, new_connection_waits_behind_two_bursts_not_the_queue) {
  const test::loopback_params params = host_queue_params();
  loopback net{params};
  counting_sink sink{net.b, 5001};
  std::optional<bulk_source> src;
  start_bulk(net, 5001, src);
  net.run_for(milliseconds(20));

  const sim_time opened = net.sim.now();
  const stack::socket_id conn = net.a.connect(net.addr_b(5001)).value();
  std::optional<sim_time> connected;
  net.a.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock == src->conn && ev.type == socket_event_type::writable) {
      src->push();
    } else if (ev.sock == conn && ev.type == socket_event_type::connected) {
      connected = net.sim.now();
    }
  });
  net.run_for(milliseconds(2));
  ASSERT_TRUE(connected.has_value());

  // The SYN queues behind at most the TSQ limit plus the frame on the wire;
  // then one round trip, with a few microseconds for the SYN-ACK's own
  // serialization behind the bulk flow's ACKs.
  const sim_time bound =
      params.wire.rate.transmission_time(tcp::tcb::tsq_limit_bytes +
                                         params.tcp_a.mss + 100) +
      2 * params.wire.propagation_delay + microseconds(5);
  EXPECT_LE(*connected - opened, bound);
}

TEST(tcp_nagle, coalesces_small_writes) {
  auto params = lan_params();
  tcp::tcp_config nagle_on = params.tcp_a;
  nagle_on.nagle = true;
  params.tcp_a = nagle_on;
  loopback net{params};
  sink_state sink;
  install_sink(net.b, 5001, sink);
  const auto conn = net.a.connect(net.addr_b(5001)).value();
  net.run_for(milliseconds(5));

  for (int i = 0; i < 100; ++i) {
    (void)net.a.send(conn, buffer::pattern(10, 10ull * i));
  }
  net.run_for(milliseconds(100));
  EXPECT_EQ(sink.received.size(), 1000u);
  EXPECT_TRUE(sink.received.pop(1000).matches_pattern(0));
  // Far fewer segments than writes (1 in-flight + coalesced rest).
  EXPECT_LT(net.a.tcb_of(conn)->stats().segments_sent, 20u);
}

// --- unit: sequence math ------------------------------------------------------------------

TEST(tcp_seq, wrap_unwrap_identity) {
  const std::uint32_t isn = 0xfffffff0;
  for (std::uint64_t abs : {0ull, 1ull, 100ull, (1ull << 32) - 1, (1ull << 32),
                            (1ull << 33) + 12345}) {
    const std::uint32_t wire = tcp::wrap_seq(abs, isn);
    EXPECT_EQ(tcp::unwrap_seq(wire, isn, abs), abs);
    // Reference within half the space still recovers it.
    EXPECT_EQ(tcp::unwrap_seq(wire, isn, abs + 1000), abs);
    if (abs > 1000) {
      EXPECT_EQ(tcp::unwrap_seq(wire, isn, abs - 1000), abs);
    }
  }
}

TEST(tcp_seq, unwrap_across_wrap_boundary) {
  const std::uint32_t isn = 0xffffff00;
  // Stream offset 0x200 lands past the 32-bit wrap of the wire space.
  const std::uint32_t wire = tcp::wrap_seq(0x200, isn);
  EXPECT_EQ(wire, 0x100u);
  EXPECT_EQ(tcp::unwrap_seq(wire, isn, 0x1f0), 0x200u);
}

// --- unit: rtt estimation ------------------------------------------------------------------

TEST(rtt_estimator, first_sample_seeds_rfc6298) {
  tcp::rtt_estimator est;
  est.add_sample(milliseconds(100));
  EXPECT_EQ(est.srtt(), milliseconds(100));
  EXPECT_EQ(est.rttvar(), milliseconds(50));
  EXPECT_EQ(est.rto(), milliseconds(300));  // srtt + 4*rttvar
}

TEST(rtt_estimator, converges_on_stable_rtt) {
  tcp::rtt_estimator est;
  for (int i = 0; i < 100; ++i) est.add_sample(milliseconds(50));
  EXPECT_EQ(est.srtt(), milliseconds(50));
  // Variance decays toward zero; RTO floors at min_rto.
  EXPECT_LE(est.rto(), milliseconds(210));
  EXPECT_GE(est.rto(), milliseconds(200));  // default min_rto
}

TEST(rtt_estimator, backoff_doubles_and_caps) {
  tcp::rtt_estimator est;
  EXPECT_EQ(est.rto(), tcp::rtt_estimator::initial_rto);
  est.add_sample(milliseconds(100));
  const sim_time base = est.rto();
  est.backoff();
  EXPECT_EQ(est.rto(), base * 2);
  for (int i = 0; i < 10; ++i) est.backoff();
  EXPECT_EQ(est.rto(), tcp::rtt_estimator::max_rto);
}

TEST(min_rtt_tracker, windowed_minimum_expires) {
  tcp::min_rtt_tracker t{seconds(1)};
  t.add(milliseconds(10), sim_time::zero());
  t.add(milliseconds(20), milliseconds(100));
  EXPECT_EQ(t.value(), milliseconds(10));
  // After the window passes, a larger sample replaces the stale minimum.
  t.add(milliseconds(30), seconds(2));
  EXPECT_EQ(t.value(), milliseconds(30));
}

// --- unit: reassembly ------------------------------------------------------------------------

TEST(reassembly, in_order_passthrough) {
  tcp::reassembly_buffer r;
  std::uint64_t next = 0;
  auto out = r.insert(0, buffer::pattern(100, 0), next);
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(next, 100u);
  EXPECT_TRUE(r.empty());
}

TEST(reassembly, fills_gap_and_releases) {
  tcp::reassembly_buffer r;
  std::uint64_t next = 0;
  auto first = r.insert(100, buffer::pattern(100, 100), next);
  EXPECT_TRUE(first.empty());
  EXPECT_EQ(next, 0u);
  auto out = r.insert(0, buffer::pattern(100, 0), next);
  EXPECT_EQ(out.size(), 200u);
  EXPECT_EQ(next, 200u);
  EXPECT_TRUE(out.pop(200).matches_pattern(0));
}

TEST(reassembly, duplicate_and_overlap_are_deduplicated) {
  tcp::reassembly_buffer r;
  std::uint64_t next = 0;
  (void)r.insert(0, buffer::pattern(100, 0), next);
  // Retransmission overlapping delivered + held data.
  (void)r.insert(50, buffer::pattern(100, 50), next);
  EXPECT_EQ(next, 150u);
  auto out = r.insert(150, buffer::pattern(50, 150), next);
  EXPECT_EQ(next, 200u);
  EXPECT_TRUE(out.pop(50).matches_pattern(150));
}

TEST(reassembly, multiple_gaps_release_in_order) {
  tcp::reassembly_buffer r;
  std::uint64_t next = 0;
  (void)r.insert(300, buffer::pattern(100, 300), next);
  (void)r.insert(100, buffer::pattern(100, 100), next);
  EXPECT_EQ(r.buffered_bytes(), 200u);
  auto out1 = r.insert(0, buffer::pattern(100, 0), next);
  EXPECT_EQ(next, 200u);  // 0-100 new + 100-200 held
  EXPECT_TRUE(out1.pop(200).matches_pattern(0));
  auto out2 = r.insert(200, buffer::pattern(100, 200), next);
  EXPECT_EQ(next, 400u);
  EXPECT_TRUE(out2.pop(200).matches_pattern(200));
  EXPECT_TRUE(r.empty());
}

TEST(reassembly, stale_data_ignored) {
  tcp::reassembly_buffer r;
  std::uint64_t next = 0;
  (void)r.insert(0, buffer::pattern(100, 0), next);
  auto out = r.insert(0, buffer::pattern(50, 0), next);  // full duplicate
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(next, 100u);
}

}  // namespace
}  // namespace nk
