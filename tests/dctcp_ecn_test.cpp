// DCTCP end-to-end over an ECN-marking bottleneck (the §5 scenario: "A
// container running a Spark task may use DCTCP for its traffic"): DCTCP
// must hold throughput while keeping the bottleneck queue near the marking
// threshold K, where a loss-based controller fills the whole buffer. The
// 10 Gb/s bottleneck is a switch port behind the sender's 40 Gb/s access
// link: TCP Small Queues bounds what a sender holds in its own NIC queue,
// not what piles up at a slower hop further on.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "util/loopback.hpp"

namespace nk {
namespace {

struct ecn_run {
  double goodput_gbps = 0;
  double mean_queue_bytes = 0;
  std::uint64_t marks = 0;
  std::uint64_t drops = 0;
};

ecn_run run_flow(tcp::cc_algorithm cc) {
  test::loopback_params params = test::lan_params(314);
  params.wire.rate = data_rate::gbps(10);
  params.wire.propagation_delay = microseconds(25);
  params.wire.queue.capacity_bytes = 512 * 1024;
  params.wire.queue.ecn_threshold_bytes = 64 * 1024;  // DCTCP K
  phys::link_config access;
  access.rate = data_rate::gbps(40);
  access.propagation_delay = microseconds(1);
  params.access = access;
  tcp::tcp_config t = params.tcp_a;
  t.cc = cc;
  t.send_buffer = 4 * 1024 * 1024;
  params.tcp_a = t;
  tcp::tcp_config tb = params.tcp_b;
  tb.cc = cc;  // receiver stack mirrors (affects ECN negotiation only)
  params.tcp_b = tb;
  test::loopback net{params};

  stack::socket_id listener = net.b.listen(5001).value();
  stack::socket_id server_conn = 0;
  std::uint64_t received = 0;
  net.b.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.type == stack::socket_event_type::accept_ready) {
      server_conn = net.b.accept(listener).value();
    } else if (ev.type == stack::socket_event_type::readable) {
      while (auto r = net.b.recv(server_conn, 1 << 20)) {
        received += r.value().size();
      }
    }
  });

  const auto conn = net.a.connect(net.addr_b(5001)).value();
  auto push = [&] {
    while (net.a.send(conn, buffer::zeroed(64 * 1024)).ok()) {
    }
  };
  net.a.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock == conn && (ev.type == stack::socket_event_type::connected ||
                            ev.type == stack::socket_event_type::writable)) {
      push();
    }
  });

  // Sample the bottleneck queue during steady state.
  running_stats queue_depth;
  net.run_for(milliseconds(50));  // warm-up
  const std::uint64_t at_warm = received;
  for (int i = 0; i < 200; ++i) {
    net.run_for(milliseconds(1));
    queue_depth.add(static_cast<double>(net.cable.forward().queue_bytes()));
  }

  ecn_run out;
  out.goodput_gbps =
      rate_of(received - at_warm, milliseconds(200)).bps() / 1e9;
  out.mean_queue_bytes = queue_depth.mean();
  out.marks = net.cable.forward().queue_statistics().ecn_marked;
  out.drops = net.cable.forward().queue_statistics().dropped;
  return out;
}

TEST(dctcp_e2e, holds_throughput_with_shallow_queue) {
  const ecn_run dctcp = run_flow(tcp::cc_algorithm::dctcp);
  EXPECT_GT(dctcp.goodput_gbps, 8.5);      // ~line rate on 10G
  EXPECT_GT(dctcp.marks, 0u);              // ECN actually in play
  EXPECT_EQ(dctcp.drops, 0u);              // never fills the buffer
  // Queue hovers near K (64 KB), far below the 512 KB capacity.
  EXPECT_LT(dctcp.mean_queue_bytes, 3.0 * 64 * 1024);
}

TEST(dctcp_e2e, loss_based_cubic_fills_the_buffer_instead) {
  const ecn_run cubic = run_flow(tcp::cc_algorithm::cubic);
  const ecn_run dctcp = run_flow(tcp::cc_algorithm::dctcp);
  EXPECT_GT(cubic.goodput_gbps, 8.5);  // cubic also reaches line rate...
  // ...but bufferbloats: it rides far deeper in the queue than DCTCP.
  EXPECT_GT(cubic.mean_queue_bytes, 2.0 * dctcp.mean_queue_bytes);
  EXPECT_EQ(cubic.marks, 0u);  // no ECN negotiation without DCTCP
}

}  // namespace
}  // namespace nk
