// Unit tests for links, queues and NICs.
#include <gtest/gtest.h>

#include <cstring>

#include "phys/link.hpp"
#include "phys/nic.hpp"
#include "phys/queue.hpp"
#include "sim/simulator.hpp"

namespace nk::phys {
namespace {

net::packet make_packet(std::size_t payload) {
  net::packet p;
  p.payload = buffer::zeroed(payload);
  return p;
}

TEST(link, delivery_time_is_serialization_plus_propagation) {
  sim::simulator s;
  link_config cfg;
  cfg.rate = data_rate::gbps(10);
  cfg.propagation_delay = microseconds(10);
  link l{s, cfg};
  sim_time arrival{};
  l.set_sink([&](net::packet) { arrival = s.now(); });

  net::packet p = make_packet(1250 - 70);  // 1250 B on the wire = 1 us at 10G
  ASSERT_EQ(p.wire_size(), 1250u);
  l.send(std::move(p));
  s.run();
  EXPECT_EQ(arrival, microseconds(11));
}

TEST(link, back_to_back_packets_serialize) {
  sim::simulator s;
  link_config cfg;
  cfg.rate = data_rate::gbps(10);
  cfg.propagation_delay = sim_time::zero();
  link l{s, cfg};
  std::vector<sim_time> arrivals;
  l.set_sink([&](net::packet) { arrivals.push_back(s.now()); });
  l.send(make_packet(1250 - 70));
  l.send(make_packet(1250 - 70));
  s.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], microseconds(1));
  EXPECT_EQ(arrivals[1], microseconds(2));
}

TEST(link, queue_overflow_drops) {
  sim::simulator s;
  link_config cfg;
  cfg.rate = data_rate::mbps(1);  // slow: everything queues
  cfg.queue.capacity_bytes = 3000;
  link l{s, cfg};
  int delivered = 0;
  l.set_sink([&](net::packet) { ++delivered; });
  for (int i = 0; i < 10; ++i) l.send(make_packet(1430));
  s.run();
  // 1 transmitting + 2 queued (2 x 1500 = 3000 fits).
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(l.queue_statistics().dropped, 7u);
}

TEST(link, loss_gate_matches_configured_rate) {
  sim::simulator s{123};
  link_config cfg;
  cfg.rate = data_rate::gbps(100);
  cfg.propagation_delay = sim_time::zero();
  cfg.loss_rate = 0.1;
  link l{s, cfg};
  int delivered = 0;
  l.set_sink([&](net::packet) { ++delivered; });
  const int total = 20000;
  // Feed gradually so the queue never overflows.
  for (int i = 0; i < total; ++i) {
    s.schedule(microseconds(i), [&l] { l.send(make_packet(100)); });
  }
  s.run();
  EXPECT_EQ(l.stats().packets_lost, static_cast<std::uint64_t>(total) -
                                        static_cast<std::uint64_t>(delivered));
  EXPECT_NEAR(static_cast<double>(delivered) / total, 0.9, 0.01);
}

TEST(droptail_queue, ecn_marks_ect_packets_over_threshold) {
  droptail_config cfg;
  cfg.capacity_bytes = 100000;
  cfg.ecn_threshold_bytes = 3000;
  droptail_queue q{cfg};
  for (int i = 0; i < 5; ++i) {
    net::packet p = make_packet(1430);
    p.ip.ecn = net::ecn_codepoint::ect0;
    ASSERT_TRUE(q.offer(p));
  }
  // Packets 1-3 arrive at depths 0/1500/3000 (not above K); packets 4-5 see
  // depth > 3000 and are marked.
  EXPECT_EQ(q.stats().ecn_marked, 2u);
  int ce = 0;
  while (auto p = q.take()) {
    if (p->ip.ecn == net::ecn_codepoint::ce) ++ce;
  }
  EXPECT_EQ(ce, 2);
}

TEST(droptail_queue, does_not_mark_non_ect) {
  droptail_config cfg;
  cfg.ecn_threshold_bytes = 1;
  droptail_queue q{cfg};
  net::packet p = make_packet(1000);  // not-ECT
  ASSERT_TRUE(q.offer(p));
  net::packet p2 = make_packet(1000);
  ASSERT_TRUE(q.offer(p2));
  EXPECT_EQ(q.stats().ecn_marked, 0u);
}

TEST(nic, duplex_attachment_delivers_both_ways) {
  sim::simulator s;
  link_config cfg;
  cfg.rate = data_rate::gbps(40);
  cfg.propagation_delay = microseconds(1);
  duplex_link cable{s, cfg};
  nic a{"a"};
  nic b{"b"};
  attach_duplex(a, b, cable);
  int at_a = 0;
  int at_b = 0;
  a.set_receive_handler([&](net::packet) { ++at_a; });
  b.set_receive_handler([&](net::packet) { ++at_b; });
  a.transmit(make_packet(100));
  b.transmit(make_packet(100));
  b.transmit(make_packet(100));
  s.run();
  EXPECT_EQ(at_b, 1);
  EXPECT_EQ(at_a, 2);
  EXPECT_EQ(a.stats().tx_packets, 1u);
  EXPECT_EQ(a.stats().rx_packets, 2u);
}

}  // namespace
}  // namespace nk::phys
