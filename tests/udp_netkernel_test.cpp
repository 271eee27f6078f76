// UDP datagram service through the NetKernel path: GuestLib -> nqe queues
// -> ServiceLib -> NSM stack -> wire, and back.
#include <gtest/gtest.h>

#include "apps/scenario.hpp"

namespace nk::core {
namespace {

using apps::side;
using apps::testbed;

struct udp_rig {
  udp_rig() : bed{apps::datacenter_params(55)} {
    nsm_config nsm_cfg;
    nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
    virt::vm_config vm_cfg;
    vm_cfg.name = "a-vm";
    a = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
    vm_cfg.name = "b-vm";
    nsm_cfg.name = "nsm-b";
    b = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
  }

  testbed bed;
  apps::nk_tenant a;
  apps::nk_tenant b;
};

TEST(netkernel_udp, datagram_roundtrip) {
  udp_rig rig;
  auto& ga = *rig.a.glib;
  auto& gb = *rig.b.glib;

  const auto server = gb.nk_udp_open(9000).value();
  const auto client = ga.nk_udp_open().value();
  rig.bed.run_for(milliseconds(5));  // let the opens reach the NSMs

  ASSERT_TRUE(ga.nk_udp_send_to(client,
                                {rig.b.module->config().address, 9000},
                                buffer::pattern(777, 0))
                  .ok());
  rig.bed.run_for(milliseconds(20));

  auto got = gb.nk_udp_recv_from(server);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().second.size(), 777u);
  EXPECT_TRUE(got.value().second.matches_pattern(0));
  // The observed source is the sender-side NSM's address.
  EXPECT_EQ(got.value().first.ip, rig.a.module->config().address);

  // Reply to the observed source.
  ASSERT_TRUE(gb.nk_udp_send_to(server, got.value().first,
                                buffer::pattern(99, 5))
                  .ok());
  rig.bed.run_for(milliseconds(20));
  auto reply = ga.nk_udp_recv_from(client);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().second.matches_pattern(5));
}

TEST(netkernel_udp, recv_on_empty_would_block) {
  udp_rig rig;
  const auto sock = rig.a.glib->nk_udp_open(1234).value();
  rig.bed.run_for(milliseconds(5));
  EXPECT_EQ(rig.a.glib->nk_udp_recv_from(sock).error(), errc::would_block);
}

TEST(netkernel_udp, oversized_datagram_rejected) {
  udp_rig rig;
  const auto sock = rig.a.glib->nk_udp_open().value();
  rig.bed.run_for(milliseconds(5));
  // Chunk size defaults to 8 KB; a 64 KB datagram cannot be represented.
  EXPECT_EQ(rig.a.glib
                ->nk_udp_send_to(sock, {rig.b.module->config().address, 1},
                                 buffer::zeroed(64 * 1024))
                .error(),
            errc::invalid_argument);
}

// A sender outside NetKernel (a legacy VM's own stack) is not held to the
// chunk size. ServiceLib counts and discards a datagram that cannot fit a
// chunk, and keeps delivering the ones that can.
TEST(netkernel_udp, oversized_inbound_datagram_is_counted_and_skipped) {
  udp_rig rig;
  apps::legacy_tenant raw = rig.bed.add_legacy_vm(side::a, {.name = "raw-vm"});
  stack::netstack& sender = *raw.vm->guest_stack();
  auto& gb = *rig.b.glib;
  const auto server = gb.nk_udp_open(9000).value();
  const auto sock = sender.udp_open().value();
  rig.bed.run_for(milliseconds(5));

  auto* svc = rig.bed.netkernel(side::b).service_of(rig.b.module->id());
  ASSERT_NE(svc, nullptr);
  ASSERT_EQ(rig.bed.netkernel(side::b)
                .channel_of(rig.b.vm->id())
                ->pool.chunk_size(),
            8u * 1024);
  const net::socket_addr to{rig.b.module->config().address, 9000};
  ASSERT_TRUE(sender.udp_send_to(sock, to, buffer::pattern(9000, 0)).ok());
  rig.bed.run_for(milliseconds(20));
  EXPECT_EQ(svc->stats().oversize_datagrams, 1u);
  EXPECT_EQ(gb.nk_udp_recv_from(server).error(), errc::would_block);

  ASSERT_TRUE(sender.udp_send_to(sock, to, buffer::pattern(100, 3)).ok());
  rig.bed.run_for(milliseconds(20));
  auto got = gb.nk_udp_recv_from(server);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().second.size(), 100u);
  EXPECT_TRUE(got.value().second.matches_pattern(3));
  EXPECT_EQ(svc->stats().oversize_datagrams, 1u);
}

TEST(netkernel_udp, tcp_api_rejected_on_udp_socket_and_vice_versa) {
  udp_rig rig;
  auto& glib = *rig.a.glib;
  const auto udp_fd = glib.nk_udp_open().value();
  const auto tcp_fd = glib.nk_socket().value();
  rig.bed.run_for(milliseconds(5));
  EXPECT_EQ(glib.nk_udp_recv_from(tcp_fd).error(), errc::invalid_argument);
  EXPECT_EQ(glib.nk_udp_send_to(tcp_fd, {{}, 1}, buffer::zeroed(8)).error(),
            errc::invalid_argument);
  // nk_recv on a UDP socket reports would_block (no stream bytes).
  EXPECT_EQ(glib.nk_recv(udp_fd, 100).error(), errc::would_block);
}

TEST(netkernel_udp, chunks_recycle_after_recv_and_close) {
  udp_rig rig;
  auto& ga = *rig.a.glib;
  auto& gb = *rig.b.glib;
  const auto server = gb.nk_udp_open(9000).value();
  const auto client = ga.nk_udp_open().value();
  rig.bed.run_for(milliseconds(5));

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ga.nk_udp_send_to(client,
                                  {rig.b.module->config().address, 9000},
                                  buffer::pattern(256, 0))
                    .ok());
  }
  rig.bed.run_for(milliseconds(20));
  int received = 0;
  while (gb.nk_udp_recv_from(server).ok()) ++received;
  EXPECT_EQ(received, 20);
  ASSERT_TRUE(gb.nk_close(server).ok());
  ASSERT_TRUE(ga.nk_close(client).ok());
  rig.bed.run_for(milliseconds(20));

  auto* ch_a = rig.bed.netkernel(side::a).channel_of(rig.a.vm->id());
  auto* ch_b = rig.bed.netkernel(side::b).channel_of(rig.b.vm->id());
  EXPECT_EQ(ch_a->pool.chunks_free(), ch_a->pool.chunk_count());
  EXPECT_EQ(ch_b->pool.chunks_free(), ch_b->pool.chunk_count());
}

TEST(netkernel_udp, many_datagrams_in_order_per_sender) {
  udp_rig rig;
  auto& ga = *rig.a.glib;
  auto& gb = *rig.b.glib;
  const auto server = gb.nk_udp_open(9000).value();
  const auto client = ga.nk_udp_open().value();
  rig.bed.run_for(milliseconds(5));

  constexpr int count = 50;
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(ga.nk_udp_send_to(client,
                                  {rig.b.module->config().address, 9000},
                                  buffer::pattern(100, 100ull * i))
                    .ok());
    rig.bed.run_for(microseconds(50));
  }
  rig.bed.run_for(milliseconds(20));

  // Same-path datagrams arrive in order.
  for (int i = 0; i < count; ++i) {
    auto r = gb.nk_udp_recv_from(server);
    ASSERT_TRUE(r.ok()) << "datagram " << i;
    EXPECT_TRUE(r.value().second.matches_pattern(100ull * i)) << i;
  }
}

}  // namespace
}  // namespace nk::core
