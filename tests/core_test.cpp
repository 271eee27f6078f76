// NetKernel core tests: the full GuestLib -> CoreEngine -> ServiceLib -> NSM
// path on a two-host testbed, connection mapping, flow-control credit,
// per-socket stack selection, multiplexing, SLA enforcement, notification
// modes, and accounting.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "core/accounting.hpp"
#include "core/hostile.hpp"

namespace nk::core {
namespace {

using apps::side;
using apps::testbed;

// A NetKernel tenant on side a talking to a NetKernel tenant on side b.
// The optional `tweak` hook edits the testbed params before construction.
struct nk_pair {
  explicit nk_pair(
      tcp::cc_algorithm cc = tcp::cc_algorithm::cubic,
      std::uint64_t seed = 1,
      const std::function<void(apps::testbed_params&)>& tweak = {})
      : bed{[&] {
          auto p = apps::datacenter_params(seed);
          if (tweak) tweak(p);
          return p;
        }()} {
    nsm_config nsm_cfg;
    nsm_cfg.tcp = apps::datacenter_tcp(cc);
    nsm_cfg.cc = cc;

    virt::vm_config vm_cfg;
    vm_cfg.name = "tenant-a";
    client = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
    vm_cfg.name = "tenant-b";
    nsm_cfg.name = "nsm-b";
    server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
  }

  testbed bed;
  apps::nk_tenant client;
  apps::nk_tenant server;
};

TEST(netkernel_path, connect_and_echo_roundtrip) {
  nk_pair rig;
  auto& glib_s = *rig.server.glib;
  auto& glib_c = *rig.client.glib;

  // Server: listen and echo one message.
  const auto lfd = glib_s.nk_socket().value();
  ASSERT_TRUE(glib_s.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(glib_s.nk_listen(lfd).ok());
  std::uint32_t server_conn = 0;
  glib_s.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                               errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      server_conn = glib_s.nk_accept(lfd).value();
    } else if (fd == server_conn &&
               t == stack::socket_event_type::readable) {
      while (auto r = glib_s.nk_recv(server_conn, 1 << 20)) {
        (void)glib_s.nk_send(server_conn, std::move(r).value());
      }
    }
  });

  // Client: connect, send, await echo.
  const auto cfd = glib_c.nk_socket().value();
  buffer_chain echoed;
  bool connected = false;
  glib_c.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                               errc) {
    if (fd != cfd) return;
    if (t == stack::socket_event_type::connected) {
      connected = true;
      (void)glib_c.nk_send(cfd, buffer::pattern(50000, 0));
    } else if (t == stack::socket_event_type::readable) {
      while (auto r = glib_c.nk_recv(cfd, 1 << 20)) {
        echoed.append(std::move(r).value());
      }
    }
  });
  ASSERT_TRUE(glib_c
                  .nk_connect(cfd, {rig.server.module->config().address, 7000})
                  .ok());

  rig.bed.run_for(seconds(2));
  EXPECT_TRUE(connected);
  ASSERT_EQ(echoed.size(), 50000u);
  EXPECT_TRUE(echoed.pop(50000).matches_pattern(0));

  // The mapping table was exercised in both directions.
  EXPECT_GT(rig.bed.netkernel(side::a).stats().nqes_forwarded, 0u);
  EXPECT_GT(rig.bed.netkernel(side::b).stats().accept_fds_minted, 0u);
}

TEST(netkernel_path, bulk_transfer_off_the_unified_api) {
  nk_pair rig;
  apps::bulk_sink sink{*rig.server.api, 7001, /*validate=*/true};
  sink.start();
  apps::bulk_sender_config cfg;
  cfg.flows = 2;
  cfg.bytes_per_flow = 2 * 1024 * 1024;
  apps::bulk_sender sender{*rig.client.api,
                           {rig.server.module->config().address, 7001}, cfg};
  sender.start();

  rig.bed.run_for(seconds(5));
  EXPECT_EQ(sink.total_bytes(), 4u * 1024 * 1024);
  EXPECT_TRUE(sink.pattern_ok());
  EXPECT_EQ(sender.flows_done(), 2);
}

TEST(netkernel_path, per_socket_congestion_control_override) {
  nk_pair rig{tcp::cc_algorithm::cubic};
  auto& glib = *rig.client.glib;
  const auto fd = glib.nk_socket().value();
  ASSERT_TRUE(glib.nk_setsockopt(
                      fd, nk_option::congestion_control,
                      static_cast<std::uint64_t>(tcp::cc_algorithm::bbr))
                  .ok());
  // Server side listener.
  auto& glib_s = *rig.server.glib;
  const auto lfd = glib_s.nk_socket().value();
  ASSERT_TRUE(glib_s.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(glib_s.nk_listen(lfd).ok());

  ASSERT_TRUE(
      glib.nk_connect(fd, {rig.server.module->config().address, 7000}).ok());
  rig.bed.run_for(milliseconds(100));

  // Find the NSM-side tcb and confirm it mounts BBR despite the NSM default
  // being Cubic — "any stack independent of the guest kernel".
  auto& stack = rig.client.module->stack();
  bool found_bbr = false;
  for (stack::socket_id s = 1; s < 20; ++s) {
    if (auto* t = stack.tcb_of(s)) {
      if (t->cc().name() == "bbr") found_bbr = true;
    }
  }
  EXPECT_TRUE(found_bbr);
}

TEST(netkernel_path, send_credit_backpressures_application) {
  nk_pair rig;
  auto& glib_s = *rig.server.glib;
  const auto lfd = glib_s.nk_socket().value();
  ASSERT_TRUE(glib_s.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(glib_s.nk_listen(lfd).ok());
  // Server accepts but never reads: the pipeline must fill and push back.

  glib_s.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                               errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      (void)glib_s.nk_accept(lfd);
    }
  });

  auto& glib_c = *rig.client.glib;
  const auto fd = glib_c.nk_socket().value();
  std::uint64_t accepted = 0;
  bool hit_block = false;
  glib_c.set_event_handler([&](std::uint32_t f, stack::socket_event_type t,
                               errc) {
    if (f != fd || t != stack::socket_event_type::connected) return;
    while (true) {
      auto r = glib_c.nk_send(fd, buffer::pattern(256 * 1024, accepted));
      if (!r) {
        hit_block = true;
        break;
      }
      accepted += r.value();
      if (accepted > 512 * 1024 * 1024) break;  // runaway guard
    }
  });
  ASSERT_TRUE(
      glib_c.nk_connect(fd, {rig.server.module->config().address, 7000}).ok());

  rig.bed.run_for(seconds(1));
  EXPECT_TRUE(hit_block);
  // Way below the runaway guard: credit + buffers bound the pipeline.
  EXPECT_LT(accepted, 64u * 1024 * 1024);
}

TEST(netkernel_multiplexing, one_nsm_serves_two_vms) {
  auto params = apps::datacenter_params(7);
  testbed bed{params};

  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.cores = 2;

  virt::vm_config vm_cfg;
  vm_cfg.name = "t1";
  auto t1 = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "t2";
  auto t2 = bed.attach_netkernel_vm(side::a, vm_cfg, *t1.module);
  EXPECT_EQ(t1.module, t2.module);

  nsm_config server_cfg;
  server_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  vm_cfg.name = "server";
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, server_cfg);

  apps::bulk_sink sink{*server.api, 7001, true};
  sink.start();

  apps::bulk_sender_config cfg;
  cfg.flows = 1;
  cfg.bytes_per_flow = 1024 * 1024;
  apps::bulk_sender s1{*t1.api, {server.module->config().address, 7001}, cfg};
  apps::bulk_sender s2{*t2.api, {server.module->config().address, 7001}, cfg};
  s1.start();
  s2.start();

  bed.run_for(seconds(5));
  EXPECT_EQ(sink.total_bytes(), 2u * 1024 * 1024);
  EXPECT_TRUE(sink.pattern_ok());
  EXPECT_EQ(sink.flows_seen(), 2u);
}

TEST(netkernel_isolation, channels_use_distinct_pool_keys) {
  auto params = apps::datacenter_params(7);
  testbed bed{params};
  nsm_config nsm_cfg;
  virt::vm_config vm_cfg;
  vm_cfg.name = "t1";
  auto t1 = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "t2";
  auto t2 = bed.attach_netkernel_vm(side::a, vm_cfg, *t1.module);

  auto* ch1 = bed.netkernel(side::a).channel_of(t1.vm->id());
  auto* ch2 = bed.netkernel(side::a).channel_of(t2.vm->id());
  ASSERT_NE(ch1, nullptr);
  ASSERT_NE(ch2, nullptr);
  EXPECT_NE(ch1->pool.key(), ch2->pool.key());

  // A descriptor from tenant 2's pool must be rejected by tenant 1's pool.
  auto chunk = ch2->pool.alloc();
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(ch1->pool.readable(shm::data_descriptor{chunk.value(), 0, 16})
                .error(),
            errc::permission_denied);
}

TEST(netkernel_sla, rate_cap_throttles_tenant) {
  nk_pair rig;
  rig.bed.netkernel(side::a).sla().set_tenant(
      rig.client.vm->id(),
      sla_spec{.rate_cap = data_rate::gbps(1), .burst_bytes = 256 * 1024});

  apps::bulk_sink sink{*rig.server.api, 7001, false};
  sink.start();
  apps::bulk_sender_config cfg;
  cfg.flows = 1;
  cfg.bytes_per_flow = 0;  // unbounded
  apps::bulk_sender sender{*rig.client.api,
                           {rig.server.module->config().address, 7001}, cfg};
  sender.start();

  rig.bed.run_for(seconds(1));
  const auto goodput = rate_of(sink.total_bytes(), seconds(1));
  // Capped at 1 Gb/s on a 40 Gb/s path (generous tolerance for burst).
  EXPECT_LT(goodput.bps(), 1.4e9);
  EXPECT_GT(goodput.bps(), 0.5e9);
  EXPECT_GT(rig.bed.netkernel(side::a)
                .sla()
                .usage_of(rig.client.vm->id())
                .throttle_events,
            0u);
}

// Connection-quota slot bookkeeping. The client tenant may hold one
// connection; a slot is taken only by an admitted connect (or an accepted
// child) and returned exactly once, when that socket goes away.
struct conn_quota_rig {
  conn_quota_rig() {
    rig.bed.netkernel(side::a).sla().set_tenant(
        rig.client.vm->id(), sla_spec{.max_connections = 1});
    auto& gs = *rig.server.glib;
    lfd = gs.nk_socket().value();
    EXPECT_TRUE(gs.nk_bind(lfd, 7000).ok());
    EXPECT_TRUE(gs.nk_listen(lfd).ok());
    gs.set_event_handler([this, &gs](std::uint32_t fd,
                                     stack::socket_event_type t, errc) {
      if (fd == lfd && t == stack::socket_event_type::accept_ready) {
        while (gs.nk_accept(lfd).ok()) {
        }
      }
    });
    rig.client.glib->set_event_handler(
        [this](std::uint32_t fd, stack::socket_event_type t, errc e) {
          if (t == stack::socket_event_type::connected) connected.insert(fd);
          if (t == stack::socket_event_type::error) failed[fd] = e;
        });
  }

  // Opens a TCP connection to the server and runs until it resolves.
  std::uint32_t connect() {
    auto& gc = *rig.client.glib;
    const auto fd = gc.nk_socket().value();
    EXPECT_TRUE(
        gc.nk_connect(fd, {rig.server.module->config().address, 7000}).ok());
    rig.bed.run_for(milliseconds(5));
    return fd;
  }

  const tenant_usage& usage() {
    return rig.bed.netkernel(side::a).sla().usage_of(rig.client.vm->id());
  }

  nk_pair rig;
  std::uint32_t lfd = 0;
  std::set<std::uint32_t> connected;
  std::map<std::uint32_t, errc> failed;
};

TEST(netkernel_conn_quota, udp_sockets_take_no_connection_slot) {
  conn_quota_rig q;
  ASSERT_TRUE(q.connected.count(q.connect()));
  ASSERT_EQ(q.usage().connections, 1u);

  auto& gc = *q.rig.client.glib;
  for (int i = 0; i < 3; ++i) {
    const auto ufd = gc.nk_udp_open().value();
    q.rig.bed.run_for(milliseconds(1));
    ASSERT_TRUE(gc.nk_close(ufd).ok());
  }
  q.rig.bed.run_for(milliseconds(5));
  EXPECT_EQ(q.usage().connections, 1u);

  const auto second = q.connect();
  EXPECT_FALSE(q.connected.count(second));
  EXPECT_EQ(q.failed[second], errc::resource_exhausted);
  EXPECT_EQ(q.usage().connections_total, 1u);
}

TEST(netkernel_conn_quota, closing_a_refused_connect_releases_no_slot) {
  conn_quota_rig q;
  ASSERT_TRUE(q.connected.count(q.connect()));

  auto& gc = *q.rig.client.glib;
  for (int i = 0; i < 3; ++i) {
    const auto fd = q.connect();
    EXPECT_FALSE(q.connected.count(fd)) << "over-quota connect " << i;
    EXPECT_EQ(q.failed[fd], errc::resource_exhausted);
    (void)gc.nk_close(fd);
    q.rig.bed.run_for(milliseconds(1));
  }
  EXPECT_EQ(q.usage().connections, 1u);
  EXPECT_EQ(q.usage().connections_total, 1u);
}

TEST(netkernel_conn_quota, crashed_nsm_returns_its_connections_slots) {
  conn_quota_rig q;
  const auto first = q.connect();
  ASSERT_TRUE(q.connected.count(first));

  core_engine& ce = q.rig.bed.netkernel(side::a);
  const nsm_id dead = q.rig.client.module->id();
  ce.service_of(dead)->fail();
  // The connection died with the module, and so did its slot.
  EXPECT_EQ(q.usage().connections, 0u);

  nsm_config fresh = q.rig.client.module->config();
  fresh.name = "nsm-a2";
  fresh.form = nsm_form::container;
  ce.replace_nsm(dead, fresh);
  q.rig.bed.run_for(milliseconds(200));  // boot + switchover
  EXPECT_TRUE(q.failed.count(first));    // aborted toward the guest
  (void)q.rig.client.glib->nk_close(first);
  q.rig.bed.run_for(milliseconds(1));

  const auto second = q.connect();
  EXPECT_TRUE(q.connected.count(second));
  EXPECT_EQ(q.failed.count(second), 0u);
  EXPECT_EQ(q.usage().connections, 1u);
}

TEST(netkernel_accounting, pricing_models_differ) {
  nk_pair rig;
  apps::bulk_sink sink{*rig.server.api, 7001, false};
  sink.start();
  apps::bulk_sender_config cfg;
  cfg.flows = 1;
  cfg.bytes_per_flow = 4 * 1024 * 1024;
  apps::bulk_sender sender{*rig.client.api,
                           {rig.server.module->config().address, 7001}, cfg};
  sender.start();
  rig.bed.run_for(seconds(2));

  const auto usage = measure(rig.bed.netkernel(side::a), *rig.client.module,
                             rig.bed.sim().now(), 5.0);
  EXPECT_GT(usage.cpu_busy, sim_time::zero());
  // Metered from the NSM's own ServiceLib counters: the 4 MiB handed to
  // the stack, without the caller filling anything in.
  EXPECT_GE(usage.bytes_moved, 4u * 1024 * 1024);

  const double flat = charge(pricing_model::per_instance, usage);
  const double metered = charge(pricing_model::usage_based, usage);
  const double sla = charge(pricing_model::sla_based, usage);
  EXPECT_GT(flat, 0.0);
  EXPECT_GT(metered, 0.0);
  EXPECT_GT(sla, 0.0);
  EXPECT_FALSE(invoice_line(pricing_model::usage_based, usage).empty());
}

TEST(netkernel_datapath, sriov_nsm_bypasses_the_software_switch) {
  nk_pair rig;  // default NSMs are SR-IOV VFs
  apps::bulk_sink sink{*rig.server.api, 7001, false};
  sink.start();
  apps::bulk_sender_config cfg;
  cfg.flows = 1;
  cfg.bytes_per_flow = 512 * 1024;
  apps::bulk_sender sender{*rig.client.api,
                           {rig.server.module->config().address, 7001}, cfg};
  sender.start();
  rig.bed.run_for(seconds(1));
  ASSERT_EQ(sink.total_bytes(), 512u * 1024);
  // Every forwarded packet took the embedded (hardware) path.
  const auto& sw = rig.bed.host(apps::side::a).overlay_switch().stats();
  EXPECT_GT(sw.embedded_forwards, 0u);
  EXPECT_EQ(sw.software_forwards, 0u);
}

TEST(netkernel_datapath, non_sriov_nsm_pays_the_software_switch) {
  auto params = apps::datacenter_params(8);
  apps::testbed bed{params};
  core::nsm_config nsm_cfg;
  nsm_cfg.sriov = false;  // software vSwitch path
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "a";
  auto a = bed.add_netkernel_vm(apps::side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "b";
  nsm_cfg.name = "nsm-b";
  auto b = bed.add_netkernel_vm(apps::side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*b.api, 7001, false};
  sink.start();
  apps::bulk_sender_config cfg;
  cfg.flows = 1;
  cfg.bytes_per_flow = 256 * 1024;
  apps::bulk_sender sender{*a.api, {b.module->config().address, 7001}, cfg};
  sender.start();
  bed.run_for(seconds(1));
  ASSERT_EQ(sink.total_bytes(), 256u * 1024);
  EXPECT_GT(bed.host(apps::side::a).overlay_switch().stats().software_forwards,
            0u);
}

TEST(netkernel_notification, batched_interrupt_mode_works_end_to_end) {
  auto params = apps::datacenter_params(3);
  params.netkernel.notification.kind =
      notify_config::mode::batched_interrupt;
  params.netkernel.notification.interrupt_delay = microseconds(3);
  testbed bed{params};

  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "a";
  auto a = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "b";
  nsm_cfg.name = "nsm-b";
  auto b = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*b.api, 7001, true};
  sink.start();
  apps::bulk_sender_config cfg;
  cfg.flows = 1;
  cfg.bytes_per_flow = 1024 * 1024;
  apps::bulk_sender sender{*a.api, {b.module->config().address, 7001}, cfg};
  sender.start();

  bed.run_for(seconds(5));
  EXPECT_EQ(sink.total_bytes(), 1024u * 1024);
  EXPECT_TRUE(sink.pattern_ok());
}

TEST(netkernel_guestlib, epoll_reports_ready_sets) {
  nk_pair rig;
  auto& glib_s = *rig.server.glib;
  const auto lfd = glib_s.nk_socket().value();
  ASSERT_TRUE(glib_s.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(glib_s.nk_listen(lfd).ok());
  const auto epfd = glib_s.nk_epoll_create().value();
  ASSERT_TRUE(glib_s.nk_epoll_add(epfd, lfd).ok());

  auto& glib_c = *rig.client.glib;
  const auto cfd = glib_c.nk_socket().value();
  ASSERT_TRUE(
      glib_c.nk_connect(cfd, {rig.server.module->config().address, 7000}).ok());
  rig.bed.run_for(milliseconds(100));

  // Listener readable (accept pending) via epoll.
  auto ready = glib_s.nk_epoll_wait(epfd);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].fd, lfd);
  EXPECT_TRUE(ready[0].readable);

  const auto conn = glib_s.nk_accept(lfd).value();
  ASSERT_TRUE(glib_s.nk_epoll_add(epfd, conn).ok());
  ASSERT_TRUE(glib_s.nk_epoll_del(epfd, lfd).ok());

  (void)glib_c.nk_send(cfd, buffer::pattern(100, 0));
  rig.bed.run_for(milliseconds(100));
  ready = glib_s.nk_epoll_wait(epfd);
  bool conn_readable = false;
  for (const auto& ev : ready) {
    if (ev.fd == conn && ev.readable) conn_readable = true;
  }
  EXPECT_TRUE(conn_readable);
}

TEST(netkernel_guestlib, close_releases_mapping_and_chunks) {
  nk_pair rig;
  auto& glib_s = *rig.server.glib;
  const auto lfd = glib_s.nk_socket().value();
  ASSERT_TRUE(glib_s.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(glib_s.nk_listen(lfd).ok());
  glib_s.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                               errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      (void)glib_s.nk_accept(lfd);
    }
  });

  auto& glib_c = *rig.client.glib;
  const auto fd = glib_c.nk_socket().value();
  ASSERT_TRUE(
      glib_c.nk_connect(fd, {rig.server.module->config().address, 7000}).ok());
  rig.bed.run_for(milliseconds(50));
  ASSERT_TRUE(glib_c.nk_send(fd, buffer::pattern(8192, 0)).ok());
  rig.bed.run_for(milliseconds(50));
  ASSERT_TRUE(glib_c.nk_close(fd).ok());
  rig.bed.run_for(milliseconds(500));

  auto* ch = rig.bed.netkernel(side::a).channel_of(rig.client.vm->id());
  // All chunks must have come back to the free list.
  EXPECT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count());
  EXPECT_GT(rig.bed.netkernel(side::a).stats().mappings_removed, 0u);
}

// Tiny rings (depth 8) force every queue in the pipeline to overflow, and
// an abrupt mid-stream close adds unroutable events on top. Afterward the
// failure-accounting invariant must hold on both hosts: all chunks back in
// the pool, no stuck flows, every traced nqe either delivered or visible in
// the drop counters.
TEST(netkernel_backpressure, tiny_rings_lose_no_nqes_or_chunks) {
  auto params = apps::datacenter_params(7);
  params.netkernel.channel.queues.depth = 8;
  params.netkernel.overflow_limit = 64;
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.sample_rate = 1.0;
  params.netkernel.trace.max_active = 1 << 16;
  params.netkernel.trace.max_spans = 1 << 17;
  testbed bed{params};

  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.cc = tcp::cc_algorithm::cubic;
  virt::vm_config vm_cfg;
  vm_cfg.name = "tenant-a";
  auto client = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "tenant-b";
  nsm_cfg.name = "nsm-b";
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  // Workload 1: bulk transfer, 2 flows x 1 MB, validated end to end.
  apps::bulk_sink sink{*server.api, 7001, /*validate=*/true};
  sink.start();
  apps::bulk_sender_config bcfg;
  bcfg.flows = 2;
  bcfg.bytes_per_flow = 1024 * 1024;
  apps::bulk_sender sender{*client.api,
                           {server.module->config().address, 7001}, bcfg};
  sender.start();

  // Workload 2, on its own tenant pair (the unified API above owns the
  // first pair's event handlers): the server streams at the client, which
  // closes after the first readable event — the rest of the stream arrives
  // for a torn-down mapping and must be recycled, not leaked.
  vm_cfg.name = "tenant-c";
  nsm_cfg.name = "nsm-c";
  auto client2 = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "tenant-d";
  nsm_cfg.name = "nsm-d";
  auto server2 = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
  // Workload 3's chunk cap (see below).
  bed.netkernel(side::b).sla().set_tenant(server2.vm->id(),
                                          sla_spec{.chunk_quota = 32});
  auto& glib_s = *server2.glib;
  auto& glib_c = *client2.glib;
  const auto lfd = glib_s.nk_socket().value();
  ASSERT_TRUE(glib_s.nk_bind(lfd, 7002).ok());
  ASSERT_TRUE(glib_s.nk_listen(lfd).ok());
  std::uint32_t sconn = 0;
  // The second server is also the sink of workload 3 below.
  const auto ufd = glib_s.nk_udp_open(7003).value();
  std::size_t datagrams = 0;
  bool reading = false;  // workload 3's sink reads only from 3 ms on
  glib_s.set_event_handler(
      [&](std::uint32_t fd, stack::socket_event_type t, errc) {
        if (fd == lfd && t == stack::socket_event_type::accept_ready) {
          sconn = glib_s.nk_accept(lfd).value();
          (void)glib_s.nk_send(sconn, buffer::pattern(512 * 1024, 1));
        } else if (fd == sconn && t == stack::socket_event_type::writable) {
          (void)glib_s.nk_send(sconn, buffer::pattern(64 * 1024, 1));
        } else if (fd == ufd && t == stack::socket_event_type::readable &&
                   reading) {
          while (glib_s.nk_udp_recv_from(ufd).ok()) ++datagrams;
        }
      });
  const auto cfd = glib_c.nk_socket().value();
  bool closed = false;
  glib_c.set_event_handler(
      [&](std::uint32_t fd, stack::socket_event_type t, errc) {
        if (fd == cfd && t == stack::socket_event_type::readable && !closed) {
          closed = true;
          (void)glib_c.nk_close(cfd);
        }
      });
  ASSERT_TRUE(
      glib_c.nk_connect(cfd, {server2.module->config().address, 7002}).ok());

  // Workload 3, aimed at ServiceLib's out-lanes: both clients fan a UDP
  // burst in on the second server, whose app leaves it unread until 3 ms.
  // The guest then holds its 32-chunk cap, so the NSM's reads stall
  // and the rest of the burst piles up in the socket. Each time the app
  // frees its chunks, the resumed read commits up to 32 ev_udp_data at
  // once — more than the depth-8 receive ring holds — so ServiceLib stages.
  const net::socket_addr udp_sink{server2.module->config().address, 7003};
  bed.sim().schedule(milliseconds(1), [&] {
    for (guest_lib* src : {client.glib, &glib_c}) {
      const auto sfd = src->nk_udp_open().value();
      for (int i = 0; i < 128; ++i) {
        (void)src->nk_udp_send_to(sfd, udp_sink, buffer::pattern(64, i));
      }
    }
  });
  bed.sim().schedule(milliseconds(3), [&] {
    reading = true;
    while (glib_s.nk_udp_recv_from(ufd).ok()) ++datagrams;
  });

  bed.run_for(seconds(5));
  EXPECT_TRUE(closed);
  EXPECT_GT(datagrams, 0u);
  EXPECT_GT(bed.netkernel(side::b)
                .service_of(server2.module->id())
                ->stats()
                .chunk_quota_stalls,
            0u);

  // No permanently stuck flows: the bulk transfer ran to completion through
  // depth-8 rings.
  EXPECT_EQ(sink.total_bytes(), 2u * 1024 * 1024);
  EXPECT_TRUE(sink.pattern_ok());
  EXPECT_EQ(sender.flows_done(), 2);

  // Zero chunk leaks on every channel of both hosts.
  for (auto* ce : {&bed.netkernel(side::a), &bed.netkernel(side::b)}) {
    for (const auto vm : ce->attached_vms()) {
      auto* ch = ce->channel_of(vm);
      EXPECT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count());
    }
  }

  // The tiny rings must actually have exercised the staged lanes of every
  // layer: GuestLib's job lanes, ServiceLib's out-lanes and the engine's own.
  std::uint64_t guest_deferred = 0;
  std::uint64_t service_deferred = 0;
  std::uint64_t engine_deferred = 0;
  for (auto* ce : {&bed.netkernel(side::a), &bed.netkernel(side::b)}) {
    engine_deferred += ce->stats().nqes_deferred;
    for (const auto& module : ce->nsms()) {
      service_deferred += ce->service_of(module->id())->stats().nqes_deferred;
    }
    for (const auto vm : ce->attached_vms()) {
      guest_deferred += ce->guestlib_of(vm)->stats().jobs_deferred;
    }
  }
  EXPECT_GT(guest_deferred, 0u);
  EXPECT_GT(service_deferred, 0u);
  EXPECT_GT(engine_deferred, 0u);

  // Failure accounting: with every nqe traced (sample_rate 1, no tracer
  // overflow), each loss to unroutable teardown or an overflow cap is
  // visible to the tracer — nothing vanished silently. (With
  // -DNK_DISABLE_TRACING the tracer observes nothing, so the invariant
  // only holds when the hooks are compiled in.)
#ifndef NK_NO_TRACING
  for (auto* ce : {&bed.netkernel(side::a), &bed.netkernel(side::b)}) {
    const auto& m = ce->metrics();
    EXPECT_EQ(m.value_of("nqe_traces_overflow").value_or(0.0), 0.0);
    const double lost = m.value_of("engine_unroutable_nqes").value_or(0.0) +
                        m.value_of("engine_nqes_dropped").value_or(0.0);
    EXPECT_EQ(lost, m.value_of("nqe_traces_dropped").value_or(0.0));
  }
#endif
}

// GuestLib frees consumed receive chunks straight into the shared pool,
// with no nqe and no doorbell toward the NSM. A read ServiceLib stalled on
// an exhausted pool must still resume by itself once the app drains — also
// under batched interrupts, where no other producer wakes the NSM's pump.
class netkernel_stall_wake
    : public ::testing::TestWithParam<notify_config::mode> {};

TEST_P(netkernel_stall_wake, chunk_stalled_read_resumes_after_app_drains) {
  auto params = apps::datacenter_params(11);
  params.netkernel.notification.kind = GetParam();
  params.netkernel.notification.interrupt_delay = microseconds(3);
  params.netkernel.channel.hugepages.page_count = 1;  // 256 chunks
  testbed bed{params};

  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "tx";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "rx";
  nsm_cfg.name = "nsm-rx";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  // The reader leaves the stream unread until `resume`: 8 MB is far more
  // than the 2 MB pool, so ServiceLib chunk-stalls long before then.
  constexpr std::uint64_t total = 8u << 20;
  const sim_time resume = milliseconds(20);
  auto& glib = *rx.glib;
  const auto lfd = glib.nk_socket().value();
  ASSERT_TRUE(glib.nk_bind(lfd, 7001).ok());
  ASSERT_TRUE(glib.nk_listen(lfd).ok());
  std::uint32_t conn = 0;
  bool reading = false;
  std::uint64_t received = 0;
  sim_time last_byte{};
  auto drain = [&] {
    while (auto r = glib.nk_recv(conn, 1 << 20)) {
      received += r.value().size();
      last_byte = bed.sim().now();
    }
  };
  glib.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                             errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      conn = glib.nk_accept(lfd).value();
    } else if (fd == conn && t == stack::socket_event_type::readable &&
               reading) {
      drain();
    }
  });
  bed.sim().schedule(resume, [&] {
    reading = true;
    drain();
  });

  apps::bulk_sender_config cfg;
  cfg.bytes_per_flow = total;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 7001}, cfg};
  sender.start();
  bed.run_for(milliseconds(40));

  auto* svc = bed.netkernel(side::b).service_of(rx.module->id());
  EXPECT_GT(svc->stats().chunk_stalls, 0u);
  EXPECT_EQ(received, total);
  // About 1 ms of line-rate streaming after the resume; a wakeup left to
  // chance (a TCP timer, a stray doorbell) takes twice as long.
  EXPECT_LT(last_byte - resume, microseconds(1500));
}

INSTANTIATE_TEST_SUITE_P(
    notify_modes, netkernel_stall_wake,
    ::testing::Values(notify_config::mode::polling,
                      notify_config::mode::batched_interrupt),
    [](const ::testing::TestParamInfo<notify_config::mode>& info) {
      return info.param == notify_config::mode::polling
                 ? std::string{"polling"}
                 : std::string{"batched_interrupt"};
    });

// Overflow-cap drop of pure data. The sink's app leaves a UDP burst unread
// until 3 ms, so it holds its 32-chunk cap and the rest of the burst
// piles up in the socket. Each resumed read commits up to 32 ev_udp_data at
// once into a depth-8 receive ring with a 2-deep stage: the surplus drops
// at ServiceLib's cap. Datagram loss is legal; a leaked chunk or a drop the
// tracer did not see is not.
TEST(netkernel_backpressure, udp_burst_drops_at_the_cap_and_frees_chunks) {
  auto params = apps::datacenter_params(17);
  params.netkernel.channel.queues.depth = 8;
  params.netkernel.overflow_limit = 2;
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.sample_rate = 1.0;
  testbed bed{params};

  nsm_config nsm_cfg;
  virt::vm_config vm_cfg;
  vm_cfg.name = "udp-tx";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "udp-rx";
  nsm_cfg.name = "nsm-rx";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
  bed.netkernel(side::b).sla().set_tenant(rx.vm->id(),
                                          sla_spec{.chunk_quota = 32});

  constexpr std::size_t burst = 128;
  auto& sink = *rx.glib;
  const auto ufd = sink.nk_udp_open(7003).value();
  bool reading = false;
  std::size_t datagrams = 0;
  sink.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                             errc) {
    if (fd == ufd && t == stack::socket_event_type::readable && reading) {
      while (sink.nk_udp_recv_from(ufd).ok()) ++datagrams;
    }
  });
  bed.sim().schedule(milliseconds(1), [&] {
    const auto sfd = tx.glib->nk_udp_open().value();
    for (std::size_t i = 0; i < burst; ++i) {
      ASSERT_TRUE(tx.glib
                      ->nk_udp_send_to(sfd, {rx.module->config().address, 7003},
                                       buffer::pattern(64, i))
                      .ok());
    }
  });
  bed.sim().schedule(milliseconds(3), [&] {
    reading = true;
    while (sink.nk_udp_recv_from(ufd).ok()) ++datagrams;
  });
  bed.run_for(milliseconds(20));

  core_engine& ce = bed.netkernel(side::b);
  const auto dropped = ce.service_of(rx.module->id())->stats().nqes_dropped;
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(datagrams, 0u);
  EXPECT_EQ(datagrams + dropped, burst);

  // Every dropped datagram's chunk went back to the pool.
  for (auto* engine : {&bed.netkernel(side::a), &ce}) {
    for (const auto vm : engine->attached_vms()) {
      auto* ch = engine->channel_of(vm);
      EXPECT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count());
    }
  }

#ifndef NK_NO_TRACING
  for (auto* engine : {&bed.netkernel(side::a), &ce}) {
    for (std::size_t s = 0; s < engine->shards(); ++s) {
      const auto& st = engine->shard_stats(s);
      EXPECT_EQ(st.unroutable_nqes + st.nqes_dropped + st.stale_nqes +
                    st.rejected_nqes,
                engine->shard_traces_dropped(s) +
                    engine->shard_discards_untraced(s))
          << "shard " << s;
    }
    // ServiceLib's cap drops are traced too: nothing vanished unseen.
    const auto& m = engine->metrics();
    EXPECT_EQ(m.value_of("engine_unroutable_nqes").value_or(0.0) +
                  m.value_of("engine_nqes_dropped").value_or(0.0),
              m.value_of("nqe_traces_dropped").value_or(0.0));
  }
#endif
}

TEST(core_engine, detach_vm_reclaims_channel_and_metrics) {
  testbed bed{apps::datacenter_params(77)};
  nsm_config nsm_cfg;
  virt::vm_config vm_cfg;
  vm_cfg.name = "t1";
  auto t1 = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "t2";
  auto t2 = bed.attach_netkernel_vm(side::a, vm_cfg, *t1.module);
  bed.run_for(milliseconds(10));

  // Leave work in flight: an open socket plus a connect that will never
  // complete. detach_vm must scrub the mapping table and recycle whatever
  // the rings still hold.
  const auto fd = t1.glib->nk_socket().value();
  (void)t1.glib->nk_connect(fd, {bed.next_address(side::b), 7000});

  core_engine& ce = bed.netkernel(side::a);
  const auto vm1 = t1.vm->id();
  const std::string prefix = "vm" + std::to_string(vm1) + "_";
  ASSERT_TRUE(ce.metrics().value_of(prefix + "vmq_job_depth").has_value());
  auto* ch = ce.channel_of(vm1);
  ASSERT_NE(ch, nullptr);

  ce.detach_vm(vm1);
  bed.run_for(milliseconds(10));

  EXPECT_EQ(ce.channel_of(vm1), nullptr);
  EXPECT_EQ(ce.guestlib_of(vm1), nullptr);
  EXPECT_FALSE(ce.metrics().value_of(prefix + "vmq_job_depth").has_value());
  EXPECT_EQ(ce.attached_vms().size(), 1u);
  // The retired channel's pool got every chunk back.
  EXPECT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count());

  // The surviving tenant on the same NSM is unaffected.
  EXPECT_NE(ce.channel_of(t2.vm->id()), nullptr);
  const auto fd2 = t2.glib->nk_socket().value();
  bed.run_for(milliseconds(10));
  EXPECT_TRUE(t2.glib->nk_bind(fd2, 7100).ok());
}

// Regression for a family of rehash bugs: handler code held references and
// iterators into by_flow_ / by_nsm_ / sockets_ across inserts into the same
// maps (ev_accept resolved the listener, then inserted the child — a rehash
// invalidated the listener iterator). Waves of concurrent accepts grow the
// tables through several rehash points mid-callback; every connection must
// still echo correctly and every chunk must come home.
TEST(netkernel_churn, accept_close_churn_survives_table_rehashes) {
  nk_pair rig;
  auto& glib_s = *rig.server.glib;
  auto& glib_c = *rig.client.glib;

  const auto lfd = glib_s.nk_socket().value();
  ASSERT_TRUE(glib_s.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(glib_s.nk_listen(lfd).ok());
  glib_s.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                               errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      while (glib_s.nk_accept(lfd).ok()) {
      }
    } else if (t == stack::socket_event_type::readable) {
      while (auto r = glib_s.nk_recv(fd, 1 << 20)) {
        (void)glib_s.nk_send(fd, std::move(r).value());
      }
    }
  });

  int echoed = 0;
  glib_c.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                               errc) {
    if (t == stack::socket_event_type::connected) {
      (void)glib_c.nk_send(fd, buffer::pattern(4096, fd));
    } else if (t == stack::socket_event_type::readable) {
      buffer_chain got;
      while (auto r = glib_c.nk_recv(fd, 1 << 20)) {
        got.append(std::move(r).value());
      }
      if (got.size() == 4096) {
        EXPECT_TRUE(got.pop(4096).matches_pattern(fd));
        ++echoed;
        (void)glib_c.nk_close(fd);
      }
    }
  });

  // Three waves of 16 concurrent connects: each wave inserts 16 flows into
  // by_flow_ (client side) and mints 16 accept children into by_nsm_
  // (server side) while the previous wave's entries are being erased.
  constexpr int waves = 3;
  constexpr int per_wave = 16;
  for (int w = 0; w < waves; ++w) {
    for (int i = 0; i < per_wave; ++i) {
      const auto fd = glib_c.nk_socket().value();
      ASSERT_TRUE(glib_c
                      .nk_connect(fd,
                                  {rig.server.module->config().address, 7000})
                      .ok());
    }
    rig.bed.run_for(milliseconds(500));
  }
  rig.bed.run_for(seconds(2));

  EXPECT_EQ(echoed, waves * per_wave);
  EXPECT_EQ(rig.bed.netkernel(side::b).stats().accept_fds_minted,
            static_cast<std::uint64_t>(waves * per_wave));
  for (auto* ce : {&rig.bed.netkernel(side::a), &rig.bed.netkernel(side::b)}) {
    for (const auto vm : ce->attached_vms()) {
      auto* ch = ce->channel_of(vm);
      EXPECT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count());
    }
  }
}

// A four-shard rig: both hosts' engines run four independent shards.
struct sharded_pair {
  explicit sharded_pair(std::uint64_t seed = 11, std::size_t shards = 4)
      : bed{[&] {
          auto p = apps::datacenter_params(seed);
          p.netkernel.shards = shards;
          return p;
        }()} {
    nsm_config nsm_cfg;
    nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
    virt::vm_config vm_cfg;
    vm_cfg.name = "tenant-a";
    client = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
    vm_cfg.name = "tenant-b";
    nsm_cfg.name = "nsm-b";
    server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
  }

  testbed bed;
  apps::nk_tenant client;
  apps::nk_tenant server;
};

TEST(netkernel_sharding, four_shards_carry_traffic_and_sum_to_aggregate) {
  sharded_pair rig;
  core_engine& ce = rig.bed.netkernel(side::a);
  ASSERT_EQ(ce.shards(), 4u);

  apps::bulk_sink sink{*rig.server.api, 7001, /*validate=*/true};
  sink.start();
  apps::bulk_sender_config cfg;
  cfg.flows = 8;  // eight fds hash across the four shards
  cfg.bytes_per_flow = 512 * 1024;
  apps::bulk_sender sender{*rig.client.api,
                           {rig.server.module->config().address, 7001}, cfg};
  sender.start();
  rig.bed.run_for(seconds(5));

  // The workload is unaffected by sharding.
  EXPECT_EQ(sink.total_bytes(), 8u * 512 * 1024);
  EXPECT_TRUE(sink.pattern_ok());
  EXPECT_EQ(sender.flows_done(), 8);

  // The aggregate is exactly the sum of the shard partitions, and the
  // steering hash spread eight flows over more than one shard.
  for (auto* eng : {&ce, &rig.bed.netkernel(side::b)}) {
    core_engine_stats sum;
    std::size_t busy = 0;
    for (std::size_t s = 0; s < eng->shards(); ++s) {
      const auto& st = eng->shard_stats(s);
      sum.nqes_forwarded += st.nqes_forwarded;
      sum.accept_fds_minted += st.accept_fds_minted;
      sum.mappings_installed += st.mappings_installed;
      sum.mappings_removed += st.mappings_removed;
      if (st.nqes_forwarded > 0) ++busy;
    }
    const auto agg = eng->stats();
    EXPECT_EQ(sum.nqes_forwarded, agg.nqes_forwarded);
    EXPECT_EQ(sum.accept_fds_minted, agg.accept_fds_minted);
    EXPECT_EQ(sum.mappings_installed, agg.mappings_installed);
    EXPECT_GE(busy, 2u);
    // Per-shard gauges materialize only in sharded mode, and agree with the
    // partition they mirror.
    const auto g0 =
        eng->metrics().value_of("engine_shard0_nqes_forwarded");
    ASSERT_TRUE(g0.has_value());
    EXPECT_EQ(static_cast<std::uint64_t>(*g0),
              eng->shard_stats(0).nqes_forwarded);
  }
}

TEST(netkernel_sharding, rebalance_rehomes_quiescent_vm_and_traffic_survives) {
  sharded_pair rig;
  core_engine& ce = rig.bed.netkernel(side::a);
  auto& glib_s = *rig.server.glib;
  auto& glib_c = *rig.client.glib;

  const auto lfd = glib_s.nk_socket().value();
  ASSERT_TRUE(glib_s.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(glib_s.nk_listen(lfd).ok());
  std::uint32_t sconn = 0;
  glib_s.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                               errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      sconn = glib_s.nk_accept(lfd).value();
    } else if (fd == sconn && t == stack::socket_event_type::readable) {
      while (auto r = glib_s.nk_recv(sconn, 1 << 20)) {
        (void)glib_s.nk_send(sconn, std::move(r).value());
      }
    }
  });

  std::vector<std::uint32_t> fds;
  for (int i = 0; i < 4; ++i) fds.push_back(glib_c.nk_socket().value());
  buffer_chain echoed;
  glib_c.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                               errc) {
    if (t == stack::socket_event_type::readable) {
      while (auto r = glib_c.nk_recv(fd, 1 << 20)) {
        echoed.append(std::move(r).value());
      }
    }
  });
  ASSERT_TRUE(glib_c
                  .nk_connect(fds[0],
                              {rig.server.module->config().address, 7000})
                  .ok());
  rig.bed.run_for(milliseconds(100));

  // Fresh sockets home on their steering hash.
  const auto vm = rig.client.vm->id();
  std::size_t away_from_1 = 0;
  for (const auto fd : fds) {
    const auto home = ce.shard_of(vm, fd);
    ASSERT_TRUE(home.has_value());
    EXPECT_EQ(*home, shm::flow_shard(vm, fd, ce.shards()));
    if (*home != 1) ++away_from_1;
  }
  ASSERT_GT(away_from_1, 0u);

  // Quiescent now — re-home everything onto shard 1 (flows already living
  // there are not re-moved).
  const std::size_t moved = ce.rebalance_vm(vm, 1);
  EXPECT_EQ(moved, away_from_1);
  for (const auto fd : fds) {
    EXPECT_EQ(ce.shard_of(vm, fd).value_or(99), 1u);
  }
  EXPECT_EQ(ce.metrics().value_of("shard_rebalances").value_or(0.0),
            static_cast<double>(moved));

  // The connected flow still works end to end on its new home shard.
  ASSERT_TRUE(glib_c.nk_send(fds[0], buffer::pattern(50000, 3)).ok());
  rig.bed.run_for(seconds(1));
  ASSERT_EQ(echoed.size(), 50000u);
  EXPECT_TRUE(echoed.pop(50000).matches_pattern(3));

  // Rebalancing an unknown VM, or to an out-of-range shard, moves nothing.
  EXPECT_EQ(ce.rebalance_vm(9999, 1), 0u);
  EXPECT_EQ(ce.rebalance_vm(vm, 17), 0u);
}

TEST(netkernel_sharding, detach_vm_scrubs_every_shard) {
  sharded_pair rig;
  core_engine& ce = rig.bed.netkernel(side::a);

  // Open enough sockets that every shard owns at least one mapping, with a
  // connect left permanently in flight (work parked in rings and stages).
  auto& glib = *rig.client.glib;
  std::vector<std::uint32_t> fds;
  for (int i = 0; i < 16; ++i) fds.push_back(glib.nk_socket().value());
  rig.bed.run_for(milliseconds(20));
  (void)glib.nk_connect(fds[0], {rig.bed.next_address(side::b), 7000});

  const auto vm = rig.client.vm->id();
  auto* ch = ce.channel_of(vm);
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->shards(), 4u);

  ce.detach_vm(vm);
  rig.bed.run_for(milliseconds(10));

  EXPECT_EQ(ce.channel_of(vm), nullptr);
  for (const auto fd : fds) {
    EXPECT_FALSE(ce.shard_of(vm, fd).has_value());
  }
  // Every chunk came home from every lane and stage of every shard.
  EXPECT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count());
}

TEST(netkernel_sharding, failover_replays_flows_within_owning_shards) {
  auto params = apps::datacenter_params(13);
  params.netkernel.shards = 4;
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.sample_rate = 1.0;
  params.netkernel.trace.max_active = 1 << 16;
  params.netkernel.trace.max_spans = 1 << 17;
  testbed bed{params};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "client";
  auto client = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "server";
  nsm_cfg.name = "nsm-b";
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  auto& gs = *server.glib;
  const auto lfd = gs.nk_socket().value();
  ASSERT_TRUE(gs.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(gs.nk_listen(lfd).ok());
  gs.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                           errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      while (gs.nk_accept(lfd).ok()) {
      }
    }
  });

  auto& gc = *client.glib;
  std::vector<std::uint32_t> fds;
  int connected = 0;
  int reset = 0;
  gc.set_event_handler([&](std::uint32_t, stack::socket_event_type t,
                           errc e) {
    if (t == stack::socket_event_type::connected) ++connected;
    if (t == stack::socket_event_type::error && e == errc::nsm_reset) ++reset;
  });
  for (int i = 0; i < 4; ++i) {
    const auto fd = gc.nk_socket().value();
    fds.push_back(fd);
    ASSERT_TRUE(
        gc.nk_connect(fd, {server.module->config().address, 7000}).ok());
  }
  bed.run_for(milliseconds(100));
  ASSERT_EQ(connected, 4);

  // Remember each flow's home shard, then crash and replace the client-side
  // NSM. Established TCP flows die with the stack (nsm_reset toward the
  // guest); the mapping table keeps its steering across the epoch bump.
  core_engine& ce = bed.netkernel(side::a);
  const auto vm = client.vm->id();
  std::vector<std::size_t> homes;
  for (const auto fd : fds) homes.push_back(ce.shard_of(vm, fd).value());

  const nsm_id dead = client.module->id();
  ce.service_of(dead)->fail();
  nsm_config fresh_cfg = client.module->config();
  fresh_cfg.name = "nsm-a2";
  fresh_cfg.form = nsm_form::container;  // 60 ms boot, not the VM's 900 ms
  ce.replace_nsm(dead, fresh_cfg);
  bed.run_for(milliseconds(200));  // boot + switchover + error delivery

  EXPECT_EQ(reset, 4);
  for (std::size_t i = 0; i < fds.size(); ++i) {
    // Doomed flows were scrubbed from exactly their owning shard...
    EXPECT_FALSE(ce.shard_of(vm, fds[i]).has_value()) << "fd " << fds[i];
  }

  // ...and a brand-new connect through the replacement module works.
  const auto fd2 = gc.nk_socket().value();
  ASSERT_TRUE(
      gc.nk_connect(fd2, {server.module->config().address, 7000}).ok());
  bed.run_for(milliseconds(100));
  EXPECT_EQ(connected, 5);

  // Per-shard drop accounting stayed consistent through the failover: every
  // engine-side discard (unroutable, capped, stale) retired a live trace in
  // the shard that discarded it.
#ifndef NK_NO_TRACING
  for (std::size_t s = 0; s < ce.shards(); ++s) {
    const auto& st = ce.shard_stats(s);
    EXPECT_EQ(st.unroutable_nqes + st.nqes_dropped + st.stale_nqes +
                  st.rejected_nqes,
              ce.shard_traces_dropped(s) + ce.shard_discards_untraced(s))
        << "shard " << s;
  }
#endif
}

// --- admission firewall + abuse quarantine (DESIGN.md §14) -----------------

// nk_pair plus a hostile third VM on side a with its own NSM, and a
// test-tuned escalation budget: burst 4 warnings, then throttled, then 8
// more violations quarantine. `burst` can be raised to disable escalation.
struct firewall_rig : nk_pair {
  explicit firewall_rig(sim_time probation,
                        std::uint64_t burst = 4)
      : nk_pair{tcp::cc_algorithm::cubic, 1, [&](apps::testbed_params& p) {
                  p.netkernel.firewall.violations_per_sec = 1.0;
                  p.netkernel.firewall.violation_burst = burst;
                  p.netkernel.firewall.quarantine_threshold = 8;
                  p.netkernel.firewall.probation = probation;
                }} {
    nsm_config nsm_cfg;
    nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
    nsm_cfg.name = "nsm-rogue";
    virt::vm_config vm_cfg;
    vm_cfg.name = "rogue-vm";
    rogue = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  }

  [[nodiscard]] core_engine& engine() { return bed.netkernel(side::a); }
  [[nodiscard]] virt::vm_id rogue_id() const { return rogue->vm->id(); }

  // Storms until the engine quarantines the rogue (or a time cap passes).
  void storm_until_quarantined(hostile_guest& attacker) {
    for (int i = 0; i < 50 && !engine().quarantined(rogue_id()); ++i) {
      attacker.storm(20);
      bed.run_for(milliseconds(1));
    }
  }

  std::optional<apps::nk_tenant> rogue;
};

TEST(netkernel_firewall, each_attack_category_hits_its_reason_counter) {
  // Escalation off: every forgery is rejected individually.
  firewall_rig rig{sim_time::zero(), /*burst=*/1ull << 30};
  hostile_guest attacker{rig.engine(), rig.rogue_id(), 99};

  ASSERT_TRUE(attacker.inject(hostile_guest::attack::bad_op));
  ASSERT_TRUE(attacker.inject(hostile_guest::attack::bad_fd));
  ASSERT_TRUE(attacker.inject(hostile_guest::attack::bad_chunk));
  ASSERT_TRUE(attacker.inject(hostile_guest::attack::bad_epoch));
  ASSERT_TRUE(attacker.inject(hostile_guest::attack::bad_token));
  rig.bed.run_for(milliseconds(5));

  std::array<std::uint64_t, 4> reasons{};
  for (std::size_t s = 0; s < rig.engine().shards(); ++s) {
    const auto& r = rig.engine().shard_rejected_reasons(s);
    for (std::size_t i = 0; i < r.size(); ++i) reasons[i] += r[i];
  }
  EXPECT_EQ(reasons[0], 1u);  // badop
  EXPECT_EQ(reasons[1], 1u);  // badfd
  EXPECT_EQ(reasons[2], 1u);  // badchunk
  EXPECT_EQ(reasons[3], 2u);  // badepoch: epoch/owner forgery + token forgery
  // Violations were logged (warn) but the huge budget prevents escalation.
  EXPECT_EQ(rig.engine().abuse_level_of(rig.rogue_id()), abuse_level::warn);
  EXPECT_FALSE(rig.engine().quarantined(rig.rogue_id()));
}

TEST(netkernel_firewall, escalation_quarantines_rogue_and_spares_neighbor) {
  firewall_rig rig{sim_time::zero()};
  hostile_guest attacker{rig.engine(), rig.rogue_id(), 7};

  EXPECT_EQ(rig.engine().abuse_level_of(rig.rogue_id()), abuse_level::ok);
  rig.storm_until_quarantined(attacker);

  // The rogue ends quarantined and detached; its channel is retired but the
  // decision is on the record.
  EXPECT_TRUE(rig.engine().quarantined(rig.rogue_id()));
  EXPECT_EQ(rig.engine().abuse_level_of(rig.rogue_id()),
            abuse_level::quarantined);
  EXPECT_EQ(rig.engine().channel_of(rig.rogue_id()), nullptr);
  ASSERT_EQ(rig.engine().quarantine_log().size(), 1u);
  const auto& rec = rig.engine().quarantine_log().front();
  EXPECT_EQ(rec.vm, rig.rogue_id());
  EXPECT_EQ(rec.readmit_at, sim_time::zero());  // permanent
  EXPECT_GE(rec.violations, 12u);               // burst 4 + threshold 8
  EXPECT_EQ(rig.engine()
                .metrics()
                .value_of("vms_quarantined")
                .value_or(0.0),
            1.0);

  // The clean tenant on the same engine is untouched: it still connects.
  auto& gs = *rig.server.glib;
  const auto lfd = gs.nk_socket().value();
  ASSERT_TRUE(gs.nk_bind(lfd, 7200).ok());
  ASSERT_TRUE(gs.nk_listen(lfd).ok());
  gs.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                           errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      while (gs.nk_accept(lfd).ok()) {
      }
    }
  });
  auto& gc = *rig.client.glib;
  const auto cfd = gc.nk_socket().value();
  bool connected = false;
  gc.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                           errc) {
    if (fd == cfd && t == stack::socket_event_type::connected) {
      connected = true;
    }
  });
  ASSERT_TRUE(
      gc.nk_connect(cfd, {rig.server.module->config().address, 7200}).ok());
  rig.bed.run_for(milliseconds(100));
  EXPECT_TRUE(connected);

  // No chunk leaked anywhere, the retired rogue channel included.
  for (const auto vm : rig.engine().attached_vms()) {
    auto* ch = rig.engine().channel_of(vm);
    EXPECT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count());
  }
}

TEST(netkernel_firewall, probation_expiry_lifts_quarantine) {
  firewall_rig rig{milliseconds(10)};
  hostile_guest attacker{rig.engine(), rig.rogue_id(), 7};
  rig.storm_until_quarantined(attacker);
  ASSERT_TRUE(rig.engine().quarantined(rig.rogue_id()));

  rig.bed.run_for(milliseconds(12));
  EXPECT_FALSE(rig.engine().quarantined(rig.rogue_id()));

  // A re-attach after probation comes up clean.
  guest_lib& fresh =
      rig.engine().attach_vm(*rig.rogue->vm, *rig.rogue->module);
  (void)fresh;
  EXPECT_EQ(rig.engine().abuse_level_of(rig.rogue_id()), abuse_level::ok);
  EXPECT_NE(rig.engine().channel_of(rig.rogue_id()), nullptr);
}

TEST(netkernel_firewall, reattach_during_probation_stays_quarantined) {
  firewall_rig rig{milliseconds(50)};
  hostile_guest attacker{rig.engine(), rig.rogue_id(), 7};
  rig.storm_until_quarantined(attacker);
  ASSERT_TRUE(rig.engine().quarantined(rig.rogue_id()));
  const sim_time readmit_at = rig.engine().quarantine_log().front().readmit_at;
  ASSERT_GT(readmit_at, rig.bed.sim().now() - milliseconds(50));

  // Probation still running: the VM attaches, but comes up quarantined with
  // its job lanes refused until the clock (scheduled at attach) clears it.
  (void)rig.engine().attach_vm(*rig.rogue->vm, *rig.rogue->module);
  EXPECT_EQ(rig.engine().abuse_level_of(rig.rogue_id()),
            abuse_level::quarantined);

  rig.bed.run_for(milliseconds(60));
  EXPECT_FALSE(rig.engine().quarantined(rig.rogue_id()));
  EXPECT_EQ(rig.engine().abuse_level_of(rig.rogue_id()), abuse_level::ok);
  EXPECT_GE(rig.engine()
                .metrics()
                .value_of("vms_readmitted")
                .value_or(0.0),
            1.0);
}

// --- tenant-facing stat pages (DESIGN.md §16) ------------------------------

// Drives one echo connection, then asks the page for TCP_INFO: the row must
// carry live transport telemetry (srtt, cwnd, byte counters) for the guest
// fd, and the option must be rejected as read-only on the set path.
TEST(netkernel_statpage, tcp_info_live_after_refresh) {
  nk_pair rig;
  auto& gs = *rig.server.glib;
  auto& gc = *rig.client.glib;

  const auto lfd = gs.nk_socket().value();
  ASSERT_TRUE(gs.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(gs.nk_listen(lfd).ok());
  gs.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                           errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      while (gs.nk_accept(lfd).ok()) {
      }
    }
  });
  const auto cfd = gc.nk_socket().value();
  gc.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                           errc) {
    if (fd == cfd && t == stack::socket_event_type::connected) {
      (void)gc.nk_send(cfd, buffer::pattern(200000, 0));
    }
  });
  ASSERT_TRUE(
      gc.nk_connect(cfd, {rig.server.module->config().address, 7000}).ok());
  rig.bed.run_for(seconds(1));

  // The attach-time page predates the connection; a refresh brings it live.
  ASSERT_TRUE(gc.nk_stat_refresh().ok());
  rig.bed.run_for(milliseconds(10));

  const auto info = gc.nk_getsockopt(cfd, nk_option::tcp_info);
  ASSERT_TRUE(info.ok());
  EXPECT_STREQ(info.value().transport, "tcp");
  EXPECT_STREQ(info.value().state, "established");
  EXPECT_STREQ(info.value().cc, "cubic");
  EXPECT_GT(info.value().srtt_ns, 0u);
  EXPECT_GT(info.value().min_rtt_ns, 0u);
  EXPECT_GT(info.value().cwnd_bytes, 0u);
  EXPECT_GT(info.value().bytes_out, 0u);
  EXPECT_EQ(info.value().remote_port, 7000u);

  const auto vm = gc.nk_stack_stats();
  ASSERT_TRUE(vm.ok());
  EXPECT_GT(vm.value().publish_seq, 1u);  // attach publish + refresh
  EXPECT_EQ(vm.value().epoch, 0u);
  EXPECT_EQ(vm.value().flags & shm::stat_frozen, 0u);
  EXPECT_GE(vm.value().sockets, 1u);
  EXPECT_GT(vm.value().pool_chunks_free, 0u);

  // TCP_INFO is read-only and unknown fds have no row.
  EXPECT_EQ(gc.nk_setsockopt(cfd, nk_option::tcp_info, 1).error(),
            errc::invalid_argument);
  EXPECT_EQ(gc.nk_getsockopt(0xdeadu, nk_option::tcp_info).error(),
            errc::not_found);
  EXPECT_EQ(gc.nk_getsockopt(cfd, nk_option::nagle).error(),
            errc::not_supported);
}

// Same contract over the nkq transport: a guest on an nkq-backed NSM gets
// live rows tagged "nkq" with the reliable-UDP stack's telemetry.
TEST(netkernel_statpage, nkq_socket_reports_live_stats) {
  testbed bed{apps::datacenter_params(3)};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.transport = "nkq";
  virt::vm_config vm_cfg;
  vm_cfg.name = "nkq-client";
  auto client = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "nkq-server";
  nsm_cfg.name = "nsm-nkq-srv";
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  auto& gs = *server.glib;
  auto& gc = *client.glib;
  const auto lfd = gs.nk_socket().value();
  ASSERT_TRUE(gs.nk_bind(lfd, 7100).ok());
  ASSERT_TRUE(gs.nk_listen(lfd).ok());
  gs.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                           errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      while (gs.nk_accept(lfd).ok()) {
      }
    }
  });
  const auto cfd = gc.nk_socket().value();
  gc.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                           errc) {
    if (fd == cfd && t == stack::socket_event_type::connected) {
      (void)gc.nk_send(cfd, buffer::pattern(100000, 0));
    }
  });
  ASSERT_TRUE(
      gc.nk_connect(cfd, {server.module->config().address, 7100}).ok());
  bed.run_for(seconds(1));

  ASSERT_TRUE(gc.nk_stat_refresh().ok());
  bed.run_for(milliseconds(10));

  const auto info = gc.nk_getsockopt(cfd, nk_option::tcp_info);
  ASSERT_TRUE(info.ok());
  EXPECT_STREQ(info.value().transport, "nkq");
  EXPECT_GT(info.value().srtt_ns, 0u);
  EXPECT_GT(info.value().cwnd_bytes, 0u);
  EXPECT_GT(info.value().bytes_out, 0u);
}

// NSM failover republishes the page under the bumped attachment epoch, so a
// purely in-guest reader can tell its stack was replaced.
TEST(netkernel_statpage, failover_bumps_page_epoch) {
  nk_pair rig;
  auto& gc = *rig.client.glib;
  rig.bed.run_for(milliseconds(10));
  ASSERT_TRUE(gc.nk_stack_stats().ok());
  ASSERT_EQ(gc.nk_stack_stats().value().epoch, 0u);

  core_engine& ce = rig.bed.netkernel(side::a);
  const nsm_id dead = rig.client.module->id();
  ce.service_of(dead)->fail();
  nsm_config fresh = rig.client.module->config();
  fresh.name = "nsm-a2";
  fresh.form = nsm_form::container;
  ce.replace_nsm(dead, fresh);
  rig.bed.run_for(milliseconds(200));  // boot + switchover republish

  const auto vm = gc.nk_stack_stats();
  ASSERT_TRUE(vm.ok());
  EXPECT_EQ(vm.value().epoch, 1u);
  EXPECT_EQ(vm.value().flags & shm::stat_frozen, 0u);
}

// Quarantine freezes the page: the terminal snapshot carries stat_frozen and
// never advances again, even though the retired channel stays mapped.
TEST(netkernel_statpage, quarantine_freezes_page) {
  firewall_rig rig{sim_time::zero()};
  auto& rogue_glib = *rig.rogue->glib;
  hostile_guest attacker{rig.engine(), rig.rogue_id(), 21};
  rig.storm_until_quarantined(attacker);
  ASSERT_TRUE(rig.engine().quarantined(rig.rogue_id()));

  // The guest can still read its (terminal) page through the retired
  // channel and learns why its sockets died.
  shm::stat_snapshot snap;
  ASSERT_TRUE(rogue_glib.nk_stat_snapshot(snap));
  EXPECT_NE(snap.vm.flags & shm::stat_frozen, 0u);
  const auto frozen_seq = snap.vm.publish_seq;

  // The page never advances again: refresh requests go nowhere (the VM is
  // detached from the engine) and time alone changes nothing.
  rig.bed.run_for(milliseconds(50));
  ASSERT_TRUE(rogue_glib.nk_stat_snapshot(snap));
  EXPECT_EQ(snap.vm.publish_seq, frozen_seq);
  EXPECT_NE(snap.vm.flags & shm::stat_frozen, 0u);

  // The clean neighbor's page is alive and unfrozen.
  ASSERT_TRUE(rig.client.glib->nk_stack_stats().ok());
  EXPECT_EQ(rig.client.glib->nk_stack_stats().value().flags &
                shm::stat_frozen,
            0u);
}

TEST(netkernel_firewall, manual_readmit_clears_permanent_quarantine) {
  firewall_rig rig{sim_time::zero()};
  hostile_guest attacker{rig.engine(), rig.rogue_id(), 7};
  rig.storm_until_quarantined(attacker);
  ASSERT_TRUE(rig.engine().quarantined(rig.rogue_id()));

  // Permanent: no probation clock runs this down.
  rig.bed.run_for(milliseconds(50));
  EXPECT_TRUE(rig.engine().quarantined(rig.rogue_id()));

  EXPECT_TRUE(rig.engine().readmit_vm(rig.rogue_id()));
  EXPECT_FALSE(rig.engine().quarantined(rig.rogue_id()));
  // Nothing left to parole.
  EXPECT_FALSE(rig.engine().readmit_vm(rig.rogue_id()));
}

// --- memory per attachment ----------------------------------------------------

// 200 attach -> echo traffic -> retire cycles on one multiplexed NSM; even
// cycles detach, odd cycles quarantine and readmit. Every retired pool gives
// its pages back, so after each cycle the engine's resident pool memory is
// the live tenant's working set plus at most one pool's, however many
// attachments have come and gone.
TEST(netkernel_memory, attach_retire_churn_keeps_pool_memory_bounded) {
  testbed bed{[] {
    auto p = apps::datacenter_params(21);
    p.netkernel.shards = 2;
    // Retired attachments keep their ring storage; small rings keep 200 of
    // them cheap.
    p.netkernel.channel.queues.depth = 64;
    return p;
  }()};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.vcpus = 1;
  vm_cfg.name = "server";
  nsm_cfg.name = "nsm-b";
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
  vm_cfg.name = "anchor";
  nsm_cfg.name = "nsm-a";
  auto anchor = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);

  auto& gs = *server.glib;
  const auto lfd = gs.nk_socket().value();
  ASSERT_TRUE(gs.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(gs.nk_listen(lfd).ok());
  gs.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                           errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      while (gs.nk_accept(lfd).ok()) {
      }
    } else if (t == stack::socket_event_type::readable) {
      while (auto r = gs.nk_recv(fd, 1 << 20)) {
        (void)gs.nk_send(fd, std::move(r).value());
      }
    } else if (t == stack::socket_event_type::closed) {
      (void)gs.nk_close(fd);
    }
  });

  core_engine& ce = bed.netkernel(side::a);
  auto resident = [&](const std::string& name) {
    return ce.metrics().value_of(name).value_or(-1.0);
  };
  const std::string anchor_gauge =
      "vm" + std::to_string(anchor.vm->id()) + "_pool_resident_bytes";
  constexpr std::size_t payload = 32 * 1024;
  std::vector<const channel*> pools{ce.channel_of(anchor.vm->id())};
  double one_pool = 0.0;  // largest working set a churned pool reached
  std::size_t echoed = 0;
  for (int cycle = 0; cycle < 200; ++cycle) {
    vm_cfg.name = "churn-" + std::to_string(cycle);
    vm_cfg.address = net::ipv4_addr::from_octets(
        10, 0, static_cast<std::uint8_t>(3 + cycle / 200),
        static_cast<std::uint8_t>(1 + cycle % 200));
    auto t = bed.attach_netkernel_vm(side::a, vm_cfg, *anchor.module);
    guest_lib* g = t.glib;  // retired, never destroyed: safe to capture
    const auto vm = t.vm->id();
    const auto fd = g->nk_socket().value();
    echoed = 0;
    g->set_event_handler([g, fd, &echoed](std::uint32_t f,
                                          stack::socket_event_type ty, errc) {
      if (f != fd) return;
      if (ty == stack::socket_event_type::connected) {
        (void)g->nk_send(fd, buffer::pattern(payload, fd));
      } else if (ty == stack::socket_event_type::readable) {
        while (auto r = g->nk_recv(fd, 1 << 20)) echoed += r.value().size();
      }
    });
    ASSERT_TRUE(
        g->nk_connect(fd, {server.module->config().address, 7000}).ok());
    bed.run_for(milliseconds(2));
    ASSERT_EQ(echoed, payload) << "cycle " << cycle;
    one_pool = std::max(
        one_pool, resident("vm" + std::to_string(vm) + "_pool_resident_bytes"));
    (void)g->nk_close(fd);
    bed.run_for(milliseconds(1));

    pools.push_back(ce.channel_of(vm));
    if (cycle % 2 == 0) {
      ce.detach_vm(vm);
    } else {
      ce.quarantine_vm(vm, "churn");
      ASSERT_TRUE(ce.readmit_vm(vm));
    }
    bed.run_for(milliseconds(1));

    ASSERT_EQ(ce.attached_vms().size(), 1u);
    EXPECT_LE(resident("engine_pool_resident_bytes"),
              resident(anchor_gauge) + one_pool)
        << "cycle " << cycle;
    for (const channel* ch : pools) {
      ASSERT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count())
          << "cycle " << cycle;
    }
    for (std::size_t s = 0; s < ce.shards(); ++s) {
      const auto& st = ce.shard_stats(s);
      ASSERT_EQ(st.unroutable_nqes + st.nqes_dropped + st.stale_nqes +
                    st.rejected_nqes,
                ce.shard_traces_dropped(s) + ce.shard_discards_untraced(s))
          << "cycle " << cycle << " shard " << s;
    }
  }
  // The traffic really touched pool memory, and retiring returned all of
  // it: 200 churned pools hold nothing.
  EXPECT_GT(one_pool, 0.0);
  EXPECT_EQ(resident("engine_pool_resident_bytes"), resident(anchor_gauge));
  EXPECT_EQ(ce.metrics().value_of("engine_pool_bad_frees").value_or(-1.0), 0.0);
}

}  // namespace
}  // namespace nk::core
