// NetKernel core tests: the full GuestLib -> CoreEngine -> ServiceLib -> NSM
// path on a two-host testbed, connection mapping, flow-control credit,
// per-socket stack selection, multiplexing, SLA enforcement, notification
// modes, and accounting.
#include <gtest/gtest.h>

#include <algorithm>
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

// The server NSM is live but nothing listens on the port: its stack answers
// the SYN with an RST, and the guest learns the connect was refused, not
// reset.
TEST(netkernel_path, connect_to_port_without_listener_is_refused) {
  nk_pair rig;
  auto& gc = *rig.client.glib;
  const auto fd = gc.nk_socket().value();
  bool connected = false;
  errc error = errc::ok;
  gc.set_event_handler([&](std::uint32_t f, stack::socket_event_type t,
                           errc e) {
    if (f != fd) return;
    if (t == stack::socket_event_type::connected) connected = true;
    if (t == stack::socket_event_type::error) error = e;
  });
  ASSERT_TRUE(
      gc.nk_connect(fd, {rig.server.module->config().address, 7999}).ok());
  rig.bed.run_for(milliseconds(50));
  EXPECT_FALSE(connected);
  EXPECT_EQ(error, errc::connection_refused);
  const auto sent = gc.nk_send(fd, buffer::pattern(100, 0));
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error(), errc::connection_refused);
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

// The rpc_fanin shape: one engine shard, one NSM and 8 VMs x 2 vCPUs on
// one host. Every consumer of modeled CPU gets a real core, so every vCPU
// exists and is charged for its VM's echo traffic.
TEST(netkernel_multiplexing, every_vcpu_of_eight_fanin_vms_is_charged) {
  testbed bed{apps::datacenter_params(5)};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "server";
  vm_cfg.vcpus = 4;
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
  apps::echo_server echo{*server.api, 7000};
  echo.start();
  const net::socket_addr dest{server.module->config().address, 7000};

  apps::rpc_client_config rpc;
  rpc.request_size = 64;
  rpc.requests = 50;
  vm_cfg.vcpus = 2;
  std::vector<apps::nk_tenant> tenants;
  std::vector<std::unique_ptr<apps::rpc_client>> clients;
  for (int v = 0; v < 8; ++v) {
    vm_cfg.name = "client-vm" + std::to_string(v);
    tenants.push_back(
        v == 0 ? bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg)
               : bed.attach_netkernel_vm(side::a, vm_cfg,
                                         *tenants.front().module));
    // Two sockets per VM: GuestLib places them round-robin, one per vCPU.
    for (int c = 0; c < 2; ++c) {
      clients.push_back(std::make_unique<apps::rpc_client>(
          *tenants.back().api, bed.sim(), dest, rpc));
      clients.back()->start();
    }
  }

  bed.run_for(milliseconds(50));
  for (const auto& cl : clients) EXPECT_TRUE(cl->finished());
  for (const auto& t : tenants) {
    ASSERT_EQ(t.vm->vcpus().size(), 2u);
    for (const sim::cpu_core* core : t.vm->vcpus()) {
      ASSERT_NE(core, nullptr) << t.vm->name();
      EXPECT_GT(core->busy_time(), sim_time::zero()) << core->name();
    }
  }
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

// A guest that connects to a closed port over and over and never closes
// the refused fds: the engine remembers each torn-down flow (so a request
// the guest raced against the ev_error is not a forgery), but at most 1024
// per VM and shard. Past that bound a late request is refused as badfd, and
// a req_close gives the slot back.
TEST(netkernel_torn_down, unclosed_refused_connects_stay_bounded) {
  nk_pair rig;
  core_engine& ce = rig.bed.netkernel(side::a);
  ASSERT_EQ(ce.shards(), 1u);
  auto& gc = *rig.client.glib;
  std::set<std::uint32_t> refused;
  gc.set_event_handler(
      [&](std::uint32_t fd, stack::socket_event_type t, errc) {
        if (t == stack::socket_event_type::error) refused.insert(fd);
      });
  const net::socket_addr closed_port{rig.server.module->config().address,
                                     7999};
  const auto refuse = [&](std::size_t n) {
    std::vector<std::uint32_t> fds;
    while (fds.size() < n) {
      for (int i = 0; i < 64 && fds.size() < n; ++i) {
        const auto fd = gc.nk_socket().value();
        EXPECT_TRUE(gc.nk_connect(fd, closed_port).ok());
        fds.push_back(fd);
      }
      rig.bed.run_for(milliseconds(1));
    }
    return fds;
  };
  // One late request per fd, straight onto the job ring (GuestLib itself
  // sends nothing on an fd it knows has failed).
  const virt::vm_id vm = rig.client.vm->id();
  channel& ch = *ce.channel_of(vm);
  const auto late_requests = [&](const std::vector<std::uint32_t>& fds) {
    for (std::size_t i = 0; i < fds.size(); ++i) {
      shm::nqe e;
      e.op = shm::nqe_op::req_shutdown_wr;
      e.handle = fds[i];
      e.owner = static_cast<std::uint16_t>(vm);
      ASSERT_TRUE(ch.vm_q(0).job.try_push(e));
      if (i % 64 == 63 || i + 1 == fds.size()) {
        ce.notify(0);
        rig.bed.run_for(milliseconds(1));
      }
    }
  };

  const auto fds = refuse(1024 + 8);
  ASSERT_EQ(refused.size(), fds.size());
  const auto before = ce.shard_stats(0);
  late_requests(fds);
  const auto after = ce.shard_stats(0);
  EXPECT_EQ(after.unroutable_nqes - before.unroutable_nqes, 1024u);
  EXPECT_EQ(after.rejected_nqes - before.rejected_nqes, 8u);

  // Closing the remembered fds frees their entries: the next refused
  // connect is remembered again.
  for (const auto fd : fds) (void)gc.nk_close(fd);
  rig.bed.run_for(milliseconds(5));
  const auto again = refuse(1);
  ASSERT_TRUE(refused.contains(again.front()));
  const auto mid = ce.shard_stats(0);
  late_requests(again);
  EXPECT_EQ(ce.shard_stats(0).unroutable_nqes - mid.unroutable_nqes, 1u);
  EXPECT_EQ(ce.shard_stats(0).rejected_nqes, mid.rejected_nqes);
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
  nk_pair rig;  // every NSM's vNIC is an SR-IOV VF
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

// --- the engine's drain loop -------------------------------------------------
//
// Each engine shard runs one drain loop over every attachment, so a VM costs
// the engine no timer of its own.

// Under polling an idle VM costs one event per poll tick: its GuestLib pump.
TEST(netkernel_engine_loop, idle_polling_adds_one_event_per_tick_per_vm) {
  testbed bed{apps::datacenter_params(5)};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "vm0";
  auto first = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  // Events in one idle modeled millisecond (1000 ticks of the 1 us poll).
  const auto events_per_ms = [&] {
    bed.run_for(milliseconds(1));
    const std::uint64_t before = bed.sim().events_processed();
    bed.run_for(milliseconds(1));
    return bed.sim().events_processed() - before;
  };
  std::uint64_t last = events_per_ms();
  for (int i = 1; i <= 3; ++i) {
    vm_cfg.name = "vm" + std::to_string(i);
    (void)bed.attach_netkernel_vm(side::a, vm_cfg, *first.module);
    const std::uint64_t now = events_per_ms();
    EXPECT_EQ(now - last, 1000u) << "attaching vm" << i;
    last = now;
  }
}

// Under batched interrupts one doorbell wakes the whole shard: VM B's
// doorbell inside VM A's pending wakeup is drained by that same wakeup.
TEST(netkernel_engine_loop, doorbells_from_two_vms_share_one_wakeup) {
  auto params = apps::datacenter_params(5);
  params.netkernel.notification.kind = notify_config::mode::batched_interrupt;
  params.netkernel.notification.interrupt_delay = microseconds(10);
  testbed bed{params};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "a";
  auto a = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "b";
  auto b = bed.attach_netkernel_vm(side::a, vm_cfg, *a.module);
  core_engine& ce = bed.netkernel(side::a);
  bed.run_for(milliseconds(1));

  // A stat-page refresh is served inside the engine, so the job ring's
  // depth alone shows whether the loop has drained it.
  const auto ring_refresh = [&](const apps::nk_tenant& t) {
    shm::nqe e;
    e.op = shm::nqe_op::req_stat_refresh;
    e.owner = static_cast<std::uint16_t>(t.vm->id());
    ASSERT_TRUE(ce.channel_of(t.vm->id())->vm_q(0).job.try_push(e));
    ce.notify(0);
  };
  ring_refresh(a);
  bed.run_for(microseconds(5));
  ring_refresh(b);
  bed.run_for(microseconds(4));
  EXPECT_EQ(ce.channel_of(a.vm->id())->vm_job_depth(), 1u);
  EXPECT_EQ(ce.channel_of(b.vm->id())->vm_job_depth(), 1u);
  // A's wakeup fires at +10 us; a wakeup of B's own would come at +15 us.
  bed.run_for(microseconds(2));
  EXPECT_EQ(ce.channel_of(a.vm->id())->vm_job_depth(), 0u);
  EXPECT_EQ(ce.channel_of(b.vm->id())->vm_job_depth(), 0u);
  EXPECT_EQ(ce.stats().rejected_nqes, 0u);
}

// Quarantine detaches one VM mid-run; the loop keeps serving its neighbour,
// under either notification mode.
TEST(netkernel_engine_loop, quarantine_leaves_the_loop_serving_the_rest) {
  for (const auto mode : {notify_config::mode::polling,
                          notify_config::mode::batched_interrupt}) {
    auto params = apps::datacenter_params(5);
    params.netkernel.notification.kind = mode;
    testbed bed{params};
    nsm_config nsm_cfg;
    nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
    virt::vm_config vm_cfg;
    vm_cfg.name = "rogue";
    auto rogue = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
    vm_cfg.name = "neighbour";
    auto neighbour = bed.attach_netkernel_vm(side::a, vm_cfg, *rogue.module);
    vm_cfg.name = "server";
    nsm_cfg.name = "nsm-b";
    auto server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

    apps::echo_server echo{*server.api, 5002};
    echo.start();
    apps::rpc_client_config rcfg;
    rcfg.request_size = 512;
    rcfg.requests = 0;
    const net::socket_addr dest{server.module->config().address, 5002};
    apps::rpc_client r1{*rogue.api, bed.sim(), dest, rcfg};
    apps::rpc_client r2{*neighbour.api, bed.sim(), dest, rcfg};
    r1.start();
    r2.start();
    bed.run_for(milliseconds(20));
    ASSERT_GT(r1.completed(), 0);
    ASSERT_GT(r2.completed(), 0);

    core_engine& ce = bed.netkernel(side::a);
    ce.quarantine_vm(rogue.vm->id());
    EXPECT_EQ(ce.attached_vms(),
              std::vector<virt::vm_id>{neighbour.vm->id()});
    const int rogue_done = r1.completed();
    const int neighbour_done = r2.completed();
    bed.run_for(milliseconds(20));
    EXPECT_EQ(r1.completed(), rogue_done);
    EXPECT_GT(r2.completed(), neighbour_done + 100);
  }
}

// A drain that stops at its batch limit with jobs still in the ring wakes
// itself: 200 closes land in the job ring at once, and under batched
// interrupts no producer rings the doorbell after the last of them.
TEST(netkernel_engine_loop, batch_limited_drain_wakes_itself) {
  auto params = apps::datacenter_params(5);
  params.netkernel.notification.kind = notify_config::mode::batched_interrupt;
  testbed bed{params};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "closer";
  auto t = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  core_engine& ce = bed.netkernel(side::a);
  bed.run_for(milliseconds(1));

  std::vector<std::uint32_t> fds;
  for (int i = 0; i < 200; ++i) fds.push_back(t.glib->nk_socket().value());
  bed.run_for(milliseconds(5));
  ASSERT_EQ(ce.stats().mappings_installed, 200u);

  for (const auto fd : fds) ASSERT_TRUE(t.glib->nk_close(fd).ok());
  bed.run_for(milliseconds(5));
  EXPECT_EQ(ce.stats().mappings_removed, 200u);
  EXPECT_EQ(ce.channel_of(t.vm->id())->vm_job_depth(), 0u);
}

// ServiceLib runs each job to completion: the stack work a job queues lands
// on the NSM core before the next job's dispatch. Eight 64 B sends on eight
// established connections reach the NSM within one tick. Each job's segment
// must leave the NSM's vNIC within the job's own dispatch (op cost) and
// transmit burst of its pop, plus the previous job's burst, which may still
// be on the core then. A drain that bills every popped dispatch up front
// holds the last segment back by all eight dispatches.
TEST(netkernel_job_chain, each_job_reaches_the_wire_before_the_next_dispatch) {
  nk_pair rig{tcp::cc_algorithm::cubic, 3, [](apps::testbed_params& p) {
                p.netkernel.trace.enabled = true;
              }};
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
    } else if (t == stack::socket_event_type::readable) {
      while (gs.nk_recv(fd, 1 << 20).ok()) {
      }
    }
  });
  constexpr int jobs = 8;
  std::vector<std::uint32_t> fds;
  int connected = 0;
  gc.set_event_handler([&](std::uint32_t, stack::socket_event_type t, errc) {
    if (t == stack::socket_event_type::connected) ++connected;
  });
  for (int i = 0; i < jobs; ++i) {
    fds.push_back(gc.nk_socket().value());
    ASSERT_TRUE(
        gc.nk_connect(fds.back(), {rig.server.module->config().address, 7000})
            .ok());
  }
  rig.bed.run_for(milliseconds(2));
  ASSERT_EQ(connected, jobs);

  // Tap the client NSM's vNIC: re-plug it on a fresh vSwitch port whose
  // egress records every data segment with the transmit cost of its burst.
  nsm& module = *rig.client.module;
  virt::hypervisor& host = rig.bed.host(side::a);
  const int port = host.attach_nic(module.vnic(), module.config().address,
                                   /*sriov=*/true);
  struct segment {
    sim_time at;
    sim_time burst;
  };
  std::vector<segment> wire;
  module.vnic().attach_tx([&, port](net::packet p) {
    if (p.is_tcp() && !p.payload.empty()) {
      wire.push_back({rig.bed.sim().now(),
                      module.config().tx_cost.of(p.wire_size()) +
                          module.profile().per_packet_overhead});
    }
    host.overlay_switch().ingress(port, std::move(p));
  });

  const sim_time sent_at = rig.bed.sim().now();
  for (const auto fd : fds) {
    ASSERT_TRUE(gc.nk_send(fd, buffer::pattern(64, fd)).ok());
  }
  rig.bed.run_for(microseconds(20));

  // A req_send reached the NSM's job ring at its engine_copy_fwd stamp and
  // was popped at its nsm_job_dwell stamp.
  std::vector<sim_time> arrived;
  std::vector<sim_time> popped;
  core_engine& ce = rig.bed.netkernel(side::a);
  for (const auto& t : ce.tracer().completed()) {
    if (t.op != shm::nqe_op::req_send || t.begin < sent_at) continue;
    for (std::size_t i = 0; i < t.n_stamps; ++i) {
      if (t.stamps[i].stage == obs::nqe_stage::engine_copy_fwd) {
        arrived.push_back(t.stamps[i].at);
      } else if (t.stamps[i].stage == obs::nqe_stage::nsm_job_dwell) {
        popped.push_back(t.stamps[i].at);
      }
    }
  }
  std::sort(arrived.begin(), arrived.end());
  std::sort(popped.begin(), popped.end());
  ASSERT_EQ(arrived.size(), static_cast<std::size_t>(jobs));
  ASSERT_EQ(popped.size(), static_cast<std::size_t>(jobs));
  ASSERT_EQ(wire.size(), static_cast<std::size_t>(jobs));
  EXPECT_LT(arrived.back() - arrived.front(),
            ce.config().notification.poll_interval);
  const sim_time op_cost =
      ce.config().costs.servicelib_per_op + module.profile().per_op_overhead;
  for (std::size_t k = 0; k < popped.size(); ++k) {
    const sim_time ahead = k == 0 ? sim_time::zero() : wire[k - 1].burst;
    EXPECT_LE(wire[k].at - popped[k], op_cost + wire[k].burst + ahead)
        << "job " << k;
  }
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

// The connect watchdog costs a GuestLib one timer, not one event per
// connect: 64 connects that complete and close leave at most one watchdog
// event to run once their deadlines pass. Under batched interrupts a
// testbed past its TCP TIME_WAITs schedules nothing else, so the deadline
// window's events are the watchdog's.
TEST(netkernel_guestlib, settled_connects_leave_one_watchdog_event) {
  constexpr sim_time timeout = seconds(2);
  nk_pair rig{tcp::cc_algorithm::cubic, 5, [&](apps::testbed_params& p) {
    p.netkernel.notification.kind = notify_config::mode::batched_interrupt;
    p.netkernel.guest.connect_timeout = timeout;
  }};
  auto& glib_s = *rig.server.glib;
  const auto lfd = glib_s.nk_socket().value();
  ASSERT_TRUE(glib_s.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(glib_s.nk_listen(lfd).ok());
  glib_s.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                               errc) {
    if (fd != lfd || t != stack::socket_event_type::accept_ready) return;
    while (auto child = glib_s.nk_accept(lfd)) {
      (void)glib_s.nk_close(child.value());
    }
  });
  rig.bed.run_for(milliseconds(1));

  auto& glib_c = *rig.client.glib;
  int connected = 0;
  glib_c.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                               errc) {
    if (t != stack::socket_event_type::connected) return;
    ++connected;
    (void)glib_c.nk_close(fd);
  });
  constexpr int n = 64;
  for (int i = 0; i < n; ++i) {
    const auto fd = glib_c.nk_socket().value();
    ASSERT_TRUE(
        glib_c.nk_connect(fd, {rig.server.module->config().address, 7000})
            .ok());
  }
  // Past TIME_WAIT (500 ms), short of the deadlines.
  rig.bed.run_for(timeout / 2);
  ASSERT_EQ(connected, n);

  const std::uint64_t before = rig.bed.sim().events_processed();
  rig.bed.run_for(timeout);
  EXPECT_LE(rig.bed.sim().events_processed() - before, 1u);
  EXPECT_EQ(glib_c.stats().ops_timed_out, 0u);
}

// A socket whose connect failed stays failed: connecting it again returns
// the stored error at once and submits nothing. (ServiceLib acknowledges a
// repeated connect without starting one, so a submitted reconnect would
// only wait for the connect deadline.)
TEST(netkernel_guestlib, reconnect_on_a_failed_socket_fails_at_once) {
  constexpr sim_time timeout = milliseconds(50);
  nk_pair rig{tcp::cc_algorithm::cubic, 31, [&](apps::testbed_params& p) {
    p.netkernel.guest.connect_timeout = timeout;
  }};
  auto& glib_s = *rig.server.glib;
  const auto lfd = glib_s.nk_socket().value();
  ASSERT_TRUE(glib_s.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(glib_s.nk_listen(lfd).ok());
  rig.bed.run_for(milliseconds(1));

  auto& glib_c = *rig.client.glib;
  std::vector<errc> errors;
  bool connected = false;
  glib_c.set_event_handler(
      [&](std::uint32_t, stack::socket_event_type t, errc e) {
        if (t == stack::socket_event_type::error) errors.push_back(e);
        if (t == stack::socket_event_type::connected) connected = true;
      });
  const net::ipv4_addr server = rig.server.module->config().address;
  const auto fd = glib_c.nk_socket().value();
  ASSERT_TRUE(glib_c.nk_connect(fd, {server, 7001}).ok());  // no listener
  rig.bed.run_for(milliseconds(10));
  ASSERT_EQ(errors.size(), 1u);  // the peer's RST
  const errc refused = errors.front();
  ASSERT_NE(refused, errc::timed_out);

  const service_lib* svc =
      rig.bed.netkernel(side::a).service_of(rig.client.module->id());
  const std::uint64_t processed = svc->stats().ops_processed;
  const std::uint64_t issued = glib_c.stats().ops_issued;
  const status again = glib_c.nk_connect(fd, {server, 7000});
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error(), refused);
  rig.bed.run_for(timeout * 2);
  EXPECT_EQ(svc->stats().ops_processed, processed);
  EXPECT_EQ(glib_c.stats().ops_issued, issued);
  EXPECT_EQ(errors.size(), 1u);  // no timed_out
  EXPECT_EQ(glib_c.stats().ops_timed_out, 0u);
  EXPECT_FALSE(connected);
}

// The engine names a guest-created socket when it forwards req_socket, so
// the flow is mapped, and its next op goes down, before the cmp_socket ever
// reaches the guest. Batched interrupts with a 100 us delay spread the hops
// apart: engine forward at 100 us, ServiceLib at 200 us, engine reverse at
// 300 us, guest drain at 400 us.
TEST(netkernel_mapping, created_socket_is_mapped_before_its_completion) {
  auto params = apps::datacenter_params(5);
  params.netkernel.notification.kind =
      notify_config::mode::batched_interrupt;
  params.netkernel.notification.interrupt_delay = microseconds(100);
  testbed bed{params};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "a";
  auto a = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "b";
  nsm_cfg.name = "nsm-b";
  auto b = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  core_engine& ce = bed.netkernel(side::a);
  const auto vm = a.vm->id();
  const auto fd = a.glib->nk_socket().value();
  ASSERT_TRUE(a.glib->nk_connect(fd, {b.module->config().address, 7000}).ok());
  EXPECT_FALSE(ce.mapping_of(vm, fd).has_value());

  // The engine has forwarded req_socket: the mapping carries its cID.
  bed.run_for(microseconds(110));
  const auto mapped = ce.mapping_of(vm, fd);
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->first, a.module->id());
  EXPECT_LT(mapped->second, service_lib::child_cid_base);

  // ServiceLib ran the connect in the same drain as the socket, while the
  // cmp_socket still waits in the NSM-side completion ring.
  bed.run_for(microseconds(100));
  auto* ch = ce.channel_of(vm);
  EXPECT_GT(ch->nsm_out_depth(), 0u);
  EXPECT_EQ(ce.service_of(a.module->id())->stats().ops_processed, 2u);
  EXPECT_EQ(ce.mapping_of(vm, fd), mapped);
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

  // Failure accounting: with every nqe traced (no tracer overflow), each
  // loss to unroutable teardown or an overflow cap is visible to the
  // tracer — nothing vanished silently.
  for (auto* ce : {&bed.netkernel(side::a), &bed.netkernel(side::b)}) {
    const auto& m = ce->metrics();
    EXPECT_EQ(m.value_of("nqe_traces_overflow").value_or(0.0), 0.0);
    const double lost = m.value_of("engine_unroutable_nqes").value_or(0.0) +
                        m.value_of("engine_nqes_dropped").value_or(0.0);
    EXPECT_EQ(lost, m.value_of("nqe_traces_dropped").value_or(0.0));
  }
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
  // The detached channel's pool (the VM still owns it) got every chunk
  // back.
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

// Flows never move between shards, so a flow's home shard is a pure
// function of its identity: shm::flow_shard(vm, fd) for sockets the guest
// created, and (fd - 0x80000000) mod N for accepted children (each shard
// mints every N-th fd above 0x80000000), which ServiceLib steered by
// shm::nsm_shard(nsm, cid). Every mapped cID sits in its home partition:
// cid mod N for the cIDs the engine mints, shm::nsm_shard for the ones
// ServiceLib mints for accepted children.
TEST(netkernel_sharding, shard_of_is_the_steering_formula) {
  sharded_pair rig;
  auto& glib_s = *rig.server.glib;
  auto& glib_c = *rig.client.glib;

  const auto lfd = glib_s.nk_socket().value();
  ASSERT_TRUE(glib_s.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(glib_s.nk_listen(lfd).ok());
  std::vector<std::uint32_t> accepted;
  glib_s.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                               errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      while (auto r = glib_s.nk_accept(lfd)) accepted.push_back(r.value());
    }
  });
  std::vector<std::uint32_t> created;
  for (int i = 0; i < 16; ++i) {
    const auto fd = glib_c.nk_socket().value();
    created.push_back(fd);
    ASSERT_TRUE(
        glib_c.nk_connect(fd, {rig.server.module->config().address, 7000})
            .ok());
  }
  rig.bed.run_for(milliseconds(100));
  ASSERT_EQ(accepted.size(), created.size());

  core_engine& ce_c = rig.bed.netkernel(side::a);
  core_engine& ce_s = rig.bed.netkernel(side::b);
  const std::size_t n = ce_c.shards();
  ASSERT_EQ(n, 4u);

  const auto vm_c = rig.client.vm->id();
  std::set<std::size_t> homes;
  for (const auto fd : created) {
    const auto s = ce_c.shard_of(vm_c, fd);
    ASSERT_TRUE(s.has_value()) << "fd " << fd;
    EXPECT_EQ(*s, shm::flow_shard(vm_c, fd, n)) << "fd " << fd;
    const auto mapped = ce_c.mapping_of(vm_c, fd);
    ASSERT_TRUE(mapped.has_value()) << "fd " << fd;
    EXPECT_LT(mapped->second, service_lib::child_cid_base) << "fd " << fd;
    EXPECT_EQ(*s, mapped->second % n) << "fd " << fd;
    homes.insert(*s);
  }
  EXPECT_GE(homes.size(), 2u);

  const auto vm_s = rig.server.vm->id();
  const auto ls = ce_s.shard_of(vm_s, lfd);
  ASSERT_TRUE(ls.has_value());
  EXPECT_EQ(*ls, shm::flow_shard(vm_s, lfd, n));
  EXPECT_EQ(*ls, ce_s.mapping_of(vm_s, lfd).value().second % n);
  homes.clear();
  for (const auto fd : accepted) {
    const auto s = ce_s.shard_of(vm_s, fd);
    ASSERT_TRUE(s.has_value()) << "fd " << fd;
    EXPECT_EQ(*s, (fd - 0x80000000u) % n) << "fd " << fd;
    const auto mapped = ce_s.mapping_of(vm_s, fd);
    ASSERT_TRUE(mapped.has_value()) << "fd " << fd;
    EXPECT_GE(mapped->second, service_lib::child_cid_base) << "fd " << fd;
    EXPECT_EQ(*s, shm::nsm_shard(mapped->first, mapped->second, n))
        << "fd " << fd;
    homes.insert(*s);
  }
  EXPECT_GE(homes.size(), 2u);

  // Unknown fds, including an accept fd no shard has minted yet, have no
  // home.
  EXPECT_FALSE(ce_c.shard_of(vm_c, 9999).has_value());
  EXPECT_FALSE(ce_s.shard_of(vm_s, 0x80000000u + 1000 * n).has_value());

  // Detach the client mid-stream so every shard has in-flight nqes to
  // discard. Per-shard drop accounting stays exact: every engine-side
  // discard retired a live trace or was counted untraced, in the shard that
  // discarded it.
  for (const auto fd : created) {
    ASSERT_TRUE(glib_c.nk_send(fd, buffer::pattern(256 * 1024, fd)).ok());
  }
  rig.bed.run_for(microseconds(200));
  ce_c.detach_vm(vm_c);
  rig.bed.run_for(milliseconds(10));
  std::uint64_t discards = 0;
  for (auto* ce : {&ce_c, &ce_s}) {
    for (std::size_t s = 0; s < ce->shards(); ++s) {
      const auto& st = ce->shard_stats(s);
      const std::uint64_t lost = st.unroutable_nqes + st.nqes_dropped +
                                 st.stale_nqes + st.rejected_nqes;
      EXPECT_EQ(lost,
                ce->shard_traces_dropped(s) + ce->shard_discards_untraced(s))
          << "shard " << s;
      discards += lost;
    }
  }
  EXPECT_GT(discards, 0u);
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
  for (std::size_t s = 0; s < ce.shards(); ++s) {
    const auto& st = ce.shard_stats(s);
    EXPECT_EQ(st.unroutable_nqes + st.nqes_dropped + st.stale_nqes +
                  st.rejected_nqes,
              ce.shard_traces_dropped(s) + ce.shard_discards_untraced(s))
        << "shard " << s;
  }
}

// --- admission firewall + abuse quarantine (DESIGN.md §14) -----------------

// nk_pair plus a hostile third VM on side a with its own NSM, and a
// test-tuned escalation budget: burst 4 warnings, then throttled, then 8
// more violations quarantine. `burst` can be raised to disable escalation.
struct firewall_rig : nk_pair {
  explicit firewall_rig(std::uint64_t burst = 4)
      : nk_pair{tcp::cc_algorithm::cubic, 1, [&](apps::testbed_params& p) {
                  p.netkernel.firewall.violations_per_sec = 1.0;
                  p.netkernel.firewall.violation_burst = burst;
                  p.netkernel.firewall.quarantine_threshold = 8;
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
  firewall_rig rig{/*burst=*/1ull << 30};
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
  firewall_rig rig;
  hostile_guest attacker{rig.engine(), rig.rogue_id(), 7};

  EXPECT_EQ(rig.engine().abuse_level_of(rig.rogue_id()), abuse_level::ok);
  rig.storm_until_quarantined(attacker);

  // The rogue ends quarantined and detached (the engine no longer holds its
  // channel), and the decision is on the record.
  EXPECT_TRUE(rig.engine().quarantined(rig.rogue_id()));
  EXPECT_EQ(rig.engine().abuse_level_of(rig.rogue_id()),
            abuse_level::quarantined);
  EXPECT_EQ(rig.engine().channel_of(rig.rogue_id()), nullptr);
  ASSERT_EQ(rig.engine().quarantine_log().size(), 1u);
  const auto& rec = rig.engine().quarantine_log().front();
  EXPECT_EQ(rec.vm, rig.rogue_id());
  EXPECT_GE(rec.violations, 12u);  // burst 4 + threshold 8
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

  // No chunk leaked on any attached channel.
  for (const auto vm : rig.engine().attached_vms()) {
    auto* ch = rig.engine().channel_of(vm);
    EXPECT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count());
  }
}

TEST(netkernel_firewall, reattach_during_probation_stays_quarantined) {
  firewall_rig rig;
  hostile_guest attacker{rig.engine(), rig.rogue_id(), 7};
  rig.storm_until_quarantined(attacker);
  ASSERT_TRUE(rig.engine().quarantined(rig.rogue_id()));

  // The VM attaches again, but comes up quarantined with its job lanes
  // refused; no clock clears it, however long it waits.
  (void)rig.engine().attach_vm(*rig.rogue->vm, *rig.rogue->module);
  EXPECT_EQ(rig.engine().abuse_level_of(rig.rogue_id()),
            abuse_level::quarantined);
  rig.bed.run_for(milliseconds(500));
  EXPECT_TRUE(rig.engine().quarantined(rig.rogue_id()));
  EXPECT_EQ(rig.engine().abuse_level_of(rig.rogue_id()),
            abuse_level::quarantined);
  EXPECT_EQ(rig.engine().metrics().value_of("vms_readmitted").value_or(0.0),
            0.0);

  // readmit_vm is the one way out: the attached VM is back in good standing.
  EXPECT_TRUE(rig.engine().readmit_vm(rig.rogue_id()));
  EXPECT_FALSE(rig.engine().quarantined(rig.rogue_id()));
  EXPECT_EQ(rig.engine().abuse_level_of(rig.rogue_id()), abuse_level::ok);
  EXPECT_EQ(rig.engine().metrics().value_of("vms_readmitted").value_or(0.0),
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
  // The guest-chosen peer sits beside the record in the page row.
  shm::stat_snapshot snap;
  ASSERT_TRUE(gc.nk_stat_snapshot(snap));
  ASSERT_NE(snap.find(cfd), nullptr);
  EXPECT_EQ(snap.find(cfd)->remote_port, 7000u);

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

// The page row is the provider's flow record, whole: for every fd a page
// publishes, the row's info equals core_engine::flow_table()'s record for
// that <VM, fd> field for field — segment counters and the unrounded
// delivery rate included. Both ends are checked, so an accepted fd is
// covered too.
TEST(netkernel_statpage, rows_are_the_flow_table_records) {
  nk_pair rig;
  auto& gs = *rig.server.glib;
  auto& gc = *rig.client.glib;
  const auto lfd = gs.nk_socket().value();
  ASSERT_TRUE(gs.nk_bind(lfd, 7050).ok());
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
      gc.nk_connect(cfd, {rig.server.module->config().address, 7050}).ok());
  rig.bed.run_for(milliseconds(50));

  auto check = [&](side at, const apps::nk_tenant& t, std::size_t rows) {
    core_engine& ce = rig.bed.netkernel(at);
    // Publish and read the flow table at the same instant.
    ce.publish_stat_pages();
    const auto flows = ce.flow_table();
    shm::stat_snapshot snap;
    ASSERT_TRUE(t.glib->nk_stat_snapshot(snap));
    ASSERT_EQ(snap.vm.sockets, rows);
    for (std::size_t i = 0; i < rows; ++i) {
      const shm::nk_sock_stats& row = snap.rows[i];
      const auto it = std::ranges::find_if(flows, [&](const auto& f) {
        return f.vm == t.vm->id() && f.fd == row.fd;
      });
      ASSERT_NE(it, flows.end()) << "fd " << row.fd;
      // to_json prints every field; the rate is also compared unprinted.
      EXPECT_EQ(row.info.to_json(), it->info.to_json());
      EXPECT_EQ(row.info.segments_in, it->info.segments_in);
      EXPECT_EQ(row.info.segments_out, it->info.segments_out);
      EXPECT_EQ(row.info.delivery_rate_bps, it->info.delivery_rate_bps);
      EXPECT_EQ(row.remote_port, it->remote.port);
    }
  };
  check(side::a, rig.client, 1);  // the connection
  check(side::b, rig.server, 1);  // the accepted fd (a listener has no row)

  // The bulk connection has moved segments both ways.
  const auto info = gc.nk_getsockopt(cfd, nk_option::tcp_info);
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info.value().segments_out, 0u);
  EXPECT_GT(info.value().segments_in, 0u);
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
// never advances again, even though the VM keeps the channel mapped.
TEST(netkernel_statpage, quarantine_freezes_page) {
  firewall_rig rig;
  auto& rogue_glib = *rig.rogue->glib;
  hostile_guest attacker{rig.engine(), rig.rogue_id(), 21};
  rig.storm_until_quarantined(attacker);
  ASSERT_TRUE(rig.engine().quarantined(rig.rogue_id()));

  // The guest can still read its (terminal) page through the channel its
  // VM owns and learns why its sockets died.
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
  firewall_rig rig;
  hostile_guest attacker{rig.engine(), rig.rogue_id(), 7};
  rig.storm_until_quarantined(attacker);
  ASSERT_TRUE(rig.engine().quarantined(rig.rogue_id()));

  // Permanent: no clock runs this down.
  rig.bed.run_for(milliseconds(50));
  EXPECT_TRUE(rig.engine().quarantined(rig.rogue_id()));

  EXPECT_TRUE(rig.engine().readmit_vm(rig.rogue_id()));
  EXPECT_FALSE(rig.engine().quarantined(rig.rogue_id()));
  // Nothing left to parole.
  EXPECT_FALSE(rig.engine().readmit_vm(rig.rogue_id()));
}

// --- memory per attachment ----------------------------------------------------

// 200 attach -> echo traffic -> retire cycles on one multiplexed NSM; even
// cycles detach, odd cycles quarantine and readmit. Every detached pool gives
// its pages back, so after each cycle the engine's resident pool memory is
// the live tenant's working set plus at most one pool's, however many
// attachments have come and gone.
TEST(netkernel_memory, attach_retire_churn_keeps_pool_memory_bounded) {
  testbed bed{[] {
    auto p = apps::datacenter_params(21);
    p.netkernel.shards = 2;
    // Detached VMs keep their channels (rings included); small rings keep
    // 200 of them cheap.
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
    guest_lib* g = t.glib;  // owned by its VM, which outlives the test
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

// A VM that attaches again gets a new GuestLib (and channel). The old one
// goes only once the submissions it left on the vCPUs have run: here a
// socket and a connect issued just before the detach, still being charged
// when the VM attaches again.
TEST(netkernel_memory, reattach_frees_the_old_guestlib_after_its_vcpu_work) {
  nk_pair rig;
  auto& gs = *rig.server.glib;
  const auto lfd = gs.nk_socket().value();
  ASSERT_TRUE(gs.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(gs.nk_listen(lfd).ok());
  rig.bed.run_for(milliseconds(1));

  core_engine& ce = rig.bed.netkernel(side::a);
  const net::socket_addr server{rig.server.module->config().address, 7000};
  guest_lib* old = rig.client.glib;
  const auto old_fd = old->nk_socket().value();
  ASSERT_TRUE(old->nk_connect(old_fd, server).ok());
  ASSERT_GT(rig.client.vm->vcpus().front()->backlog(), sim_time::zero());
  ce.detach_vm(rig.client.vm->id());
  guest_lib& fresh = ce.attach_vm(*rig.client.vm, *rig.client.module);
  ASSERT_NE(&fresh, old);

  bool connected = false;
  const auto fd = fresh.nk_socket().value();
  fresh.set_event_handler([&](std::uint32_t f, stack::socket_event_type t,
                              errc) {
    if (f == fd && t == stack::socket_event_type::connected) connected = true;
  });
  ASSERT_TRUE(fresh.nk_connect(fd, server).ok());
  rig.bed.run_for(milliseconds(5));
  EXPECT_TRUE(connected);
  const channel* ch = ce.channel_of(rig.client.vm->id());
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->nqes_vm_to_nsm(), 2u);  // only the new GuestLib's jobs
}

// 50 replacements of a served NSM. In every cycle the tenant holds a
// listener (replayed onto each replacement, and still accepting) and an
// established echo flow with bytes in flight (aborted with nsm_reset). Each
// switchover destroys the dead module: the engine keeps only live modules,
// every chunk comes home, and the drop accounting loses nothing the dead
// ServiceLib had counted.
TEST(netkernel_memory, failover_churn_frees_every_dead_module) {
  testbed bed{[] {
    auto p = apps::datacenter_params(23);
    p.netkernel.shards = 2;
    return p;
  }()};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.form = nsm_form::hypervisor_module;  // 1 ms boot
  virt::vm_config vm_cfg;
  vm_cfg.name = "echo";
  nsm_cfg.name = "nsm-b";
  auto echo = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
  vm_cfg.name = "tenant";
  nsm_cfg.name = "nsm-a";
  auto tenant = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  // The tenant's module dies in the first cycle; keep what outlives it.
  nsm_config fresh_cfg = tenant.module->config();
  nsm_id current = tenant.module->id();
  const net::ipv4_addr echo_addr = echo.module->config().address;
  const net::ipv4_addr tenant_addr = fresh_cfg.address;
  constexpr std::size_t payload = 32 * 1024;

  // Side b: an echo server on 7000 and, each cycle, a probe that connects
  // to the tenant's listener and closes once connected.
  using ev = stack::socket_event_type;
  auto& gb = *echo.glib;
  const auto echo_lfd = gb.nk_socket().value();
  ASSERT_TRUE(gb.nk_bind(echo_lfd, 7000).ok());
  ASSERT_TRUE(gb.nk_listen(echo_lfd).ok());
  std::set<std::uint32_t> probes;
  int probes_connected = 0;
  gb.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                           errc) {
    if (fd == echo_lfd && t == ev::accept_ready) {
      while (gb.nk_accept(echo_lfd).ok()) {
      }
    } else if (t == ev::connected && probes.erase(fd) != 0) {
      ++probes_connected;
      (void)gb.nk_close(fd);
    } else if (t == ev::readable) {
      while (auto r = gb.nk_recv(fd, 1 << 20)) {
        (void)gb.nk_send(fd, std::move(r).value());
      }
    } else if (t == ev::closed || t == ev::error) {
      (void)gb.nk_close(fd);
    }
  });

  // The tenant: a listener on 7100 that accepts and closes, and one echo
  // client per cycle, closed when the failover aborts it.
  auto& ga = *tenant.glib;
  const auto lfd = ga.nk_socket().value();
  ASSERT_TRUE(ga.nk_bind(lfd, 7100).ok());
  ASSERT_TRUE(ga.nk_listen(lfd).ok());
  std::uint32_t client = 0;
  std::size_t echoed = 0;
  int accepted = 0;
  std::vector<errc> client_errors;
  ga.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                           errc e) {
    if (fd == lfd && t == ev::accept_ready) {
      while (auto child = ga.nk_accept(lfd)) {
        ++accepted;
        (void)ga.nk_close(child.value());
      }
    } else if (fd == client && t == ev::connected) {
      (void)ga.nk_send(fd, buffer::pattern(payload, fd));
    } else if (fd == client && t == ev::readable) {
      while (auto r = ga.nk_recv(fd, 1 << 20)) echoed += r.value().size();
    } else if (fd == client && t == ev::error) {
      client_errors.push_back(e);
      (void)ga.nk_close(fd);
    } else if (fd != lfd && t == ev::closed) {
      (void)ga.nk_close(fd);
    }
  });
  bed.run_for(milliseconds(1));

  core_engine& ce = bed.netkernel(side::a);
  auto gauge = [&](const char* name) {
    return ce.metrics().value_of(name).value_or(-1.0);
  };
  double dropped = 0.0;
  double stale = 0.0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    client = ga.nk_socket().value();
    echoed = 0;
    client_errors.clear();
    ASSERT_TRUE(ga.nk_connect(client, {echo_addr, 7000}).ok());
    bed.run_for(milliseconds(2));
    ASSERT_EQ(echoed, payload) << "cycle " << cycle;
    const auto probe = gb.nk_socket().value();
    probes.insert(probe);
    ASSERT_TRUE(gb.nk_connect(probe, {tenant_addr, 7100}).ok());
    bed.run_for(milliseconds(1));
    ASSERT_EQ(probes_connected, cycle + 1) << "cycle " << cycle;
    ASSERT_EQ(accepted, cycle + 1) << "cycle " << cycle;

    // Fail the module the moment a second payload is sent: its req_sends
    // are still in the rings and die with the module. (ServiceLib runs each
    // job to completion within a few microseconds, so a later failure
    // finds nothing of the payload left in flight.)
    ASSERT_TRUE(ga.nk_send(client, buffer::pattern(payload, cycle)).ok());
    const nsm_id old = current;
    fresh_cfg.name = "nsm-a-r" + std::to_string(cycle);
    current = ce.replace_nsm(old, fresh_cfg).id();
    bed.run_for(milliseconds(5));

    ASSERT_EQ(client_errors, std::vector<errc>{errc::nsm_reset})
        << "cycle " << cycle;
    EXPECT_EQ(ce.nsm_by_id(old), nullptr) << "cycle " << cycle;
    EXPECT_EQ(ce.service_of(old), nullptr) << "cycle " << cycle;
    ASSERT_EQ(ce.nsms().size(), 1u) << "cycle " << cycle;
    EXPECT_EQ(ce.nsms().front()->id(), current);
    ASSERT_NE(ce.service_of(current), nullptr);
    EXPECT_FALSE(ce.service_of(current)->failed());
    for (auto* engine : {&ce, &bed.netkernel(side::b)}) {
      for (const auto vm : engine->attached_vms()) {
        const channel* ch = engine->channel_of(vm);
        ASSERT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count())
            << "cycle " << cycle << " vm " << vm;
      }
      for (std::size_t s = 0; s < engine->shards(); ++s) {
        const auto& st = engine->shard_stats(s);
        ASSERT_EQ(st.unroutable_nqes + st.nqes_dropped + st.stale_nqes +
                      st.rejected_nqes,
                  engine->shard_traces_dropped(s) +
                      engine->shard_discards_untraced(s))
            << "cycle " << cycle << " shard " << s;
      }
    }
    EXPECT_GE(gauge("engine_nqes_dropped"), dropped) << "cycle " << cycle;
    EXPECT_GE(gauge("engine_stale_nqes"), stale) << "cycle " << cycle;
    dropped = gauge("engine_nqes_dropped");
    stale = gauge("engine_stale_nqes");
  }
  // The failovers really discarded work in flight.
  EXPECT_GT(dropped + stale, 0.0);
}

// --- zero-copy transmit ------------------------------------------------------------
//
// ServiceLib transmits straight from the tenant's chunk and keeps it pinned
// until the peer acknowledges its bytes. Its req_send's credit is owed to
// the guest once the stack has transmitted the bytes (on the ACK, if the
// pinned bytes would otherwise outgrow the send buffer) and goes up in a
// cmp_send with the rest owed; the chunk goes home on the ACK. On every
// teardown path the pins go home with no cmp_send.

constexpr std::uint16_t zc_port = 7300;

// One sender VM (side a) and one receiver VM (side b), each with its own
// NSM speaking `transport`. The receiver accepts every connection and reads
// it to EOF, checking the byte pattern; the sender streams `limit` bytes of
// pattern on each socket it opens, refilling on writable.
struct zc_rig {
  explicit zc_rig(
      const std::string& transport = "tcp", std::uint64_t seed = 5,
      const std::function<void(apps::testbed_params&)>& tweak = {},
      const std::function<void(nsm_config&)>& nsm_tweak = {})
      : bed{[&] {
          auto p = apps::datacenter_params(seed);
          if (tweak) tweak(p);
          return p;
        }()} {
    nsm_config nsm_cfg;
    nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
    nsm_cfg.transport = transport;
    if (nsm_tweak) nsm_tweak(nsm_cfg);
    virt::vm_config vm_cfg;
    vm_cfg.name = "tx";
    tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
    vm_cfg.name = "rx";
    nsm_cfg.name = "nsm-rx";
    rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

    auto& g = *rx.glib;
    lfd = g.nk_socket().value();
    EXPECT_TRUE(g.nk_bind(lfd, zc_port).ok());
    EXPECT_TRUE(g.nk_listen(lfd).ok());
    g.set_event_handler([this](std::uint32_t fd, stack::socket_event_type t,
                               errc) {
      if (fd == lfd) {
        while (auto c = rx.glib->nk_accept(lfd)) received[c.value()];
      } else if (t == stack::socket_event_type::readable) {
        drain(fd);
      }
    });
    tx.glib->set_event_handler([this](std::uint32_t fd,
                                      stack::socket_event_type t, errc) {
      auto it = writers.find(fd);
      if (it == writers.end()) return;
      if (t == stack::socket_event_type::error) {
        ++it->second.errors;
      } else if (t == stack::socket_event_type::connected ||
                 t == stack::socket_event_type::writable) {
        if (it->second.errors > 0) ++it->second.writable_after_error;
        pump(fd);
      }
    });
  }

  struct writer {
    std::uint64_t limit = 0;
    std::uint64_t sent = 0;  // accepted by GuestLib
    int errors = 0;
    int writable_after_error = 0;
    // Pattern bytes from stream offset `window_start` on, sliced for writes
    // so a blocked write does not build its payload for nothing.
    buffer window;
    std::uint64_t window_start = 0;
  };
  struct reader {
    std::uint64_t bytes = 0;
    bool eof = false;
  };

  std::uint32_t open(std::uint64_t limit) {
    const auto fd = tx.glib->nk_socket().value();
    writers[fd].limit = limit;
    EXPECT_TRUE(
        tx.glib->nk_connect(fd, {rx.module->config().address, zc_port}).ok());
    return fd;
  }

  void pump(std::uint32_t fd) {
    constexpr std::uint64_t write_size = 64 * 1024;
    writer& w = writers[fd];
    while (w.sent < w.limit) {
      const std::uint64_t want = std::min(write_size, w.limit - w.sent);
      if (w.sent + want > w.window_start + w.window.size()) {
        w.window = buffer::pattern(4 * write_size, w.sent);
        w.window_start = w.sent;
      }
      auto r = tx.glib->nk_send(
          fd, w.window.slice(w.sent - w.window_start, want));
      if (!r) return;
      w.sent += r.value();
    }
  }

  void drain(std::uint32_t fd) {
    reader& r = received[fd];
    while (true) {
      auto got = rx.glib->nk_recv(fd, 1 << 20);
      if (!got) {
        if (got.error() == errc::closed) r.eof = true;
        return;
      }
      pattern_ok = pattern_ok && got.value().matches_pattern(r.bytes);
      r.bytes += got.value().size();
    }
  }

  [[nodiscard]] std::uint64_t total_received() const {
    std::uint64_t n = 0;
    for (const auto& [fd, r] : received) n += r.bytes;
    return n;
  }

  channel& tx_channel() {
    return *bed.netkernel(side::a).channel_of(tx.vm->id());
  }

  // The sending NSM's first live connection, 0 if none (TCP numbers
  // sockets from 1, nkq from 2^32).
  stack::socket_id tx_connection() {
    for (const stack::socket_id base :
         {std::uint64_t{0}, std::uint64_t{1} << 32}) {
      for (stack::socket_id s = base; s < base + 64; ++s) {
        if (tx.module->transport().flow_info(s)) return s;
      }
    }
    return 0;
  }
  bool tx_stack_holds_a_connection() { return tx_connection() != 0; }

  // cmp_sends that returned more credit than the sender had outstanding.
  [[nodiscard]] std::uint64_t over_credits() const {
    return tx.glib->stats().over_credits;
  }

  // The sender-side tcb of the (only) connection to the receiver.
  tcp::tcb* tx_tcb() {
    for (stack::socket_id s = 1; s < 64; ++s) {
      if (auto* t = tx.module->stack().tcb_of(s);
          t != nullptr && t->tuple().remote.port == zc_port) {
        return t;
      }
    }
    return nullptr;
  }

  testbed bed;
  apps::nk_tenant tx;
  apps::nk_tenant rx;
  std::uint32_t lfd = 0;
  std::map<std::uint32_t, writer> writers;
  std::map<std::uint32_t, reader> received;
  bool pattern_ok = true;
};

// Every engine-side discard is a traced drop or an untraced one, shard by
// shard — the drop identity a pin leak or a stray nqe would break.
void expect_drop_identity(core_engine& ce) {
  for (std::size_t s = 0; s < ce.shards(); ++s) {
    const auto& st = ce.shard_stats(s);
    EXPECT_EQ(st.unroutable_nqes + st.nqes_dropped + st.stale_nqes +
                  st.rejected_nqes,
              ce.shard_traces_dropped(s) + ce.shard_discards_untraced(s))
        << "shard " << s;
  }
}

TEST(netkernel_zero_copy, chunk_stays_pinned_until_the_ack) {
  zc_rig rig;
  const auto fd = rig.open(0);
  rig.bed.run_for(milliseconds(1));
  channel& ch = rig.tx_channel();
  const std::size_t free0 = ch.pool.chunks_free();
  const std::uint64_t out0 = ch.nqes_nsm_to_vm();
  ASSERT_TRUE(rig.tx.glib->nk_send(fd, buffer::pattern(8192, 0)).ok());

  bool credited_before_ack = false;
  bool acked = false;
  for (int step = 0; step < 10000 && !acked; ++step) {
    rig.bed.run_for(nanoseconds(100));
    const tcp::tcb* t = rig.tx_tcb();
    ASSERT_NE(t, nullptr);
    acked = t->acked_bytes() == 8192;
    // The first output after the send is its cmp_send (a whole chunk's
    // credit is one batch): it comes once the stack has transmitted the
    // bytes, before the peer acknowledges them.
    if (ch.nqes_nsm_to_vm() > out0 && !credited_before_ack) {
      EXPECT_EQ(t->sent_bytes(), 8192u);
      EXPECT_FALSE(acked);
      credited_before_ack = !acked;
    }
    // The chunk stays out of the pool until the ACK, and comes home then.
    EXPECT_EQ(ch.pool.chunks_free(), acked ? free0 : free0 - 1);
  }
  EXPECT_TRUE(credited_before_ack);
  EXPECT_TRUE(acked);
  // The ACK frees the chunk with no second nqe: the cmp_send is counted
  // at both of its hops (ServiceLib's push, the engine's forward).
  EXPECT_EQ(ch.nqes_nsm_to_vm(), out0 + 2);
  rig.bed.run_for(milliseconds(1));
  EXPECT_EQ(rig.total_received(), 8192u);
  EXPECT_TRUE(rig.pattern_ok);
  EXPECT_EQ(rig.over_credits(), 0u);
}

TEST(netkernel_zero_copy, lossy_bulk_transfer_returns_every_chunk) {
  zc_rig rig{"tcp", 9, [](apps::testbed_params& p) { p.wire.loss_rate = 0.01; }};
  constexpr std::uint64_t total = 4u << 20;
  const auto fd = rig.open(total);
  rig.bed.run_for(seconds(2));
  ASSERT_EQ(rig.total_received(), total);
  EXPECT_TRUE(rig.pattern_ok);
  // Lost segments were retransmitted from the stack's own copy while their
  // chunks stayed pinned.
  ASSERT_NE(rig.tx_tcb(), nullptr);
  EXPECT_GT(rig.tx_tcb()->stats().bytes_retransmitted, 0u);

  ASSERT_TRUE(rig.tx.glib->nk_close(fd).ok());
  rig.bed.run_for(milliseconds(100));
  EXPECT_TRUE(rig.received.begin()->second.eof);
  for (auto s : {side::a, side::b}) {
    for (const auto vm : rig.bed.netkernel(s).attached_vms()) {
      const channel* ch = rig.bed.netkernel(s).channel_of(vm);
      EXPECT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count());
    }
    expect_drop_identity(rig.bed.netkernel(s));
  }
  EXPECT_EQ(rig.over_credits(), 0u);
}

// Mid-stream teardown of the sending VM's service: its NSM fails over, the
// VM is detached, or it is quarantined. The sender writes 4 MB over a
// 2 ms round trip; once every req_send has reached the stack, megabytes
// are still unacknowledged in flight, so their chunks are pinned.
enum class teardown { failover, detach, quarantine };

class netkernel_zero_copy_teardown
    : public ::testing::TestWithParam<std::tuple<std::string, teardown>> {};

TEST_P(netkernel_zero_copy_teardown, returns_every_pinned_chunk) {
  const auto [transport, kind] = GetParam();
  zc_rig rig{transport, 5, [](apps::testbed_params& p) {
               p.wire.propagation_delay = milliseconds(1);
             }};
  core_engine& ce = rig.bed.netkernel(side::a);
  const auto vm = rig.tx.vm->id();
  const auto fd = rig.open(4u << 20);
  channel& ch = rig.tx_channel();
  service_lib* dead = ce.service_of(rig.tx.module->id());
  for (int i = 0; i < 10000 && dead->stats().bytes_to_stack < (4u << 20); ++i) {
    rig.bed.run_for(microseconds(10));
  }
  ASSERT_EQ(rig.writers[fd].sent, 4u << 20);
  ASSERT_EQ(dead->stats().bytes_to_stack, 4u << 20);
  ASSERT_LT(rig.total_received(), 4u << 20);
  // Megabytes are unacknowledged, so their chunks are pinned.
  ASSERT_GE((ch.pool.chunk_count() - ch.pool.chunks_free()) *
                ch.pool.chunk_size(),
            1u << 20);
  ASSERT_TRUE(rig.tx_stack_holds_a_connection());

  switch (kind) {
    case teardown::failover: {
      dead->fail();
      nsm_config fresh = rig.tx.module->config();
      fresh.name = "nsm-tx2";
      fresh.form = nsm_form::container;
      ce.replace_nsm(rig.tx.module->id(), fresh);
      break;
    }
    case teardown::detach:
      ce.detach_vm(vm);
      break;
    case teardown::quarantine:
      ce.quarantine_vm(vm, "test");
      break;
  }
  // Every pin is back the moment the service lets go of the socket, and
  // no stack is left to transmit from the returned chunks: the connection
  // that held them was aborted, not closed gracefully.
  EXPECT_EQ(ch.pool.chunks_free(), ch.pool.chunk_count());
  EXPECT_FALSE(rig.tx_stack_holds_a_connection());
  // Read through the engine: a failover destroys the dead ServiceLib at the
  // switchover and keeps its counters in the engine's running totals.
  auto dropped = [&] {
    return ce.metrics().value_of("engine_nqes_dropped").value_or(-1.0);
  };
  const double late_drops = dropped();
  rig.bed.run_for(milliseconds(200));

  EXPECT_EQ(ch.pool.chunks_free(), ch.pool.chunk_count());
  // The module emitted nothing after it let go: no cmp_send, so no credit
  // and no writable reached the guest.
  EXPECT_EQ(dropped(), late_drops);
  EXPECT_EQ(rig.writers[fd].writable_after_error, 0);
  if (kind != teardown::detach) {
    EXPECT_EQ(rig.writers[fd].errors, 1);  // detach raises no events
  }
  EXPECT_TRUE(rig.pattern_ok);
  for (auto s : {side::a, side::b}) expect_drop_identity(rig.bed.netkernel(s));
  EXPECT_EQ(rig.over_credits(), 0u);
}

std::string teardown_name(
    const ::testing::TestParamInfo<std::tuple<std::string, teardown>>& info) {
  const char* kinds[] = {"failover", "detach", "quarantine"};
  return std::get<0>(info.param) + "_" +
         kinds[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    transports, netkernel_zero_copy_teardown,
    ::testing::Combine(::testing::Values(std::string{"tcp"},
                                         std::string{"nkq"}),
                       ::testing::Values(teardown::failover, teardown::detach,
                                         teardown::quarantine)),
    teardown_name);

TEST(netkernel_zero_copy, setsockopt_send_buffer_bounds_outstanding_bytes) {
  zc_rig rig;
  constexpr std::uint64_t sndbuf = 64 * 1024;
  const auto fd = rig.tx.glib->nk_socket().value();
  ASSERT_TRUE(
      rig.tx.glib->nk_setsockopt(fd, nk_option::send_buffer, sndbuf).ok());
  rig.writers[fd].limit = UINT64_MAX;
  ASSERT_TRUE(rig.tx.glib
                  ->nk_connect(fd, {rig.rx.module->config().address, zc_port})
                  .ok());
  std::uint64_t peak = 0;
  for (int step = 0; step < 2000; ++step) {
    rig.bed.run_for(microseconds(5));
    if (const tcp::tcb* t = rig.tx_tcb()) {
      // Unsent plus unacknowledged bytes, counted from the application.
      peak = std::max(peak, rig.writers[fd].sent - t->acked_bytes());
    }
  }
  EXPECT_LE(peak, sndbuf);
  EXPECT_GT(peak, sndbuf / 2);
  EXPECT_GT(rig.total_received(), 1u << 20);
  EXPECT_TRUE(rig.pattern_ok);
  EXPECT_EQ(rig.over_credits(), 0u);
}

// A shutdown queued behind sends the stack has not taken yet must wait for
// them. The 512 KB goes down before the NSM has reported the socket's
// credit, so most of it parks in ServiceLib behind the 64 KB send buffer.
TEST(netkernel_zero_copy, shutdown_waits_for_parked_sends) {
  zc_rig rig{"tcp", 5, {},
             [](nsm_config& c) { c.tcp.send_buffer = 64 * 1024; }};
  constexpr std::uint64_t total = 512 * 1024;
  const auto fd = rig.open(0);
  rig.writers[fd].limit = total;
  rig.pump(fd);
  ASSERT_EQ(rig.writers[fd].sent, total);
  ASSERT_TRUE(rig.tx.glib->nk_shutdown(fd).ok());
  rig.bed.run_for(milliseconds(200));

  EXPECT_EQ(rig.total_received(), total);
  EXPECT_TRUE(rig.pattern_ok);
  ASSERT_EQ(rig.received.size(), 1u);
  EXPECT_TRUE(rig.received.begin()->second.eof);
  EXPECT_EQ(rig.writers[fd].errors, 0);
  channel& ch = rig.tx_channel();
  EXPECT_EQ(ch.pool.chunks_free(), ch.pool.chunk_count());
  EXPECT_EQ(rig.over_credits(), 0u);
}

// Pins are held for a round trip, so one socket can drain the pool. A
// writer starved of chunks with nothing of its own in flight must still
// wake when another socket's chunks come home.
TEST(netkernel_zero_copy, chunk_starved_writer_wakes_on_any_chunk_return) {
  zc_rig rig{"tcp", 5, [](apps::testbed_params& p) {
               p.netkernel.channel.hugepages.page_count = 1;  // 256 chunks
               p.wire.propagation_delay = milliseconds(1);
             }};
  channel& ch = rig.tx_channel();
  const auto bulk = rig.open(UINT64_MAX);
  const auto small = rig.open(0);
  // The bulk socket's unacknowledged bytes take every chunk once its window
  // outgrows the 2 MB pool on the 2 ms round trip; then it stops writing.
  for (int i = 0; i < 100000 && ch.pool.chunks_free() > 0; ++i) {
    rig.bed.run_for(microseconds(1));
  }
  ASSERT_EQ(ch.pool.chunks_free(), 0u);
  rig.writers[bulk].limit = rig.writers[bulk].sent;
  rig.writers[small].limit = 64 * 1024;
  rig.pump(small);
  ASSERT_EQ(rig.writers[small].sent, 0u);  // starved, nothing in flight

  rig.bed.run_for(milliseconds(10));
  EXPECT_EQ(rig.writers[small].sent, 64u * 1024);
  EXPECT_EQ(rig.total_received(), rig.writers[bulk].sent + 64 * 1024);
  EXPECT_TRUE(rig.pattern_ok);
  EXPECT_EQ(rig.over_credits(), 0u);
}

// TCP Small Queues across an NSM failover: the sending NSM dies while its
// connection's segments still wait in the host link's queue. The failed
// service aborts the connection, so those segments' tickets outlive its
// tcb; they drain onto the wire and release into nothing.
TEST(netkernel_tsq, failover_with_segments_in_the_host_queue) {
  zc_rig rig;
  core_engine& ce = rig.bed.netkernel(side::a);
  rig.open(UINT64_MAX);
  rig.bed.run_for(milliseconds(5));
  const tcp::tcb* t = rig.tx_tcb();
  ASSERT_NE(t, nullptr);
  ASSERT_GT(t->tsq_queued_bytes(), 0u);
  ASSERT_GT(rig.bed.wire().forward().queue_bytes(), 0u);

  ce.service_of(rig.tx.module->id())->fail();
  nsm_config fresh = rig.tx.module->config();
  fresh.name = "nsm-tx2";
  fresh.form = nsm_form::container;
  ce.replace_nsm(rig.tx.module->id(), fresh);
  EXPECT_FALSE(rig.tx_stack_holds_a_connection());
  EXPECT_GT(rig.bed.wire().forward().queue_bytes(), 0u);
  rig.bed.run_for(milliseconds(20));

  EXPECT_EQ(rig.bed.wire().forward().queue_bytes(), 0u);
  channel& ch = rig.tx_channel();
  EXPECT_EQ(ch.pool.chunks_free(), ch.pool.chunk_count());
  EXPECT_TRUE(rig.pattern_ok);
  for (auto s : {side::a, side::b}) expect_drop_identity(rig.bed.netkernel(s));
}

// A 4 MB send buffer at line rate: the guest's credit holds the bytes the
// stack has not transmitted under the 128 KB low-water mark, and unsent
// plus unacknowledged bytes stay within the send buffer. The mark does not
// bound the window: TCP's bytes in flight are what TCP Small Queues keeps
// below the stack plus the path's bandwidth-delay product, and nkq's fill
// the window.
class netkernel_zero_copy_lowat : public ::testing::TestWithParam<std::string> {
};

TEST_P(netkernel_zero_copy_lowat, credit_bounds_unsent_bytes_not_the_window) {
  zc_rig rig{GetParam()};
  const auto fd = rig.open(UINT64_MAX);
  // Past slow start's overshoot into the 2 MB switch queue.
  rig.bed.run_for(milliseconds(20));
  const stack::socket_id sock = rig.tx_connection();
  ASSERT_NE(sock, 0u);
  auto& transport = rig.tx.module->transport();
  const std::uint64_t received0 = rig.total_received();
  std::uint64_t unsent_peak = 0;
  std::uint64_t outstanding_peak = 0;
  std::uint64_t in_flight_peak = 0;
  for (int step = 0; step < 1000; ++step) {  // 5 ms
    rig.bed.run_for(microseconds(5));
    const auto sent = transport.sent_bytes(sock);
    const auto acked = transport.acked_bytes(sock);
    ASSERT_TRUE(sent.has_value() && acked.has_value());
    // Counted from the application: bytes it wrote that the stack has not
    // transmitted, and bytes it wrote that the peer has not acknowledged.
    const std::uint64_t app_sent = rig.writers[fd].sent;
    unsent_peak = std::max(unsent_peak, app_sent - *sent);
    outstanding_peak = std::max(outstanding_peak, app_sent - *acked);
    in_flight_peak = std::max(in_flight_peak, *sent - *acked);
  }
  EXPECT_LE(unsent_peak, 128u * 1024);
  EXPECT_LE(outstanding_peak, 4u << 20);
  if (GetParam() == "tcp") {
    // The path's bandwidth-delay product, at the wire's rate and the
    // connection's minimum RTT, plus two segments: the one the receiver
    // holds its ACK for (it ACKs every second segment) and a data
    // segment's own serialization, which the handshake's minimum RTT
    // leaves out.
    const auto info = transport.flow_info(sock);
    ASSERT_TRUE(info.has_value());
    ASSERT_GT(info->min_rtt_ns, 0u);
    const double bdp = rig.bed.wire().forward().config().rate.bps() / 8 *
                       static_cast<double>(info->min_rtt_ns) / 1e9;
    const double mss = apps::datacenter_tcp(tcp::cc_algorithm::cubic).mss;
    EXPECT_LE(static_cast<double>(in_flight_peak),
              tcp::tcb::tsq_limit_bytes + bdp + 2 * mss);
    EXPECT_GT(in_flight_peak, 128u * 1024);
  } else {
    EXPECT_GT(in_flight_peak, 4 * 128u * 1024);
  }
  const double gbps =
      static_cast<double>(rig.total_received() - received0) * 8 / 5e6;
  // TCP runs at the 40 Gb/s line rate; nkq's 1200-byte packets reach ~36.
  EXPECT_GT(gbps, GetParam() == "tcp" ? 39.0 : 30.0);
  EXPECT_TRUE(rig.pattern_ok);
  EXPECT_EQ(rig.over_credits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(transports, netkernel_zero_copy_lowat,
                         ::testing::Values(std::string{"tcp"},
                                           std::string{"nkq"}),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

// --- accumulated send credit ---------------------------------------------------
//
// ServiceLib owes a socket the credit of its transmitted (or acknowledged)
// bytes and returns it in one cmp_send once min(chunk size, credit / 2) of
// it has built up; a cmp_send never returns more than is outstanding.

// 1000 sequential 64 B echoes on one socket: 64 000 bytes of credit come
// back in at most one cmp_send per 8 KB chunk, not one per request.
TEST(netkernel_send_credit, sequential_echoes_batch_their_credit) {
  zc_rig rig;
  constexpr int requests = 1000;
  constexpr std::size_t request_size = 64;
  auto& srv = *rig.rx.glib;
  srv.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                            errc) {
    if (fd == rig.lfd) {
      while (srv.nk_accept(rig.lfd)) {
      }
    } else if (t == stack::socket_event_type::readable) {
      while (auto got = srv.nk_recv(fd, 1 << 16)) {
        EXPECT_TRUE(srv.nk_send(fd, std::move(got).value()).ok());
      }
    }
  });
  auto& cli = *rig.tx.glib;
  const auto fd = cli.nk_socket().value();
  int echoed = 0;
  std::size_t reply_bytes = 0;
  auto request = [&] {
    EXPECT_TRUE(cli.nk_send(fd, buffer::pattern(request_size, 0)).ok());
  };
  cli.set_event_handler([&](std::uint32_t, stack::socket_event_type t, errc) {
    if (t == stack::socket_event_type::connected) request();
    if (t != stack::socket_event_type::readable) return;
    while (auto got = cli.nk_recv(fd, 1 << 16)) {
      reply_bytes += got.value().size();
      while (reply_bytes >= request_size) {
        reply_bytes -= request_size;
        if (++echoed < requests) request();
      }
    }
  });
  ASSERT_TRUE(
      cli.nk_connect(fd, {rig.rx.module->config().address, zc_port}).ok());
  for (int i = 0; i < 1000 && echoed < requests; ++i) {
    rig.bed.run_for(milliseconds(1));
  }
  ASSERT_EQ(echoed, requests);
  const std::size_t chunk = rig.tx_channel().pool.chunk_size();
  EXPECT_LE(cli.stats().credit_returns,
            (requests * request_size + chunk - 1) / chunk);
  EXPECT_GT(cli.stats().credit_returns, 0u);
  EXPECT_EQ(rig.over_credits(), 0u);
}

// A send buffer below one chunk: the credit (2 KB) is smaller than the
// batch a chunk would set, and every credit waits for the ACK. The batch
// is half the credit, so the writer never stalls with its credit owed.
TEST(netkernel_send_credit, small_send_buffer_finishes_a_large_write) {
  zc_rig rig;
  constexpr std::uint64_t sndbuf = 2 * 1024;
  constexpr std::uint64_t total = 1u << 20;
  const auto fd = rig.tx.glib->nk_socket().value();
  ASSERT_TRUE(
      rig.tx.glib->nk_setsockopt(fd, nk_option::send_buffer, sndbuf).ok());
  rig.writers[fd].limit = total;
  ASSERT_TRUE(rig.tx.glib
                  ->nk_connect(fd, {rig.rx.module->config().address, zc_port})
                  .ok());
  for (int i = 0; i < 1000 && rig.total_received() < total; ++i) {
    rig.bed.run_for(milliseconds(1));
  }
  EXPECT_EQ(rig.writers[fd].sent, total);
  EXPECT_EQ(rig.total_received(), total);
  EXPECT_TRUE(rig.pattern_ok);
  EXPECT_EQ(rig.over_credits(), 0u);
}

// Lowering the send buffer lowers the batch: credit owed below the old
// batch but above the new one goes up at once, or a writer now blocked on
// the smaller credit would wait for it forever.
TEST(netkernel_send_credit, lowering_the_send_buffer_returns_what_is_owed) {
  zc_rig rig;
  const auto fd = rig.open(0);
  rig.bed.run_for(milliseconds(1));
  auto& cli = *rig.tx.glib;
  ASSERT_TRUE(cli.nk_send(fd, buffer::pattern(7000, 0)).ok());
  rig.bed.run_for(milliseconds(1));
  ASSERT_EQ(rig.total_received(), 7000u);
  ASSERT_EQ(cli.stats().credit_returns, 0u);  // owed: below the 8 KB batch

  ASSERT_TRUE(cli.nk_setsockopt(fd, nk_option::send_buffer, 2048).ok());
  rig.bed.run_for(milliseconds(1));
  EXPECT_EQ(cli.stats().credit_returns, 1u);
  ASSERT_TRUE(cli.nk_send(fd, buffer::pattern(2048, 7000)).ok());
  rig.bed.run_for(milliseconds(1));
  EXPECT_EQ(rig.total_received(), 9048u);
  EXPECT_TRUE(rig.pattern_ok);
  EXPECT_EQ(rig.over_credits(), 0u);
}

// A UDP sender held at its credit keeps sending: a datagram's credit comes
// back at once, never owed. With a 12 KB credit, six 1000 B datagrams owed
// against a stream's 6 KB batch would leave no room for the 7000 B one
// after them, and nothing more would be credited.
TEST(netkernel_send_credit, udp_sender_at_its_credit_keeps_sending) {
  zc_rig rig;
  auto& cli = *rig.tx.glib;
  auto& srv = *rig.rx.glib;
  const auto sink = srv.nk_udp_open(zc_port + 1).value();
  std::size_t received = 0;
  srv.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                            errc) {
    if (fd != sink || t != stack::socket_event_type::readable) return;
    while (srv.nk_udp_recv_from(sink)) ++received;
  });
  const auto fd = cli.nk_udp_open().value();
  ASSERT_TRUE(cli.nk_setsockopt(fd, nk_option::send_buffer, 12 * 1024).ok());
  rig.bed.run_for(milliseconds(1));
  const net::socket_addr dest{rig.rx.module->config().address,
                              static_cast<std::uint16_t>(zc_port + 1)};
  constexpr std::size_t datagrams = 280;
  std::size_t sent = 0;
  std::uint64_t blocked = 0;
  for (int step = 0; step < 100000 && sent < datagrams; ++step) {
    const std::size_t size = sent % 7 == 6 ? 7000 : 1000;
    if (cli.nk_udp_send_to(fd, dest, buffer::pattern(size, sent))) {
      ++sent;
    } else {
      ++blocked;
      rig.bed.run_for(microseconds(10));
    }
  }
  rig.bed.run_for(milliseconds(5));
  EXPECT_EQ(sent, datagrams);
  EXPECT_GT(blocked, 0u);  // it really was held at its credit
  EXPECT_EQ(received, datagrams);
  EXPECT_EQ(cli.stats().credit_returns, datagrams);
  EXPECT_EQ(rig.over_credits(), 0u);
}

// A datagram socket outlives NSM failover (CoreEngine replays its
// binding), so none of its credit may sit owed in a module that can die:
// four failovers, each after 900 B of datagrams (below a 2 KB credit's
// 1 KB stream batch), and the socket still sends.
TEST(netkernel_send_credit, udp_credit_survives_failovers) {
  zc_rig rig;
  auto& cli = *rig.tx.glib;
  const auto fd = cli.nk_udp_open().value();
  ASSERT_TRUE(cli.nk_setsockopt(fd, nk_option::send_buffer, 2048).ok());
  rig.bed.run_for(milliseconds(1));
  const net::socket_addr dest{rig.rx.module->config().address,
                              static_cast<std::uint16_t>(zc_port + 1)};
  core_engine& ce = rig.bed.netkernel(side::a);
  nsm_id id = rig.tx.module->id();
  nsm_config cfg = rig.tx.module->config();
  cfg.form = nsm_form::container;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 9; ++i) {
      ASSERT_TRUE(cli.nk_udp_send_to(fd, dest, buffer::pattern(100, 0)).ok())
          << "round " << round;
      rig.bed.run_for(microseconds(50));
    }
    ce.service_of(id)->fail();
    cfg.name = "nsm-tx-" + std::to_string(round);
    id = ce.replace_nsm(id, cfg).id();
    rig.bed.run_for(milliseconds(200));  // boot + switchover
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cli.nk_udp_send_to(fd, dest, buffer::pattern(100, 0)).ok());
    rig.bed.run_for(microseconds(50));
  }
  EXPECT_EQ(rig.over_credits(), 0u);
}

// A guest that closes while the NSM owes it credit gets no cmp_send after
// the close: the owed bytes are dropped with the flow, and every chunk
// still comes home.
TEST(netkernel_send_credit, close_while_owed_sends_no_credit) {
  zc_rig rig;
  const auto fd = rig.open(0);
  rig.bed.run_for(milliseconds(1));
  channel& ch = rig.tx_channel();
  ASSERT_TRUE(rig.tx.glib->nk_send(fd, buffer::pattern(100, 0)).ok());
  rig.bed.run_for(milliseconds(1));
  // Transmitted and acknowledged, and still owed: 100 B is below the batch.
  ASSERT_EQ(rig.total_received(), 100u);
  ASSERT_EQ(ch.pool.chunks_free(), ch.pool.chunk_count());
  ASSERT_EQ(rig.tx.glib->stats().credit_returns, 0u);
  const std::uint64_t out0 = ch.nqes_nsm_to_vm();

  ASSERT_TRUE(rig.tx.glib->nk_close(fd).ok());
  rig.bed.run_for(milliseconds(10));
  EXPECT_EQ(ch.nqes_nsm_to_vm(), out0);
  EXPECT_EQ(rig.tx.glib->stats().credit_returns, 0u);
  EXPECT_TRUE(rig.received.begin()->second.eof);
  for (auto s : {side::a, side::b}) {
    for (const auto vm : rig.bed.netkernel(s).attached_vms()) {
      const channel* c = rig.bed.netkernel(s).channel_of(vm);
      EXPECT_EQ(c->pool.chunks_free(), c->pool.chunk_count());
    }
    expect_drop_identity(rig.bed.netkernel(s));
  }
  EXPECT_EQ(rig.over_credits(), 0u);
}

}  // namespace
}  // namespace nk::core
