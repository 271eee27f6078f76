// Centralized bandwidth arbitration tests (§5's Fastpass-as-NSM point).
#include <gtest/gtest.h>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "core/arbiter.hpp"

namespace nk::core {
namespace {

using apps::side;
using apps::testbed;

struct arbiter_rig {
  explicit arbiter_rig(int tenants) : bed{apps::datacenter_params(91)} {
    nsm_config nsm_cfg;
    nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
    virt::vm_config vm_cfg;
    for (int i = 0; i < tenants; ++i) {
      vm_cfg.name = "tenant-" + std::to_string(i);
      nsm_cfg.name = "nsm-" + std::to_string(i);
      vms.push_back(bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg));
    }
    vm_cfg.name = "server";
    nsm_cfg.name = "nsm-server";
    nsm_cfg.cores = 3;
    server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
    sink = std::make_unique<apps::bulk_sink>(*server.api, 5001, false);
    sink->start();
  }

  void launch_bulk(std::size_t tenant) {
    apps::bulk_sender_config scfg;
    scfg.flows = 1;
    scfg.bytes_per_flow = 0;
    scfg.patterned = false;
    senders.push_back(std::make_unique<apps::bulk_sender>(
        *vms[tenant].api,
        net::socket_addr{server.module->config().address, 5001}, scfg));
    senders.back()->start();
  }

  [[nodiscard]] double tenant_rate_gbps(std::size_t tenant, sim_time window,
                                        std::uint64_t bytes_before) {
    const auto& usage =
        bed.netkernel(side::a).sla().usage_of(vms[tenant].vm->id());
    return rate_of(usage.bytes_sent - bytes_before, window).bps() / 1e9;
  }

  [[nodiscard]] std::uint64_t tenant_bytes(std::size_t tenant) {
    return bed.netkernel(side::a)
        .sla()
        .usage_of(vms[tenant].vm->id())
        .bytes_sent;
  }

  testbed bed;
  std::vector<apps::nk_tenant> vms;
  apps::nk_tenant server;
  std::unique_ptr<apps::bulk_sink> sink;
  std::vector<std::unique_ptr<apps::bulk_sender>> senders;
};

TEST(arbiter, splits_capacity_equally_between_active_tenants) {
  arbiter_rig rig{2};
  arbiter_config acfg;
  acfg.link_capacity = data_rate::gbps(10);
  acfg.epoch = milliseconds(2);
  bandwidth_arbiter arb{rig.bed.netkernel(side::a), acfg};
  arb.start();

  rig.launch_bulk(0);
  rig.launch_bulk(1);
  rig.bed.run_for(milliseconds(100));  // converge
  const std::uint64_t b0 = rig.tenant_bytes(0);
  const std::uint64_t b1 = rig.tenant_bytes(1);
  rig.bed.run_for(milliseconds(200));

  const double r0 = rig.tenant_rate_gbps(0, milliseconds(200), b0);
  const double r1 = rig.tenant_rate_gbps(1, milliseconds(200), b1);
  // Each near half of the 9.5 Gb/s budget.
  EXPECT_NEAR(r0, 4.75, 1.0);
  EXPECT_NEAR(r1, 4.75, 1.0);
  EXPECT_EQ(arb.active_tenants(), 2);
  EXPECT_GT(arb.epochs(), 50u);
}

TEST(arbiter, reallocates_when_a_tenant_goes_idle) {
  arbiter_rig rig{2};
  arbiter_config acfg;
  acfg.link_capacity = data_rate::gbps(10);
  acfg.epoch = milliseconds(2);
  bandwidth_arbiter arb{rig.bed.netkernel(side::a), acfg};
  arb.start();

  // Only tenant 0 is active: it should get (nearly) the whole budget.
  rig.launch_bulk(0);
  rig.bed.run_for(milliseconds(100));
  const std::uint64_t b0 = rig.tenant_bytes(0);
  rig.bed.run_for(milliseconds(200));
  const double solo = rig.tenant_rate_gbps(0, milliseconds(200), b0);
  EXPECT_NEAR(solo, 9.5, 1.2);
  EXPECT_EQ(arb.active_tenants(), 1);

  // Second tenant wakes up: both converge toward half.
  rig.launch_bulk(1);
  rig.bed.run_for(milliseconds(150));
  const std::uint64_t c0 = rig.tenant_bytes(0);
  const std::uint64_t c1 = rig.tenant_bytes(1);
  rig.bed.run_for(milliseconds(200));
  const double r0 = rig.tenant_rate_gbps(0, milliseconds(200), c0);
  const double r1 = rig.tenant_rate_gbps(1, milliseconds(200), c1);
  EXPECT_NEAR(r0, 4.75, 1.2);
  EXPECT_NEAR(r1, 4.75, 1.2);
}

TEST(arbiter, stop_freezes_allocations) {
  arbiter_rig rig{1};
  bandwidth_arbiter arb{rig.bed.netkernel(side::a)};
  arb.start();
  rig.bed.run_for(milliseconds(20));
  const auto epochs = arb.epochs();
  EXPECT_GT(epochs, 0u);
  arb.stop();
  rig.bed.run_for(milliseconds(50));
  EXPECT_EQ(arb.epochs(), epochs);
}

// The arbiter re-programs only the rate: a tenant's connection and chunk
// quotas survive every epoch, and the connection quota is still enforced.
TEST(arbiter, epochs_keep_the_rest_of_the_spec) {
  arbiter_rig rig{1};
  core_engine& ce = rig.bed.netkernel(side::a);
  const virt::vm_id vm = rig.vms[0].vm->id();
  ce.sla().set_tenant(vm, sla_spec{.max_connections = 1, .chunk_quota = 8});
  arbiter_config acfg;
  acfg.epoch = milliseconds(1);
  bandwidth_arbiter arb{ce, acfg};
  arb.start();
  rig.bed.run_for(milliseconds(3));
  ASSERT_GE(arb.epochs(), 3u);

  const sla_spec& spec = ce.sla().tenant_of(vm).spec;
  EXPECT_FALSE(spec.rate_cap.is_zero());  // the arbiter did set a rate
  EXPECT_EQ(spec.max_connections, 1u);
  EXPECT_EQ(spec.chunk_quota, 8u);

  auto& glib = *rig.vms[0].glib;
  int connected = 0;
  int refused = 0;
  glib.set_event_handler([&](std::uint32_t, stack::socket_event_type t,
                             errc e) {
    if (t == stack::socket_event_type::connected) ++connected;
    if (t == stack::socket_event_type::error &&
        e == errc::resource_exhausted) {
      ++refused;
    }
  });
  for (int i = 0; i < 2; ++i) {
    const auto fd = glib.nk_socket().value();
    ASSERT_TRUE(
        glib.nk_connect(fd, {rig.server.module->config().address, 5001})
            .ok());
  }
  rig.bed.run_for(milliseconds(3));
  EXPECT_EQ(connected, 1);
  EXPECT_EQ(refused, 1);
  EXPECT_EQ(ce.sla().tenant_of(vm).spec.chunk_quota, 8u);
}

}  // namespace
}  // namespace nk::core
