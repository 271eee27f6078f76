// Tenant quotas at the ServiceLib boundary (DESIGN.md §15): the cycle budget
// and chunk quota of a VM's sla_spec are pure backpressure — observable
// through the sla_manager's usage and quota_log, ServiceLib stall counters,
// monitor alerts, and vmN gauges — and never lose work.
#include <gtest/gtest.h>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "core/monitor.hpp"

namespace {

using namespace nk;
using apps::side;

struct quota_bed {
  apps::testbed bed;
  apps::nk_tenant tx;
  apps::nk_tenant rx;

  // `spec` is set for both tenants, each on its own engine.
  explicit quota_bed(const core::sla_spec& spec, std::uint64_t seed = 5)
      : bed{apps::datacenter_params(seed)} {
    const auto cc = tcp::cc_algorithm::cubic;
    core::nsm_config nsm_cfg;
    nsm_cfg.cc = cc;
    nsm_cfg.tcp = apps::datacenter_tcp(cc);
    virt::vm_config vm_cfg;
    vm_cfg.name = "tx-vm";
    nsm_cfg.name = "nsm-tx";
    tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
    vm_cfg.name = "rx-vm";
    nsm_cfg.name = "nsm-rx";
    rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
    bed.netkernel(side::a).sla().set_tenant(tx.vm->id(), spec);
    bed.netkernel(side::b).sla().set_tenant(rx.vm->id(), spec);
  }
};

// Bulk writes burn far past a small cycle budget: the ServiceLib must
// throttle (rising-edge quota_log entries, cycle_throttles), the monitor
// must alert with a flight-recorder snapshot, the gauges must be live —
// and every byte must still arrive (backpressure, not loss).
TEST(tenant_quota, cycle_hog_is_throttled_alerted_and_lossless) {
  quota_bed q{core::sla_spec{.cycle_budget = microseconds(10)}};

  core::core_engine& ce = q.bed.netkernel(side::a);
  core::monitor_config mcfg;
  mcfg.interval = milliseconds(1);
  core::health_monitor mon{ce, mcfg};
  mon.start();

  apps::bulk_sink sink{*q.rx.api, 5001, /*validate=*/true};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 1;
  scfg.bytes_per_flow = 1 << 20;
  apps::bulk_sender sender{*q.tx.api,
                           {q.rx.module->config().address, 5001}, scfg};
  sender.start();

  for (int i = 0; i < 4000 && sink.flows_finished() < 1; ++i) {
    q.bed.run_for(milliseconds(1));
  }
  q.bed.run_for(milliseconds(20));

  // Backpressure, never loss: the full megabyte landed intact, just late.
  EXPECT_EQ(sink.flows_finished(), 1u);
  EXPECT_EQ(sink.total_bytes(), std::uint64_t{1} << 20);
  EXPECT_TRUE(sink.pattern_ok());

  const virt::vm_id vm = q.tx.vm->id();
  EXPECT_GT(ce.sla().usage_of(vm).cycle_throttles, 0u);
  ASSERT_FALSE(ce.sla().quota_log().empty());
  for (const auto& ev : ce.sla().quota_log()) {
    EXPECT_EQ(ev.vm, vm);
    EXPECT_EQ(ev.module, q.tx.module->id());
    EXPECT_TRUE(ev.cycles);
    EXPECT_GE(ev.observed, ev.limit);
  }

  bool alerted = false;
  for (const auto& a : mon.alerts()) {
    if (a.kind == core::alert_kind::tenant_quota_exceeded && a.vm == vm) {
      alerted = true;
      EXPECT_EQ(a.module, q.tx.module->id());
      EXPECT_NE(a.detail.find("cycle budget"), std::string::npos);
    }
  }
  EXPECT_TRUE(alerted);
  ASSERT_TRUE(mon.quota_snapshots().count(vm));
  EXPECT_FALSE(mon.quota_snapshots().at(vm).empty());

  // Gauges registered per VM (live values depend on when the period last
  // rolled; existence and non-negativity are the contract).
  const auto cycles =
      ce.metrics().value_of("vm" + std::to_string(vm) + "_cycle_budget_used");
  const auto chunks =
      ce.metrics().value_of("vm" + std::to_string(vm) + "_chunk_quota_used");
  ASSERT_TRUE(cycles.has_value());
  ASSERT_TRUE(chunks.has_value());
  EXPECT_GE(*cycles, 0.0);
  EXPECT_GE(*chunks, 0.0);
}

// A tiny chunk quota stalls reads while the guest sits on undrained data;
// the transfer still completes once the guest frees chunks.
TEST(tenant_quota, chunk_cap_backpressures_reads_without_loss) {
  quota_bed q{core::sla_spec{.chunk_quota = 4}};

  apps::bulk_sink sink{*q.rx.api, 5001, /*validate=*/true};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 1;
  scfg.bytes_per_flow = 512 << 10;
  apps::bulk_sender sender{*q.tx.api,
                           {q.rx.module->config().address, 5001}, scfg};
  sender.start();

  for (int i = 0; i < 4000 && sink.flows_finished() < 1; ++i) {
    q.bed.run_for(milliseconds(1));
  }
  q.bed.run_for(milliseconds(20));

  EXPECT_EQ(sink.flows_finished(), 1u);
  EXPECT_EQ(sink.total_bytes(), std::uint64_t{512} << 10);
  EXPECT_TRUE(sink.pattern_ok());

  // The receive side (side b) is where chunks pile up against the cap.
  core::core_engine& ce = q.bed.netkernel(side::b);
  auto* svc = ce.service_of(q.rx.module->id());
  ASSERT_NE(svc, nullptr);
  EXPECT_GT(svc->stats().chunk_quota_stalls, 0u);
  bool saw_chunk_event = false;
  for (const auto& ev : ce.sla().quota_log()) {
    if (!ev.cycles) {
      saw_chunk_event = true;
      EXPECT_EQ(ev.limit, 4u);
    }
  }
  EXPECT_TRUE(saw_chunk_event);
}

// No quota set (the default spec): nothing throttles, the log stays empty,
// and the gauges still exist reading zero / raw occupancy.
TEST(tenant_quota, no_quota_set_never_throttles) {
  quota_bed q{core::sla_spec{}};

  apps::bulk_sink sink{*q.rx.api, 5001, false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 1;
  scfg.bytes_per_flow = 256 << 10;
  apps::bulk_sender sender{*q.tx.api,
                           {q.rx.module->config().address, 5001}, scfg};
  sender.start();
  for (int i = 0; i < 2000 && sink.flows_finished() < 1; ++i) {
    q.bed.run_for(milliseconds(1));
  }

  core::core_engine& ce = q.bed.netkernel(side::a);
  auto* svc = ce.service_of(q.tx.module->id());
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(ce.sla().usage_of(q.tx.vm->id()).cycle_throttles, 0u);
  EXPECT_EQ(svc->stats().quota_stalls, 0u);
  EXPECT_EQ(svc->stats().chunk_quota_stalls, 0u);
  EXPECT_TRUE(ce.sla().quota_log().empty());
  const std::string p = "vm" + std::to_string(q.tx.vm->id());
  EXPECT_EQ(ce.metrics().value_of(p + "_cycle_budget_used"), 0.0);
  EXPECT_TRUE(ce.metrics().value_of(p + "_chunk_quota_used").has_value());
}

// Throttling must not bend the accounting identity or leak chunks: audit
// both engines at quiescence after a throttled run.
TEST(tenant_quota, invariants_hold_under_throttling) {
  quota_bed q{core::sla_spec{.cycle_budget = microseconds(10)}};

  apps::bulk_sink sink{*q.rx.api, 5001, false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 2;
  scfg.bytes_per_flow = 256 << 10;
  apps::bulk_sender sender{*q.tx.api,
                           {q.rx.module->config().address, 5001}, scfg};
  sender.start();
  for (int i = 0; i < 4000 && sink.flows_finished() < 2; ++i) {
    q.bed.run_for(milliseconds(1));
  }
  q.bed.run_for(milliseconds(50));
  EXPECT_EQ(sink.flows_finished(), 2u);

  for (auto* engine : {&q.bed.netkernel(side::a), &q.bed.netkernel(side::b)}) {
    for (const auto vm : engine->attached_vms()) {
      auto* ch = engine->channel_of(vm);
      EXPECT_EQ(ch->pool.chunk_count(), ch->pool.chunks_free())
          << "chunk leak on vm " << vm;
    }
    for (std::size_t s = 0; s < engine->shards(); ++s) {
      const auto& st = engine->shard_stats(s);
      EXPECT_EQ(st.unroutable_nqes + st.nqes_dropped + st.stale_nqes +
                    st.rejected_nqes,
                engine->shard_traces_dropped(s) +
                    engine->shard_discards_untraced(s))
          << "shard " << s;
    }
  }
}

}  // namespace
