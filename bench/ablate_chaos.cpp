// Ablation A14: composable chaos storm against a hostile co-tenant.
//
// Two tenants share a side-a CoreEngine: a clean VM pouring mice flows at a
// side-b sink, and a hostile VM whose "guest" is a raw-ring injector forging
// nqes (bad opcodes, foreign fds, unowned chunk refs, epoch/token forgeries).
// A seeded chaos_schedule composes the hostile storm with provider-side
// faults — the hostile VM's NSM is frozen, then killed, and its huge-page
// pool flips to exhausted for a pulse — over depth-8 rings that make every
// queue a pressure point. The run is deterministic per seed.
//
// Gates (the robustness claims of DESIGN.md §14):
//   * the admission firewall rejects every forgery and the abuse escalator
//     ends the storm with the hostile VM quarantined (monitor alert raised);
//   * zero huge-page chunks leak on any channel, including the quarantined
//     hostile VM's, which the VM keeps after the engine detaches it;
//   * per-shard accounting stays exact on both hosts:
//       unroutable + dropped + stale + rejected
//         == traced drops + untraced discards;
//   * the clean tenant barely notices: its mice p99 FCT under attack stays
//     within 10% of the no-attack baseline on the same config and seed.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "apps/flowgen.hpp"
#include "apps/scenario.hpp"
#include "core/hostile.hpp"
#include "core/monitor.hpp"
#include "sim/chaos.hpp"

namespace {

using namespace nk;
using apps::side;

struct outcome {
  double p99_us = 0;        // clean tenant, mice FCT
  int flows_done = 0;
  int flows_offered = 0;
  bool quarantined = false;  // engine state for the hostile VM
  bool alerted = false;      // monitor raised vm_quarantined
  double vms_quarantined = 0;
  std::uint64_t injected = 0;
  std::uint64_t ring_full = 0;
  std::uint64_t no_channel = 0;
  double rejected = 0;
  double rej_reason[4] = {0, 0, 0, 0};  // badop, badfd, badchunk, badepoch
  std::size_t chaos_events = 0;
  long long leaked = 0;
  bool accounting_ok = true;
};

outcome run(bool attack, std::uint64_t seed, bool smoke) {
  auto params = apps::datacenter_params(seed);
  // Trace everything; forged nqes carry no trace id and land in the
  // untraced-discard counter, so the cross-check below is exact either way.
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.max_active = 1 << 16;
  params.netkernel.trace.max_spans = 1 << 17;
  params.netkernel.shards = 2;
  // Tiny rings in BOTH runs: the baseline is a stress baseline, and the
  // attack delta is attributable to the attack alone.
  params.netkernel.channel.queues.depth = 8;
  // Bench-tuned escalation so a ~half-second run crosses every level.
  params.netkernel.firewall.violations_per_sec = 50.0;
  params.netkernel.firewall.violation_burst = 32;
  params.netkernel.firewall.quarantine_threshold = 64;
  params.netkernel.firewall.probation = sim_time::zero();  // permanent
  apps::testbed bed{params};

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.cc = tcp::cc_algorithm::cubic;

  virt::vm_config vm_cfg;
  vm_cfg.name = "clean-vm";
  nsm_cfg.name = "nsm-clean";
  auto clean = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "hostile-vm";
  nsm_cfg.name = "nsm-hostile";
  auto rogue = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "sink-vm";
  nsm_cfg.name = "nsm-sink";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::flow_sink sink{*rx.api, 7000};
  sink.sim = &bed.sim();
  sink.start();
  apps::flowgen_config fcfg;
  fcfg.mix = apps::flow_mix::uniform;  // 1..64 KB: every flow is a mouse
  fcfg.flows = smoke ? 120 : 400;
  fcfg.arrivals_per_sec = 4000;
  fcfg.seed = seed;
  apps::flow_generator gen{*clean.api, bed.sim(),
                           {rx.module->config().address, 7000}, fcfg};
  gen.start();

  core::core_engine& ce = bed.netkernel(side::a);
  core::monitor_config mcfg;
  mcfg.interval = milliseconds(1);
  core::health_monitor mon{ce, mcfg};
  mon.start();

  const virt::vm_id vm_h = rogue.vm->id();
  // Captured before the storm: quarantine detaches the VM, which keeps its
  // channel (and pool), so the leak audit can still read it.
  core::channel* hch = ce.channel_of(vm_h);
  core::hostile_guest attacker{ce, vm_h, seed ^ 0x9e3779b97f4a7c15ull};

  sim::chaos_schedule chaos{bed.sim(), seed};
  if (attack) {
    // Four composed fault types: forged-nqe storm, NSM freeze, NSM crash,
    // pool exhaustion pulse — all against the hostile tenant's slice.
    const std::size_t shots = smoke ? 250 : 600;
    chaos.storm("hostile-injection", milliseconds(10), milliseconds(20),
                shots, [&attacker](std::size_t) { (void)attacker.inject(); });
    chaos.at(milliseconds(18), "nsm-hostile-freeze",
             [&ce, id = rogue.module->id()] {
               if (auto* svc = ce.service_of(id)) svc->freeze();
             });
    chaos.at(milliseconds(26), "nsm-hostile-fail",
             [&ce, id = rogue.module->id()] {
               if (auto* svc = ce.service_of(id)) svc->fail();
             });
    chaos.pulse("hostile-pool-exhausted", milliseconds(12), milliseconds(10),
                [hch](bool on) { hch->pool.set_exhausted(on); });
    chaos.arm();
  }

  for (int i = 0; i < 4000 && sink.completed() < fcfg.flows; ++i) {
    bed.run_for(milliseconds(1));
  }
  bed.run_for(milliseconds(50));  // settle aborts, discards, detach scrubs

  outcome out;
  out.p99_us = sink.fct_us(apps::size_class::mice).p99();
  out.flows_done = sink.completed();
  out.flows_offered = fcfg.flows;
  out.chaos_events = chaos.log().size();
  out.quarantined = ce.quarantined(vm_h);
  for (const auto& a : mon.alerts()) {
    if (a.kind == core::alert_kind::vm_quarantined && a.vm == vm_h) {
      out.alerted = true;
    }
  }
  out.vms_quarantined =
      ce.metrics().value_of("vms_quarantined").value_or(0.0);
  out.injected = attacker.stats().injected;
  out.ring_full = attacker.stats().ring_full;
  out.no_channel = attacker.stats().no_channel;

  static constexpr const char* reasons[4] = {"badop", "badfd", "badchunk",
                                             "badepoch"};
  out.rejected = ce.metrics().value_of("engine_nqes_rejected").value_or(0.0);
  for (int r = 0; r < 4; ++r) {
    out.rej_reason[r] =
        ce.metrics()
            .value_of(std::string{"engine_nqes_rejected_"} + reasons[r])
            .value_or(0.0);
  }

  // Leak + accounting audit across both hosts, every shard. The hostile
  // channel is audited explicitly: after quarantine it is no longer in
  // attached_vms().
  std::size_t chunks_total = hch->pool.chunk_count();
  std::size_t chunks_free = hch->pool.chunks_free();
  for (auto* engine : {&bed.netkernel(side::a), &bed.netkernel(side::b)}) {
    for (const auto vm : engine->attached_vms()) {
      auto* ch = engine->channel_of(vm);
      if (ch == hch) continue;
      chunks_total += ch->pool.chunk_count();
      chunks_free += ch->pool.chunks_free();
    }
    for (std::size_t s = 0; s < engine->shards(); ++s) {
      const auto& st = engine->shard_stats(s);
      const std::uint64_t lost = st.unroutable_nqes + st.nqes_dropped +
                                 st.stale_nqes + st.rejected_nqes;
      const std::uint64_t traced = engine->shard_traces_dropped(s) +
                                   engine->shard_discards_untraced(s);
      if (lost != traced) {
        out.accounting_ok = false;
        std::fprintf(stderr,
                     "shard %zu: lost=%llu traced=%llu (unroutable=%llu "
                     "dropped=%llu stale=%llu rejected=%llu)\n",
                     s, static_cast<unsigned long long>(lost),
                     static_cast<unsigned long long>(traced),
                     static_cast<unsigned long long>(st.unroutable_nqes),
                     static_cast<unsigned long long>(st.nqes_dropped),
                     static_cast<unsigned long long>(st.stale_nqes),
                     static_cast<unsigned long long>(st.rejected_nqes));
      }
    }
  }
  out.leaked = static_cast<long long>(chunks_total) -
               static_cast<long long>(chunks_free);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf(
      "Ablation A14: seeded chaos storm from a hostile co-tenant\n"
      "(storm = forged nqes + NSM freeze + NSM crash + pool exhaustion,\n"
      " all on depth-8 rings; the clean tenant's mice p99 FCT must stay\n"
      " within 10%% of the no-attack baseline, the hostile VM must end\n"
      " quarantined, and leaks/unaccounted drops must be 0)\n\n");

  const std::uint64_t seed = 42;
  const outcome base = run(/*attack=*/false, seed, smoke);
  const outcome atk = run(/*attack=*/true, seed, smoke);

  const double ratio =
      base.p99_us > 0 ? atk.p99_us / base.p99_us : 0.0;
  const double rej_sum = atk.rej_reason[0] + atk.rej_reason[1] +
                         atk.rej_reason[2] + atk.rej_reason[3];

  std::printf("%-22s %12s %12s\n", "", "baseline", "attack");
  std::printf("%-22s %12.1f %12.1f\n", "mice p99 FCT (us)", base.p99_us,
              atk.p99_us);
  std::printf("%-22s %12d %12d\n", "flows completed", base.flows_done,
              atk.flows_done);
  std::printf("%-22s %12zu %12zu\n", "chaos events fired",
              base.chaos_events, atk.chaos_events);
  std::printf("%-22s %12llu %12llu\n", "forgeries injected",
              static_cast<unsigned long long>(base.injected),
              static_cast<unsigned long long>(atk.injected));
  std::printf("%-22s %12.0f %12.0f\n", "firewall rejections", base.rejected,
              atk.rejected);
  std::printf(
      "  by reason: badop=%.0f badfd=%.0f badchunk=%.0f badepoch=%.0f\n",
      atk.rej_reason[0], atk.rej_reason[1], atk.rej_reason[2],
      atk.rej_reason[3]);
  std::printf("%-22s %12s %12s\n", "hostile quarantined",
              base.quarantined ? "yes" : "no", atk.quarantined ? "yes" : "no");
  std::printf("%-22s %12lld %12lld\n", "chunks leaked", base.leaked,
              atk.leaked);
  std::printf("\nclean-tenant p99 ratio (attack/baseline): %.3f\n", ratio);

  const bool ok =
      base.flows_done == base.flows_offered &&
      atk.flows_done == atk.flows_offered && base.leaked == 0 &&
      atk.leaked == 0 && base.accounting_ok && atk.accounting_ok &&
      !base.quarantined && atk.quarantined && atk.alerted &&
      atk.vms_quarantined >= 1 && atk.injected > 0 &&
      // Escalation needs burst + threshold violations before quarantine;
      // forgeries still queued at detach are scrubbed as drops, so
      // rejections land in [trigger, injected].
      atk.rejected >= 96 &&
      atk.rejected <= static_cast<double>(atk.injected) &&
      rej_sum == atk.rejected && ratio <= 1.10;

  std::string json = "{\n";
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "  \"seed\": %llu,\n"
      "  \"baseline\": {\"mice_p99_us\": %.3f, \"flows\": %d, "
      "\"leaked\": %lld},\n"
      "  \"attack\": {\"mice_p99_us\": %.3f, \"flows\": %d, "
      "\"leaked\": %lld,\n"
      "    \"chaos_events\": %zu, \"injected\": %llu, \"ring_full\": %llu,\n"
      "    \"rejected\": %.0f, \"rejected_badop\": %.0f, "
      "\"rejected_badfd\": %.0f,\n"
      "    \"rejected_badchunk\": %.0f, \"rejected_badepoch\": %.0f,\n"
      "    \"quarantined\": %s, \"alerted\": %s},\n"
      "  \"p99_ratio\": %.4f,\n"
      "  \"pass\": %s\n"
      "}\n",
      static_cast<unsigned long long>(seed), base.p99_us, base.flows_done,
      base.leaked, atk.p99_us, atk.flows_done, atk.leaked, atk.chaos_events,
      static_cast<unsigned long long>(atk.injected),
      static_cast<unsigned long long>(atk.ring_full), atk.rejected,
      atk.rej_reason[0], atk.rej_reason[1], atk.rej_reason[2],
      atk.rej_reason[3], atk.quarantined ? "true" : "false",
      atk.alerted ? "true" : "false", ratio, ok ? "true" : "false");
  json += buf;
  std::ofstream jout{"ablate_chaos.json"};
  jout << json;
  std::printf("snapshot: ablate_chaos.json\n");

  if (!ok) {
    std::printf("FAIL: a hostile-tenant hardening invariant was violated\n");
    return 1;
  }
  return 0;
}
