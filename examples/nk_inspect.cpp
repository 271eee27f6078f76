// nk_inspect: the provider-side diagnosis walkthrough (paper §5).
//
// Because the network stack runs provider-side, the operator can answer
// "why is this tenant slow?" without touching the guest. This example
// drives bulk traffic over a lossy link behind NetKernel, then plays
// operator:
//
//   1. prints the provider-wide flow table (`ss -i`, but for every tenant,
//      addressed <VM, fd> with the NSM-side stack state);
//   2. prints the stage-pair critical-path breakdown — which pipeline hop
//      the wall-clock actually went to;
//   3. prints the continuous profiler's top-N — which component the CPU
//      cycles actually went to (the flamegraph's first screen);
//   4. watches a latency SLO burn: a p99 objective on the VM-side job
//      dwell fires a multi-window burn-rate alert through the health
//      monitor, whose alarm-time snapshot embeds the profiler top-N;
//   5. kills the server NSM and shows the flight-recorder dump the health
//      monitor captured before the supervisor replaced the module.
//
// Machine-readable output goes through the uniform dump hook: run with
// NK_OBS_DUMP=<dir> and every engine writes metrics (.prom + .json), the
// time-series history and the Chrome trace at teardown, and the profiler
// writes its collapsed-stack flamegraph — no per-example plumbing.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                NK_OBS_DUMP=inspect_out ./build/examples/nk_inspect
#include <cstdio>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "core/monitor.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"

using namespace nk;
using apps::side;

int main() {
  // Lossy datacenter path: 0.2% loss makes retransmits and srtt growth
  // visible in the flow table within a few hundred milliseconds.
  auto params = apps::datacenter_params(/*seed=*/7);
  params.wire.loss_rate = 0.002;
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.max_active = 1 << 16;
  params.netkernel.trace.max_spans = 1 << 17;
  apps::testbed bed{params};

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.cc = tcp::cc_algorithm::cubic;
  nsm_cfg.form = core::nsm_form::hypervisor_module;  // ~1 ms replacement boot
  virt::vm_config vm_cfg;
  vm_cfg.name = "tenant-vm";
  nsm_cfg.name = "nsm-tx";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "sink-vm";
  nsm_cfg.name = "nsm-rx";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  core::core_engine& ce = bed.netkernel(side::a);
  core::core_engine& rx_ce = bed.netkernel(side::b);

  // The latency objective the operator sells: p99 of the VM-side job-queue
  // dwell under 500 ns, 1% error budget. The lossy, loaded run violates
  // it, so the walkthrough shows a live burn, not a green dashboard.
  obs::timeseries& series = ce.series();
  const std::string p99 =
      series.track_percentile("nqe_attr_fwd_vm_job_dwell_ns", 99.0);
  series.start();
  obs::slo_engine slo{series};
  obs::slo_objective obj;
  obj.name = "vm_dwell_p99";
  obj.metric = p99;
  obj.threshold = 500.0;  // ns
  obj.budget = 0.01;
  slo.add(obj);

  core::monitor_config mcfg;
  mcfg.interval = milliseconds(1);
  mcfg.failure_deadline = milliseconds(20);
  mcfg.flight_recorder_dir = ".";
  core::health_monitor mon{rx_ce, mcfg};
  core::nsm_supervisor sup{rx_ce, mon};
  mon.set_profiler(&bed.profiler());
  mon.attach_slo(slo);
  mon.start();

  apps::bulk_sink sink{*rx.api, 9000, /*validate=*/false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 2;
  scfg.bytes_per_flow = 0;
  scfg.patterned = false;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 9000}, scfg};
  sender.start();

  bed.run_for(milliseconds(400));

  // --- 1. the flow table: ss -i, but provider-wide -------------------------
  std::printf("provider flow table (tx side):\n");
  std::printf("%-4s %-4s %-4s %-4s %-10s %-10s %-10s %-6s %-12s\n", "vm",
              "fd", "nsm", "cid", "state", "srtt_us", "cwnd", "retx",
              "bytes_out");
  for (const auto& row : ce.flow_table()) {
    std::printf("%-4u %-4u %-4u %-4u %-10s %-10.0f %-10llu %-6llu %-12llu\n",
                static_cast<unsigned>(row.vm), row.fd,
                static_cast<unsigned>(row.nsm), row.cid,
                row.info.state,
                static_cast<double>(row.info.srtt_ns) / 1e3,
                static_cast<unsigned long long>(row.info.cwnd_bytes),
                static_cast<unsigned long long>(row.info.retransmits),
                static_cast<unsigned long long>(row.info.bytes_out));
  }

  // --- 1b. the same flows through the tenant's eyes ------------------------
  // The guest-visible stat page (DESIGN.md §16) carries the same telemetry
  // redacted to the owning VM: keyed by the guest fd, no NSM ids, no cIDs,
  // no shard indices. Side-by-side, the redaction is the point.
  (void)tx.glib->nk_stat_refresh();
  bed.run_for(milliseconds(1));
  shm::stat_snapshot snap;
  if (tx.glib->nk_stat_snapshot(snap)) {
    std::printf("\ntenant stat page (in-guest view of the same flows):\n");
    std::printf("%-4s %-6s %-12s %-10s %-10s %-6s %-12s\n", "fd", "proto",
                "state", "srtt_us", "cwnd", "retx", "bytes_out");
    for (std::size_t i = 0; i < snap.vm.sockets && i < snap.rows.size();
         ++i) {
      const auto& r = snap.rows[i];
      std::printf("%-4llu %-6s %-12s %-10.0f %-10llu %-6llu %-12llu\n",
                  static_cast<unsigned long long>(r.fd), r.info.transport,
                  r.info.state, static_cast<double>(r.info.srtt_ns) / 1e3,
                  static_cast<unsigned long long>(r.info.cwnd_bytes),
                  static_cast<unsigned long long>(r.info.retransmits),
                  static_cast<unsigned long long>(r.info.bytes_out));
    }
    std::printf(
        "  (provider table above addresses <vm,nsm,cid>; the page shows the\n"
        "   owning VM's fds only — vm/nsm/cid columns have no tenant "
        "analogue)\n");
  }

  // --- 2. where did the time go? -------------------------------------------
  std::printf("\nstage-pair critical path (tx side):\n%s\n",
              ce.tracer().critical_path_json().c_str());

  // --- 3. where did the cycles go? -----------------------------------------
  const obs::profiler& prof = bed.profiler();
  std::printf("\nprofiler top-10 (attribution %.1f%% of %.1f ms charged):\n",
              prof.attribution_ratio() * 100.0,
              static_cast<double>(prof.charged_ns()) / 1e6);
  std::printf("%-10s %-8s  %s\n", "cpu_ms", "share", "stack");
  for (const auto& n : prof.top(10)) {
    std::printf("%-10.3f %-8.4f  %s\n", static_cast<double>(n.ns) / 1e6,
                static_cast<double>(n.ns) /
                    static_cast<double>(prof.charged_ns()),
                n.stack.c_str());
  }

  // --- 4. the SLO dashboard -------------------------------------------------
  std::printf("\nslo status:\n");
  for (const auto& st : slo.statuses()) {
    std::printf(
        "  %-14s latest=%.0f ns threshold=%.0f ns burn short=%.1fx "
        "long=%.1fx %s (alerts: %llu)\n",
        st.objective.name.c_str(), st.latest, st.objective.threshold,
        st.short_burn, st.long_burn, st.burning ? "BURNING" : "ok",
        static_cast<unsigned long long>(st.alerts_fired));
  }
  const core::alert* burn = nullptr;  // the objective's latest burn
  for (const auto& a : mon.alerts()) {
    if (a.kind == core::alert_kind::slo_burn) burn = &a;
  }
  if (burn != nullptr) {
    std::printf(
        "  alarm-time snapshot captured (%zu bytes: objective, burns,\n"
        "  profiler top-N, flight-recorder ring) -> slo_vm_dwell_p99.json\n",
        burn->snapshot.size());
  }

  // --- 5. kill the server NSM; the monitor snapshots its last moments ------
  const core::nsm_id victim = rx.module->id();
  std::printf("\nkilling nsm %u mid-stream...\n",
              static_cast<unsigned>(victim));
  rx_ce.service_of(victim)->fail();
  auto& failover_hist = rx_ce.metrics().get_histogram("failover_time_ns");
  for (int i = 0; i < 500 && failover_hist.count() == 0; ++i) {
    bed.run_for(milliseconds(1));
  }
  bed.run_for(milliseconds(50));
  const core::alert* crash = nullptr;
  for (const auto& a : mon.alerts()) {
    if (a.kind == core::alert_kind::nsm_failed && a.module == victim) {
      crash = &a;
    }
  }
  if (crash != nullptr) {
    std::printf("flight recorder snapshot captured (%zu bytes), dump: "
                "flight_recorder_nsm%u.json\n",
                crash->snapshot.size(), static_cast<unsigned>(victim));
  } else {
    std::printf("NO flight recorder snapshot captured\n");
    return 1;
  }

  std::printf(
      "\nfull machine-readable picture: rerun with NK_OBS_DUMP=<dir> to get\n"
      "per-engine metrics (.prom/.json), the time-series history, Chrome\n"
      "traces and the profiler flamegraph (.folded) written at teardown.\n");
  return 0;
}
