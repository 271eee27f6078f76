// Ablation A12: the always-on performance-observability layer (PR 6).
//
// Four claims, each checked on the machinery the repo actually ships:
//
//   1. Attribution — on a Figure-4-style bulk-TCP run the continuous
//      profiler (installed by apps::testbed as the CPU charge listener)
//      attributes >= 95% of all modeled busy time to NK_PROF scopes; the
//      rest lands in the explicit "(unattributed)" bucket, never silently.
//   2. Overhead — a wall-clock shm-style ring loop with one NK_PROF scope
//      per 4096-op batch costs <= 2% extra with a live profiler (the one
//      every simulation installs, bound to a simulator) vs none, beyond
//      the noise floor two unprofiled runs measure.
//   3. SLO alarm — an injected latency objective (1 ns threshold on the
//      traced p99 of the VM-side job-queue dwell: impossible to meet)
//      burns through its budget, fires a multi-window burn-rate alert
//      through the health monitor, and the alarm-time snapshot embeds the
//      profiler top-N plus the flight-recorder ring.
//   4. Fidelity — after snap_now() the time-series' last sample of a
//      counter equals the registry value bit-for-bit.
//
// Exit status is the assertion: 0 only when every invariant held.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "core/monitor.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "shm/nqe.hpp"
#include "shm/spsc_ring.hpp"

// Sanitized builds measure the instrumentation, not the shipped cost: the
// profiler's enter/leave touches std::string state that ASan checks far
// more heavily than the ring loop, so the relative-overhead bound is
// meaningful only on plain builds.
#if defined(__SANITIZE_ADDRESS__)
#define NK_ABLATE_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NK_ABLATE_SANITIZED 1
#endif
#endif
#ifndef NK_ABLATE_SANITIZED
#define NK_ABLATE_SANITIZED 0
#endif

namespace {

using namespace nk;
using apps::side;

struct outcome {
  // 1. attribution
  double attribution = 0.0;
  std::uint64_t charged_ns = 0;
  std::size_t profile_nodes = 0;
  // 2. overhead: median profiled-vs-unprofiled gap, and its standard error
  // from the gaps between two unprofiled runs (the noise floor)
  double overhead_pct = 0.0;
  double noise_pct = 0.0;
  // 3. SLO burn (fed by the tracer's nqe_attr histograms)
  std::uint64_t slo_alerts = 0;
  bool monitor_saw_burn = false;
  bool snapshot_has_top = false;
  bool snapshot_has_recorder = false;
  // 4. time-series fidelity
  double ts_last = 0.0;
  double reg_value = -1.0;
  bool ts_matches_registry = false;
};

// Checks 1, 3 and 4 share one Figure-4-shaped run: a NetKernel VM pair
// moving bulk TCP across the 40 GbE testbed with tracing on (the
// nqe_attr histograms feed the SLO's p99 series).
void run_sim_checks(bool smoke, std::uint64_t seed, outcome& out) {
  auto params = apps::datacenter_params(seed);
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.max_active = 1 << 16;
  params.netkernel.trace.max_spans = 1 << 17;
  apps::testbed bed{params};

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.cc = tcp::cc_algorithm::cubic;

  virt::vm_config vm_cfg;
  vm_cfg.name = "sender-vm";
  nsm_cfg.name = "nsm-tx";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "sink-vm";
  nsm_cfg.name = "nsm-rx";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  core::core_engine& tx_ce = bed.netkernel(side::a);

  // --- 3. the injected SLO: 1 ns on a real latency series ----------------
  // The VM-side job-queue dwell is never 1 ns, so every sampled row is a
  // violation and both burn windows saturate immediately.
  obs::timeseries& series = tx_ce.series();
  const std::string p99 =
      series.track_percentile("nqe_attr_fwd_vm_job_dwell_ns", 99.0);
  series.start();

  obs::slo_engine slo{series};
  obs::slo_objective o;
  o.name = "vm_dwell_p99";
  o.metric = p99;
  o.threshold = 1.0;  // 1 ns: unmeetable by construction
  o.violate_above = true;
  o.budget = 0.01;
  o.short_window = milliseconds(5);
  o.long_window = milliseconds(25);
  o.burn_threshold = 10.0;
  slo.add(o);

  core::monitor_config mcfg;
  mcfg.interval = milliseconds(10);
  core::health_monitor mon{tx_ce, mcfg};
  mon.set_profiler(&bed.profiler());
  mon.attach_slo(slo);

  apps::bulk_sink sink{*rx.api, 7200, /*validate=*/false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 1;
  scfg.bytes_per_flow = 0;
  scfg.patterned = false;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 7200},
                           scfg};
  sender.start();
  bed.run_for(milliseconds(smoke ? 150 : 400));

  // --- 1. attribution over the whole testbed -----------------------------
  const obs::profiler& prof = bed.profiler();
  out.attribution = prof.attribution_ratio();
  out.charged_ns = prof.charged_ns();
  out.profile_nodes = prof.top(1 << 20).size();

  // --- 3. burn alert + alarm-time snapshot -------------------------------
  out.slo_alerts = slo.alerts_total();
  for (const auto& a : mon.alerts()) {
    if (a.kind != core::alert_kind::slo_burn) continue;
    out.monitor_saw_burn = true;
    out.snapshot_has_top =
        a.snapshot.find("\"profiler_top\"") != std::string::npos &&
        a.snapshot.find("\"top\"") != std::string::npos &&
        a.snapshot.find("\"stack\"") != std::string::npos;
    out.snapshot_has_recorder =
        a.snapshot.find("\"flight_recorder\"") != std::string::npos;
  }

  // --- 4. last sample == registry value, exactly -------------------------
  series.snap_now();
  out.ts_last = series.latest("engine_nqes_forwarded");
  out.reg_value =
      tx_ce.metrics().value_of("engine_nqes_forwarded").value_or(-1.0);
  out.ts_matches_registry = out.reg_value > 0.0 && out.ts_last == out.reg_value;
}

// Check 2: the shm_throughput-shaped hot loop — ring push/pop with one
// NK_PROF scope per `batch` operations, the granularity every instrumented
// pump in the tree uses. Returns elapsed ns for `iters` operations.
constexpr std::size_t overhead_batch = 4096;

std::uint64_t timed_loop(std::size_t iters) {
  shm::spsc_ring<shm::nqe> vm_ring{4096};
  shm::spsc_ring<shm::nqe> nsm_ring{4096};
  shm::nqe e;
  e.op = shm::nqe_op::req_send;
  e.handle = 7;

  const auto start = std::chrono::steady_clock::now();
  std::size_t done = 0;
  while (done < iters) {
    NK_PROF("ablate", "batch");
    for (std::size_t i = 0; i < overhead_batch; ++i) {
      (void)vm_ring.try_push(e);
      shm::nqe moved;
      (void)vm_ring.try_pop(moved);
      (void)nsm_ring.try_push(moved);
      shm::nqe sink;
      (void)nsm_ring.try_pop(sink);
    }
    done += overhead_batch;
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void run_overhead_check(bool smoke, outcome& out) {
  const std::size_t iters = (smoke ? 1u : 4u) * 1'000'000u;
  (void)timed_loop(iters / 4);  // warm caches and the branch predictor

  // Interleaved A/B/A repeats: each profiled run sits between two
  // unprofiled ones, which cancels drift slower than one repeat, and the
  // overhead is the median of the per-repeat gaps, so a burst of host load
  // that lands in a few repeats does not move it.
  constexpr int reps = 21;
  std::vector<double> overhead;
  std::vector<double> same;  // gap between the two unprofiled runs
  for (int rep = 0; rep < reps; ++rep) {
    const auto off_before = static_cast<double>(timed_loop(iters));
    double on;
    {
      sim::simulator sim{1};
      obs::profiler prof{sim};  // installs as current(), as testbeds do
      on = static_cast<double>(timed_loop(iters));
    }
    const auto off_after = static_cast<double>(timed_loop(iters));
    const double off = (off_before + off_after) / 2;
    overhead.push_back(100.0 * (on - off) / off);
    same.push_back(100.0 * (off_after - off_before) / off);
  }
  out.overhead_pct = median(overhead);
  // The noise floor is the standard error of that median, measured on
  // this host during this run: the A/A gaps' robust spread (1.4826 × their
  // median absolute deviation), scaled from a gap between two runs to a
  // run against the mean of two (× sqrt(3/4)) and to a median of `reps`
  // gaps (× 1.2533 / sqrt(reps)).
  const double centre = median(same);
  std::vector<double> deviation;
  for (const double g : same) deviation.push_back(std::abs(g - centre));
  out.noise_pct = 1.4826 * median(deviation) * std::sqrt(0.75) * 1.2533 /
                  std::sqrt(static_cast<double>(reps));
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf(
      "Ablation A12: always-on observability\n"
      "(>=95%% of modeled busy time attributed to NK_PROF scopes, <=2%%\n"
      " wall-clock overhead above the noise floor, an unmeetable latency\n"
      " SLO must fire a burn alert carrying the profiler top-N, and the\n"
      " time-series must end exactly at the registry value)\n\n");

  outcome o;
  run_sim_checks(smoke, smoke ? 42 : 4242, o);
  run_overhead_check(smoke, o);

  const bool attribution_ok = o.attribution >= 0.95 && o.charged_ns > 0;
  // The budget is 2% plus two noise floors: a gap the host's own noise
  // explains is not the profiler's.
  const double overhead_budget = (NK_ABLATE_SANITIZED ? 10.0 : 2.0) +
                                 2 * o.noise_pct;
  const bool overhead_ok = o.overhead_pct <= overhead_budget;
  const bool slo_ok = o.slo_alerts >= 1 && o.monitor_saw_burn &&
                      o.snapshot_has_recorder && o.snapshot_has_top;

  std::printf("attribution             %.4f (%llu ns charged, %zu nodes)\n",
              o.attribution, static_cast<unsigned long long>(o.charged_ns),
              o.profile_nodes);
  std::printf("profiler overhead       %.2f%% (noise floor %.2f%%, budget "
              "%.2f%%)\n",
              o.overhead_pct, o.noise_pct, overhead_budget);
  std::printf("slo burn alerts         %llu (monitor saw burn: %s)\n",
              static_cast<unsigned long long>(o.slo_alerts),
              o.monitor_saw_burn ? "yes" : "NO");
  std::printf("snapshot has top-N      %s\n",
              o.snapshot_has_top ? "yes" : "NO");
  std::printf("snapshot has recorder   %s\n",
              o.snapshot_has_recorder ? "yes" : "NO");
  std::printf("timeseries == registry  %s (%.0f vs %.0f)\n",
              o.ts_matches_registry ? "yes" : "NO", o.ts_last, o.reg_value);

  std::ofstream out{"ablate_profiler.json"};
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"attribution\": %.4f, \"charged_ns\": %llu, "
      "\"overhead_pct\": %.2f, \"noise_pct\": %.2f, \"slo_alerts\": %llu, "
      "\"snapshot_has_top\": %s, "
      "\"snapshot_has_recorder\": %s, \"ts_matches_registry\": %s, "
      "\"ts_last\": %.0f, \"registry\": %.0f}\n",
      o.attribution, static_cast<unsigned long long>(o.charged_ns),
      o.overhead_pct, o.noise_pct, static_cast<unsigned long long>(o.slo_alerts),
      o.snapshot_has_top ? "true" : "false",
      o.snapshot_has_recorder ? "true" : "false",
      o.ts_matches_registry ? "true" : "false", o.ts_last, o.reg_value);
  out << buf;
  std::printf("\nsummary: ablate_profiler.json\n");

  if (!(attribution_ok && overhead_ok && slo_ok && o.ts_matches_registry)) {
    std::printf("FAIL: an observability invariant was violated\n");
    return 1;
  }
  return 0;
}
