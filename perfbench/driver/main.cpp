// nk_perfbench: runs one named workload and prints every metric by name
// with its unit, a run manifest, the correctness checks, and — as the last
// line — one JSON object {"correct","attempted","failed","metrics"}.
//
//   nk_perfbench --workload <bulk_dc|rpc_fanin|churn_mice>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--out <dir>] [--commit <id>] [--dirty <0|1>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// twice, untraced then traced, checks that every modeled metric matches
// bit for bit, and reports the per-layer metrics plus the tracing overhead.
// Exits 1 when a correctness check fails, 2 on a usage error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "shm_probe.hpp"
#include "sim_harness.hpp"
#include "spans.hpp"

#ifndef NKB_COMPILER
#define NKB_COMPILER "unknown"
#endif
#ifndef NKB_BUILD_TYPE
#define NKB_BUILD_TYPE "unknown"
#endif

namespace nkb {
namespace {

constexpr int setup_reps = 5;

struct catalog_entry {
  const char* name;
  const char* unit;
  const char* moves;  // the end-to-end metric and workload it should move
};

// End-to-end metrics: every workload reports each of them (README has the
// per-workload meaning of "op" and of each clock).
constexpr catalog_entry end_to_end[] = {
    {"goodput_gbps", "Gb/s", ""},   {"op_rate_kops", "kop/s", ""},
    {"op_p50_us", "us", ""},        {"cpu_ns_per_kb", "ns/KB", ""},
    {"ok_ratio", "ratio", ""},      {"setup_s", "s", ""},
    {"peak_rss_mb", "MB", ""},
};

constexpr catalog_entry per_layer[] = {
    {"sim.events_per_model_ms", "count", "sim_cpu_per_model_s (info line) on bulk_dc, rpc_fanin"},
    {"sim.wall_ns_per_event", "ns", "sim_cpu_per_model_s (info line) on bulk_dc, rpc_fanin"},
    {"sim.cpu_ns_per_event", "ns", "sim_cpu_per_model_s (info line) on bulk_dc, rpc_fanin"},
    {"sim.self_wall_share", "ratio", "sim_cpu_per_model_s (info line) on every simulated workload"},
    {"guestlib.calls_per_op", "count", "sim_cpu_per_model_s (info line) on rpc_fanin"},
    {"guestlib.call_wall_ns_p50", "ns", "sim_cpu_per_model_s (info line) on rpc_fanin"},
    {"guestlib.call_wall_ns_p99", "ns", "sim_cpu_per_model_s (info line) on rpc_fanin"},
    {"guestlib.would_block_ratio", "ratio", "op_p50_us and ok_ratio on rpc_fanin"},
    {"guestlib.jobs_deferred", "count", "goodput_gbps on bulk_dc"},
    {"guestlib.send_blocked", "count", "goodput_gbps on bulk_dc"},
    {"guestlib.model_ns_per_op", "ns",
     "cpu_ns_per_kb on bulk_dc, op_p50_us on rpc_fanin"},
    {"engine.nqes_per_op", "count",
     "op_rate_kops on rpc_fanin, cpu_ns_per_kb on bulk_dc"},
    {"engine.model_ns_per_nqe", "ns",
     "op_rate_kops on rpc_fanin, cpu_ns_per_kb on bulk_dc"},
    {"engine.util", "ratio", "op_p50_us and op p99 (report line) on rpc_fanin"},
    {"engine.backlog_ns", "ns", "op_p50_us and op p99 (report line) on rpc_fanin"},
    {"engine.mappings_per_flow", "count", "op_p50_us on churn_mice"},
    {"engine.deferred", "count", "ok_ratio on every simulated workload"},
    {"engine.dropped", "count", "ok_ratio on every simulated workload"},
    {"engine.rejected", "count", "ok_ratio on every simulated workload"},
    {"servicelib.util", "ratio", "op_rate_kops and op_p50_us on rpc_fanin"},
    {"servicelib.model_ns_per_op", "ns", "op_rate_kops and op_p50_us on rpc_fanin"},
    {"servicelib.queue_stalls", "count", "goodput_gbps on bulk_dc"},
    {"servicelib.chunk_stalls", "count", "goodput_gbps on bulk_dc"},
    {"tcp.model_ns_per_kb", "ns/KB", "cpu_ns_per_kb on bulk_dc"},
    {"tcp.retransmits_per_flow", "count", "op p99 (report line) on churn_mice"},
    {"tcp.srtt_p50_us", "us", "op_p50_us on rpc_fanin"},
    {"link.util", "ratio", "goodput_gbps on bulk_dc"},
    {"link.queue_drops", "count", "op p99 (report line) on churn_mice"},
    {"link.ecn_marked", "count", "op p99 (report line) on churn_mice"},
    {"nqe.hop_vm_job_dwell_p50_ns", "ns", "op_p50_us on rpc_fanin"},
    {"nqe.hop_vm_job_dwell_p99_ns", "ns", "op p99 (report line) on rpc_fanin"},
    {"nqe.hop_engine_copy_fwd_p50_ns", "ns", "op_p50_us on rpc_fanin"},
    {"nqe.hop_engine_copy_fwd_p99_ns", "ns", "op p99 (report line) on rpc_fanin"},
    {"nqe.hop_nsm_job_dwell_p50_ns", "ns", "op_p50_us on rpc_fanin"},
    {"nqe.hop_nsm_job_dwell_p99_ns", "ns", "op p99 (report line) on rpc_fanin"},
    {"nqe.hop_servicelib_dispatch_p50_ns", "ns", "op_p50_us on rpc_fanin"},
    {"nqe.hop_servicelib_dispatch_p99_ns", "ns", "op p99 (report line) on rpc_fanin"},
    {"nqe.hop_stack_accept_p50_ns", "ns", "op_p50_us on rpc_fanin"},
    {"nqe.hop_stack_accept_p99_ns", "ns", "op p99 (report line) on rpc_fanin"},
    {"nqe.hop_nsm_out_dwell_p50_ns", "ns", "op_p50_us on rpc_fanin"},
    {"nqe.hop_nsm_out_dwell_p99_ns", "ns", "op p99 (report line) on rpc_fanin"},
    {"nqe.hop_engine_copy_rev_p50_ns", "ns", "op_p50_us on rpc_fanin"},
    {"nqe.hop_engine_copy_rev_p99_ns", "ns", "op p99 (report line) on rpc_fanin"},
    {"nqe.hop_vm_out_dwell_p50_ns", "ns", "op_p50_us on rpc_fanin"},
    {"nqe.hop_vm_out_dwell_p99_ns", "ns", "op p99 (report line) on rpc_fanin"},
    {"mem.rss_per_vm_mb", "MB", "peak_rss_mb on rpc_fanin"},
    {"setup.per_vm_ms", "ms", "setup_s on rpc_fanin"},
    {"shm.ring_ns_per_nqe", "ns", "sim_cpu_per_model_s (info line) on rpc_fanin"},
    {"shm.nqe_fwd_ns", "ns", "sim_cpu_per_model_s (info line) on rpc_fanin"},
    {"shm.pool_ns_per_op", "ns", "sim_cpu_per_model_s (info line) on rpc_fanin"},
    {"shm.copy_ns_per_kb", "ns/KB", "sim_cpu_per_model_s (info line) on bulk_dc"},
    {"trace.overhead_ratio", "ratio", "none: traced over untraced wall cost, minus 1"},
};

struct args {
  std::string workload;
  run_params run;
  bool trace = false;
  std::string out_dir;
  std::string commit = "unknown";
  bool dirty = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nk_perfbench: %s\nusage: nk_perfbench --workload <bulk_dc|rpc_fanin|"
               "churn_mice> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>] [--commit <id>] [--dirty <0|1>]\n",
               why);
  std::exit(2);
}

args parse(int argc, char** argv) {
  args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.run.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("--seed takes an integer");
      have_seed = true;
    } else if (key == "--seconds") {
      a.run.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.run.seconds > 0.0) ||
          a.run.seconds > 120.0) {
        usage("--seconds takes a number in (0, 120]");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out_dir = val;
    } else if (key == "--commit") {
      a.commit = val;
    } else if (key == "--dirty") {
      a.dirty = val == "1";
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  return a;
}

std::string manifest(const args& a, const std::string& params) {
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
#ifdef NK_NO_TRACING
  const char* tracing_off = "true";
#else
  const char* tracing_off = "false";
#endif
#ifdef NK_NO_PROFILING
  const char* profiling_off = "true";
#else
  const char* profiling_off = "false";
#endif
  return std::string("{\"workload\":\"") + a.workload + "\",\"seed\":" +
         std::to_string(a.run.seed) + ",\"seconds\":" + json_number(a.run.seconds) +
         ",\"trace\":" + (a.trace ? "1" : "0") + ",\"commit\":\"" + a.commit +
         "\",\"dirty\":" + (a.dirty ? "true" : "false") + ",\"host\":\"" + host +
         "\",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"compiler\":\"" + NKB_COMPILER + "\",\"build_type\":\"" + NKB_BUILD_TYPE +
         "\",\"NK_DISABLE_TRACING\":" + tracing_off +
         ",\"NK_DISABLE_PROFILING\":" + profiling_off + ",\"params\":" + params + "}";
}

// Prints the report and the result line; returns the exit code.
int finish(const args& a, const std::string& params, const metric_set& shown,
           const catalog_entry* catalog, std::size_t catalog_size,
           check_log& checks, std::uint64_t attempted, std::uint64_t failed) {
  std::printf("manifest %s\n", manifest(a, params).c_str());
  std::string json = "{";
  for (std::size_t i = 0; i < catalog_size; ++i) {
    const catalog_entry& c = catalog[i];
    const metric* m = shown.find(c.name);
    const double v = m == nullptr ? 0.0 : m->value;
    checks.expect(std::isfinite(v), std::string("metric ") + c.name + " is not finite");
    std::printf("metric %-36s %16s %-6s %s%s%s\n", c.name, json_number(v).c_str(),
                c.unit, m == nullptr ? "(not exercised by this workload)" : m->note.c_str(),
                c.moves[0] != '\0' ? " | moves " : "", c.moves);
    if (i > 0) json += ',';
    json.append("\"").append(c.name).append("\":{\"value\":");
    json.append(std::isfinite(v) ? json_number(v) : "0");
    json.append(",\"unit\":\"").append(c.unit).append("\"}");
  }
  json += "}";
  for (const auto& w : checks.warnings()) std::printf("check WARNING: %s\n", w.c_str());
  for (const auto& f : checks.failures()) std::printf("check FAILED: %s\n", f.c_str());
  if (checks.ok()) std::printf("check ok: every correctness check passed\n");
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted == 0 ? 1 : attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}

void write_spans(const args& a, const span_recorder& spans) {
  if (a.out_dir.empty()) return;
  const std::string path =
      a.out_dir + "/spans_" + a.workload + "_seed" + std::to_string(a.run.seed) + ".json";
  if (spans.write_chrome_json(path)) {
    std::printf("spans %llu recorded, %zu written to %s\n",
                static_cast<unsigned long long>(spans.recorded()), spans.retained(),
                path.c_str());
  }
}

int run_sim(const args& a, const sim_spec& spec) {
  if (!a.trace) {
    pass_result r = run_sim_pass(spec, a.run, setup_reps, nullptr);
    metric_set shown = r.modeled;
    for (const auto& m : r.wall.all()) shown.set(m.name, m.value, m.unit, m.note);
    shown.set("peak_rss_mb", peak_rss_mb(), "MB", "getrusage max RSS");
    std::printf("info sim_cpu_per_model_s %s s/s (simulator thread CPU seconds per modeled "
                "second)\n",
                json_number(r.cpu_per_model_s).c_str());
    std::printf("info wall_per_model_s %s s/s (wall seconds per modeled second)\n",
                json_number(r.wall_per_model_s).c_str());
    std::printf("info phases: %s\n", r.phases.c_str());
    return finish(a, r.params_json, shown, end_to_end, std::size(end_to_end),
                  r.checks, r.attempted, r.failed);
  }

  pass_result plain = run_sim_pass(spec, a.run, 1, nullptr);
  auto spans = std::make_unique<span_recorder>();
  pass_result traced_pass = run_sim_pass(spec, a.run, 1, spans.get());
  write_spans(a, *spans);

  // The spans and the nqe tracer must only observe: every modeled metric
  // of the traced pass equals the untraced one bit for bit.
  check_log& checks = traced_pass.checks;
  for (const auto& m : plain.checks.failures()) checks.expect(false, "untraced pass: " + m);
  for (const auto& m : plain.checks.warnings()) checks.warn_unless(false, "untraced pass: " + m);
  for (const auto& m : plain.modeled.all()) {
    const metric* t = traced_pass.modeled.find(m.name);
    const bool same = t != nullptr && t->value == m.value;
    checks.expect(same, "traced run changed modeled " + m.name + ": " +
                            json_number(m.value) + " vs " +
                            json_number(t == nullptr ? 0.0 : t->value));
    std::printf("consistency %-14s untraced %s traced %s %s\n", m.name.c_str(),
                json_number(m.value).c_str(),
                json_number(t == nullptr ? 0.0 : t->value).c_str(),
                same ? "identical" : "DIFFERENT");
  }
  checks.expect(plain.attempted == traced_pass.attempted &&
                    plain.failed == traced_pass.failed,
                "traced run changed the attempted/failed counts");

  metric_set shown = traced_pass.layers;
  // Simulator wall ratios come from the untraced pass: spans slow it down.
  for (const char* name :
       {"sim.events_per_model_ms", "sim.wall_ns_per_event", "sim.cpu_ns_per_event"}) {
    const metric* m = plain.layers.find(name);
    if (m != nullptr) shown.set(m->name, m->value, m->unit, "untraced pass");
  }
  shown.set("trace.overhead_ratio",
            traced_pass.wall_per_model_s / plain.wall_per_model_s - 1.0, "ratio",
            "wall_per_model_s traced " + json_number(traced_pass.wall_per_model_s) +
                " vs untraced " + json_number(plain.wall_per_model_s));
  const shm_probe_result shm = probe_shm(a.run.seed);
  for (const auto& m : shm.layers.all()) shown.set(m.name, m.value, m.unit, m.note);
  for (const auto& f : shm.checks.failures()) checks.expect(false, "shm probe: " + f);
  return finish(a, traced_pass.params_json, shown, per_layer, std::size(per_layer),
                checks, traced_pass.attempted, traced_pass.failed);
}

}  // namespace
}  // namespace nkb

int main(int argc, char** argv) {
  const nkb::args a = nkb::parse(argc, argv);
  const nkb::sim_spec* spec = nkb::find_sim_spec(a.workload);
  if (spec == nullptr) nkb::usage(("unknown workload " + a.workload).c_str());
  return nkb::run_sim(a, *spec);
}
