// Driver shared by the three simulated workloads (bulk_dc, rpc_fanin,
// churn_mice): build the scenario (repeated for the set-up median), start
// the load, warm up, measure a fixed modeled window in equal run_until
// slices, stop the load, drain, and check the pipeline's invariants.
//
// Modeled metrics depend only on (seed, seconds); the simulator's own cost
// is the thread CPU time of the slices. A traced pass additionally records
// spans around every call into the system and reads the layers' public
// counters.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/scenario.hpp"
#include "common.hpp"
#include "spans.hpp"

namespace nkb {

// What a workload's builder gets from the harness.
struct build_ctx {
  span_recorder* spans = nullptr;  // traced pass only
  std::vector<vm_setup_sample>* vm_setup = nullptr;
  // Modeled time from start_load() to the end of the measured window; an
  // open-loop workload pre-generates its schedule over this horizon.
  nk::sim_time load_horizon{};
};

// Adds a NetKernel VM on side `s`: behind a new NSM built from `nsm_cfg`
// when `module` is null, else multiplexed onto `module`. The call is timed
// and RSS is sampled around it.
nk::apps::nk_tenant add_tenant(nk::apps::testbed& bed, nk::apps::side s,
                               const nk::virt::vm_config& vm_cfg,
                               const nk::core::nsm_config& nsm_cfg,
                               nk::core::nsm* module, const build_ctx& ctx);

// The testbed every simulated workload starts from: the 40 GbE datacenter
// testbed, with the engines' nqe tracer on in a traced pass. Its
// construction is a span of its own.
[[nodiscard]] std::unique_ptr<nk::apps::testbed> make_testbed(
    const run_params& p, const build_ctx& ctx);

class sim_workload {
 public:
  virtual ~sim_workload() = default;

  [[nodiscard]] virtual nk::apps::testbed& bed() = 0;
  // Every connection the workload needs is established.
  [[nodiscard]] virtual bool ready() const = 0;
  virtual void start_load() = 0;
  // Latency samples are taken only while the window is open.
  virtual void set_window(bool open) = 0;
  virtual void stop_load() = 0;
  [[nodiscard]] virtual bool drained() const = 0;

  // Cumulative and modeled: ops completed, payload bytes delivered,
  // connections opened.
  [[nodiscard]] virtual double ops_completed() const = 0;
  [[nodiscard]] virtual std::uint64_t bytes_delivered() const = 0;
  [[nodiscard]] virtual std::uint64_t flows_opened() const = 0;
  // Per-op latency samples of the window, microseconds (modeled).
  [[nodiscard]] virtual std::vector<double>& latencies_us() = 0;

  // Whole-run failure accounting (see README "fail accounting").
  [[nodiscard]] virtual std::uint64_t attempted() const = 0;
  [[nodiscard]] virtual std::uint64_t failed() const = 0;

  // Workload-specific output checks (payload bytes, sent == received).
  virtual void check(check_log& log) const = 0;
  // The generated workload parameters, as a JSON object (manifest).
  [[nodiscard]] virtual std::string params_json() const = 0;
};

struct sim_spec {
  const char* name;
  std::unique_ptr<sim_workload> (*make)(const run_params&, const build_ctx&);
  nk::sim_time warmup;
  // Modeled milliseconds measured per requested wall second. Calibrated so
  // one pass takes about --seconds of wall time on a 4-core x86-64 host,
  // and fixed, so a seed and run length always give the same window.
  double model_ms_per_wall_s;
  const char* op;  // what one op is
};

struct pass_result {
  check_log checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  metric_set modeled;  // deterministic for a given (seed, seconds)
  metric_set wall;     // host-dependent
  metric_set layers;   // per-layer metrics (complete in a traced pass)
  double wall_per_model_s = 0.0;
  double cpu_per_model_s = 0.0;  // simulator thread CPU time
  std::string phases;  // wall time of each phase, for the report
  std::string params_json;
};

// Runs one pass of `spec`. The scenario is built `setup_reps` times for
// the set-up median and the last one is measured. With `spans` non-null
// the pass is traced: spans are recorded and the engines trace every nqe.
[[nodiscard]] pass_result run_sim_pass(const sim_spec& spec,
                                       const run_params& p, int setup_reps,
                                       span_recorder* spans);

[[nodiscard]] const sim_spec* find_sim_spec(const std::string& name);

std::unique_ptr<sim_workload> make_bulk_dc(const run_params& p,
                                           const build_ctx& ctx);
std::unique_ptr<sim_workload> make_rpc_fanin(const run_params& p,
                                             const build_ctx& ctx);
std::unique_ptr<sim_workload> make_churn_mice(const run_params& p,
                                              const build_ctx& ctx);

}  // namespace nkb
