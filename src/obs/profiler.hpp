// Continuous profiler: where do the cycles go?
//
// PR 4's tracer answers "what happened to one nqe"; this answers "what did
// every core spend the whole run doing". Code marks regions with
// NK_PROF(component, op); scopes nest into a folded stack
// ("guestlib:pump;netstack:tx;..."). In *simulation mode* the profiler
// installs itself as the sim::cpu_charge_listener, so every modeled cost
// committed through cpu_core::execute() or charge() is attributed to the
// scope stack active at the call site and to the core it ran on — in a DES
// the code between scope markers takes zero virtual time, so listening to
// the charge stream is the only faithful accounting. In *wall-clock mode* (no
// simulator) each scope charges its own steady_clock self time (child time
// subtracted), which is what the real microbenches (shm_throughput,
// nqe_copy) report as cycles/op.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "sim/cpu_core.hpp"
#include "sim/simulator.hpp"

namespace nk::obs {

class profiler : public sim::cpu_charge_listener {
 public:
  // sim != nullptr: simulation mode (charges arrive via the cpu listener,
  // scopes only label). sim == nullptr: wall-clock mode (scopes measure
  // their own exclusive steady_clock time).
  explicit profiler(sim::simulator* sim);
  ~profiler() override;

  profiler(const profiler&) = delete;
  profiler& operator=(const profiler&) = delete;

  // The innermost live profiler, or nullptr. NK_PROF scopes attach here.
  [[nodiscard]] static profiler* current();

  [[nodiscard]] bool wall_mode() const { return sim_ == nullptr; }

  void enter(const char* component, const char* op);
  void leave();

  // sim::cpu_charge_listener
  void on_charge(const sim::cpu_core& core, sim_time cost) override;

  struct node_view {
    std::string stack;  // "core;comp:op;comp:op" (or "wall;..." in wall mode)
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
  };
  // Leaf nodes sorted by charged time, descending.
  [[nodiscard]] std::vector<node_view> top(std::size_t n) const;

  struct core_view {
    std::string core;
    std::uint64_t busy_ns = 0;        // charged through this profiler
    std::uint64_t attributed_ns = 0;  // charged while a scope was open
    std::uint64_t idle_ns = 0;        // window - busy (clamped)
    std::uint64_t backlog_ns = 0;     // committed beyond now() at export
    double utilization = 0.0;
  };
  [[nodiscard]] std::vector<core_view> cores() const;

  // Total charged / attributed since construction, across all cores.
  [[nodiscard]] std::uint64_t charged_ns() const { return charged_ns_; }
  [[nodiscard]] std::uint64_t attributed_ns() const { return attributed_ns_; }
  // attributed / charged; 1.0 when nothing has been charged yet.
  [[nodiscard]] double attribution_ratio() const;

  // Flamegraph-ready collapsed stacks: one "stack value" line per node.
  [[nodiscard]] std::string collapsed() const;
  // {"attribution":..,"charged_ns":..,"top":[...]}
  [[nodiscard]] std::string top_json(std::size_t n = 10) const;
  // top_json plus a per-core busy/idle/backlog breakdown.
  [[nodiscard]] std::string to_json(std::size_t top_n = 10) const;

 private:
  struct node {
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
  };
  struct frame {
    std::size_t parent_len = 0;        // path_ length before this frame
    std::uint64_t child_wall_ns = 0;   // wall mode: time in child scopes
    std::uint64_t enter_wall_ns = 0;   // wall mode: steady_clock at enter
  };
  struct core_stat {
    // Identity only — never dereferenced outside on_charge(), where the
    // core is alive by definition (NSM failover destroys cores mid-run).
    const sim::cpu_core* core = nullptr;
    std::string name;
    std::uint64_t charged_ns = 0;
    std::uint64_t attributed_ns = 0;
    std::uint64_t last_backlog_ns = 0;  // queueing depth at last charge
  };
  // Per-core memo of the last resolved leaf node; valid while path_version_
  // matches, so back-to-back charges from a hot loop skip the map lookup
  // and the key allocation.
  struct charge_cache {
    const sim::cpu_core* core = nullptr;
    std::uint64_t version = 0;
    node* leaf = nullptr;
  };

  node* resolve(std::string_view core_name, const sim::cpu_core* core);
  core_stat& stat_for(const sim::cpu_core& core);
  void charge_wall(std::uint64_t self_ns);
  [[nodiscard]] static std::uint64_t wall_now_ns();

  // Distinct (core, stack) leaf nodes before further charges collapse into
  // a single "(overflow)" bucket (generously above any sane
  // instrumentation), and the scope depth past which frames stop extending
  // the stack key.
  static constexpr std::size_t max_nodes = 1 << 14;
  static constexpr std::size_t max_depth = 32;

  sim::simulator* sim_;
  profiler* prev_current_;
  sim::cpu_charge_listener* prev_listener_ = nullptr;

  std::string path_;  // current folded scope stack, ";comp:op" segments
  std::vector<frame> frames_;
  std::uint64_t path_version_ = 1;
  std::uint64_t depth_overflow_ = 0;  // enters beyond max_depth (label-only)

  // Key: "<core>;<path>" — ordered so collapsed() output is deterministic.
  std::map<std::string, node, std::less<>> nodes_;
  std::vector<charge_cache> cache_;
  std::vector<core_stat> core_stats_;

  std::uint64_t charged_ns_ = 0;
  std::uint64_t attributed_ns_ = 0;
  sim_time sim_start_ = sim_time::zero();
  std::uint64_t wall_start_ns_ = 0;
  mutable std::string key_scratch_;
};

// RAII scope marker. Cheap no-op when no profiler is live.
class prof_scope {
 public:
  prof_scope(const char* component, const char* op)
      : prof_{profiler::current()} {
    if (prof_ != nullptr) prof_->enter(component, op);
  }
  ~prof_scope() {
    if (prof_ != nullptr) prof_->leave();
  }

  prof_scope(const prof_scope&) = delete;
  prof_scope& operator=(const prof_scope&) = delete;

 private:
  profiler* prof_;
};

}  // namespace nk::obs

#define NK_PROF_CONCAT2(a, b) a##b
#define NK_PROF_CONCAT(a, b) NK_PROF_CONCAT2(a, b)
#define NK_PROF(component, op) \
  ::nk::obs::prof_scope NK_PROF_CONCAT(nk_prof_scope_, __LINE__)(component, op)
