// A serializing CPU resource.
//
// Per-packet and per-operation processing costs are charged against a
// cpu_core: work items queue FIFO and each occupies the core for its cost
// before its completion runs. A single core therefore caps throughput at
// 1/cost — this is what makes one TCP flow CPU-bound below line rate in
// Figure 4 while two flows on two cores reach line rate.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/simulator.hpp"

namespace nk::sim {

class cpu_core;

// Process-wide observer of CPU charges. In a discrete-event simulation the
// code between two scope markers takes zero virtual time; all modeled CPU
// cost flows through cpu_core::execute() or charge(). An installed
// listener therefore sees every cycle the simulation spends, at the moment
// it is committed.
// The obs profiler implements this; sim itself stays obs-free.
class cpu_charge_listener {
 public:
  virtual ~cpu_charge_listener() = default;
  virtual void on_charge(const cpu_core& core, sim_time cost) = 0;
};

// Installs `l` (may be nullptr) and returns the previously installed
// listener so nested installers can restore it. Simulations are
// single-threaded; no synchronization.
cpu_charge_listener* set_cpu_charge_listener(cpu_charge_listener* l);
[[nodiscard]] cpu_charge_listener* current_cpu_charge_listener();

class cpu_core {
 public:
  cpu_core(simulator& s, std::string name);

  cpu_core(const cpu_core&) = delete;
  cpu_core& operator=(const cpu_core&) = delete;

  // Occupies the core for `cost` (after any already-queued work), then runs
  // `done`. Zero-cost work still respects FIFO order.
  void execute(sim_time cost, std::function<void()> done);

  // Occupies the core for `cost` like execute(), for work with nothing to
  // run at its end: busy time and the charge listener see it, but no event
  // is scheduled.
  void charge(sim_time cost);

  [[nodiscard]] const std::string& name() const { return name_; }

  // Renames the core. The profiler caches a core's name at its first
  // charge, so renaming is only meaningful before the core has executed
  // any work (e.g. a freshly allocated pool core adopted as an engine
  // shard core).
  void set_name(std::string name) { name_ = std::move(name); }

  // Cumulative busy time charged so far.
  [[nodiscard]] sim_time busy_time() const { return busy_accum_; }

  // Fraction of [0, now] the core spent busy.
  [[nodiscard]] double utilization() const;

  // Time already committed beyond now() (queueing backlog depth).
  [[nodiscard]] sim_time backlog() const;

 private:
  simulator& sim_;
  std::string name_;
  sim_time busy_until_ = sim_time::zero();
  sim_time busy_accum_ = sim_time::zero();
};

}  // namespace nk::sim
