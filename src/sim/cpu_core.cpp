#include "sim/cpu_core.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace nk::sim {

namespace {
cpu_charge_listener*& listener_slot() {
  static cpu_charge_listener* listener = nullptr;
  return listener;
}
}  // namespace

cpu_charge_listener* set_cpu_charge_listener(cpu_charge_listener* l) {
  cpu_charge_listener* prev = listener_slot();
  listener_slot() = l;
  return prev;
}

cpu_charge_listener* current_cpu_charge_listener() { return listener_slot(); }

cpu_core::cpu_core(simulator& s, std::string name)
    : sim_{s}, name_{std::move(name)} {}

void cpu_core::execute(sim_time cost, std::function<void()> done) {
  charge(cost);
  sim_.schedule_at(busy_until_, std::move(done));
}

void cpu_core::charge(sim_time cost) {
  assert(cost >= sim_time::zero());
  if (cpu_charge_listener* l = listener_slot(); l != nullptr) {
    l->on_charge(*this, cost);
  }
  const sim_time start = std::max(sim_.now(), busy_until_);
  busy_until_ = start + cost;
  busy_accum_ += cost;
}

double cpu_core::utilization() const {
  const sim_time now = sim_.now();
  if (now <= sim_time::zero()) return 0.0;
  // busy_accum_ counts committed work, part of which may lie in the future;
  // clamp to the elapsed window.
  const sim_time future = std::max(busy_until_ - now, sim_time::zero());
  const sim_time spent = busy_accum_ - future;
  return std::clamp(static_cast<double>(spent.count()) /
                        static_cast<double>(now.count()),
                    0.0, 1.0);
}

sim_time cpu_core::backlog() const {
  return std::max(busy_until_ - sim_.now(), sim_time::zero());
}

}  // namespace nk::sim
