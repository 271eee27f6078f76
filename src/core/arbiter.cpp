#include "core/arbiter.hpp"

#include <algorithm>

#include "obs/profiler.hpp"

namespace nk::core {

bandwidth_arbiter::bandwidth_arbiter(core_engine& engine,
                                     const arbiter_config& cfg)
    : engine_{engine}, cfg_{cfg} {}

void bandwidth_arbiter::start() {
  if (running_) return;
  running_ = true;
  timer_ = engine_.simulator().schedule(cfg_.epoch, [this] { tick(); });
}

void bandwidth_arbiter::stop() {
  running_ = false;
  timer_.cancel();
}

void bandwidth_arbiter::tick() {
  NK_PROF("arbiter", "tick");
  if (!running_) return;
  ++epochs_;

  // Who moved bytes this epoch?
  const auto vms = engine_.attached_vms();
  std::vector<virt::vm_id> active_vms;
  for (const virt::vm_id vm : vms) {
    const auto& usage = engine_.sla().usage_of(vm);
    const std::uint64_t moved = usage.bytes_sent - last_bytes_[vm];
    last_bytes_[vm] = usage.bytes_sent;
    if (moved >= cfg_.activity_threshold_bytes) active_vms.push_back(vm);
  }
  active_ = static_cast<int>(active_vms.size());

  // Equal shares of the headroom-adjusted capacity for active tenants;
  // idle tenants keep a probe allowance so they can become active again.
  const data_rate budget = cfg_.link_capacity * cfg_.utilization_target;
  share_ = active_ > 0 ? budget / static_cast<double>(active_) : budget;
  const data_rate probe = budget / 20.0;

  for (const virt::vm_id vm : vms) {
    const bool is_active =
        std::find(active_vms.begin(), active_vms.end(), vm) !=
        active_vms.end();
    const data_rate rate = is_active ? share_ : probe;
    // Burst sized for one epoch at the granted rate. Only the rate changes:
    // the rest of the tenant's spec (quotas, guarantee) stays as set.
    engine_.sla().set_rate(
        vm, rate,
        static_cast<std::uint64_t>(rate.bytes_in(cfg_.epoch)) + 64 * 1024);
  }

  timer_ = engine_.simulator().schedule(cfg_.epoch, [this] { tick(); });
}

}  // namespace nk::core
