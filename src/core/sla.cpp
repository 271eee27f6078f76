#include "core/sla.hpp"

namespace nk::core {

sla_manager::tenant& sla_manager::tenant_of(virt::vm_id vm) {
  auto [it, inserted] = tenants_.try_emplace(vm);
  if (inserted) it->second.vm = vm;
  return it->second;
}

void sla_manager::set_tenant(virt::vm_id vm, const sla_spec& spec) {
  tenant& t = tenant_of(vm);
  t.spec = spec;
  t.bucket = token_bucket{spec.rate_cap, spec.burst_bytes};  // unused if zero
}

bool sla_manager::allow_send(tenant& t, std::uint64_t bytes, sim_time now) {
  if (t.spec.rate_cap.is_zero() || t.bucket.try_consume(now, bytes)) {
    return true;
  }
  ++t.usage.throttle_events;
  return false;
}

sim_time sla_manager::retry_at(const tenant& t, std::uint64_t bytes,
                               sim_time now) const {
  if (t.spec.rate_cap.is_zero()) return now;
  return t.bucket.next_available(now, bytes);
}

bool sla_manager::allow_connection(tenant& t) {
  if (t.spec.max_connections > 0 &&
      t.usage.connections >= t.spec.max_connections) {
    return false;
  }
  ++t.usage.connections;
  ++t.usage.connections_total;
  return true;
}

void sla_manager::on_connection_closed(tenant& t) {
  if (t.usage.connections > 0) --t.usage.connections;
}

bool sla_manager::cycle_budget_exhausted(tenant& t, sim_time now) {
  if (t.spec.cycle_budget == sim_time::zero()) return false;
  if (now >= period_end(t)) {
    t.period_start = now;
    t.cycles_used = sim_time::zero();
    t.over_budget = false;
  }
  return t.over_budget;
}

bool sla_manager::charge_cycles(tenant& t, sim_time cost, sim_time now,
                                nsm_id module) {
  if (t.spec.cycle_budget == sim_time::zero()) return false;
  (void)cycle_budget_exhausted(t, now);  // roll the window
  t.cycles_used += cost;
  if (t.over_budget || t.cycles_used < t.spec.cycle_budget) return false;
  t.over_budget = true;
  ++t.usage.cycle_throttles;
  quota_log_.push_back(
      quota_event{t.vm, module, now, /*cycles=*/true,
                  static_cast<std::uint64_t>(t.cycles_used.count()),
                  static_cast<std::uint64_t>(t.spec.cycle_budget.count())});
  return true;
}

bool sla_manager::chunk_quota_hit(tenant& t, std::uint64_t held, sim_time now,
                                  nsm_id module) {
  if (t.spec.chunk_quota == 0) return false;
  if (held < t.spec.chunk_quota) {
    t.chunk_over = false;
    return false;
  }
  if (!t.chunk_over) {
    t.chunk_over = true;
    quota_log_.push_back(quota_event{t.vm, module, now, /*cycles=*/false,
                                     held, t.spec.chunk_quota});
  }
  return true;
}

std::uint64_t sla_manager::cycles_used(virt::vm_id vm, sim_time now) const {
  auto it = tenants_.find(vm);
  // A stale window means no charge this period: report zero, not leftovers.
  if (it == tenants_.end() || now >= period_end(it->second)) return 0;
  return static_cast<std::uint64_t>(it->second.cycles_used.count());
}

bool sla_manager::guarantee_met(virt::vm_id vm, sim_time now) const {
  auto it = tenants_.find(vm);
  if (it == tenants_.end() || it->second.spec.rate_guarantee.is_zero()) {
    return true;
  }
  if (now <= sim_time::zero()) return false;
  const data_rate achieved = rate_of(it->second.usage.bytes_sent, now);
  return !(achieved < it->second.spec.rate_guarantee);
}

}  // namespace nk::core
