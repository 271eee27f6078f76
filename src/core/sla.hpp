// SLA management (paper §2.1): because the provider now controls the
// network stack, it can define and enforce per-tenant networking SLAs —
// rate caps/guarantees, connection quotas, NSM cycle and chunk quotas — at
// the NSM boundary, and meter usage for billing (core/accounting.hpp). The
// per-VM sla_spec is the whole tenant policy: sla_manager owns the limits,
// their state and the meters; ServiceLib only asks it questions.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/token_bucket.hpp"
#include "common/units.hpp"
#include "core/nsm.hpp"
#include "virt/machine.hpp"

namespace nk::core {

struct sla_spec {
  data_rate rate_cap{};        // zero = uncapped
  data_rate rate_guarantee{};  // provisioning target, used for reporting
  std::uint64_t burst_bytes = 256 * 1024;
  std::uint64_t max_connections = 0;  // 0 = unlimited
  // NSM-core time (op dispatch + payload memcpy) per quota_period; zero =
  // unlimited. Exhausting it parks the VM's jobs and reads until the period
  // rolls.
  sim_time cycle_budget{};
  // Huge-page chunks the VM may hold (0 = unlimited); reads stall at it.
  std::uint64_t chunk_quota = 0;
};

inline constexpr sim_time quota_period = milliseconds(1);

struct tenant_usage {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t connections = 0;      // currently open
  std::uint64_t connections_total = 0;
  std::uint64_t throttle_events = 0;
  std::uint64_t cycle_throttles = 0;  // periods in which the budget ran out
};

// Rising-edge record of a quota trip (monitor alert source).
struct quota_event {
  virt::vm_id vm = 0;
  nsm_id module = 0;  // the NSM serving the VM when it tripped
  sim_time at{};
  bool cycles = true;  // false: chunk quota
  std::uint64_t observed = 0;
  std::uint64_t limit = 0;
};

class sla_manager {
 public:
  // One VM's spec, enforcement state and meters. Entries are never erased
  // (node-stable), so ServiceLib keeps a pointer instead of a per-op lookup.
  struct tenant {
    virt::vm_id vm = 0;
    sla_spec spec{};
    token_bucket bucket{data_rate::gbps(1000), 256 * 1024};
    tenant_usage usage{};
    // Cycle window, opened by the first charge after the last one expired.
    sim_time period_start{};
    sim_time cycles_used{};
    bool over_budget = false;  // cycle budget exhausted this period
    bool chunk_over = false;   // rising-edge latch for the chunk quota
  };

  // Replaces the VM's whole spec (with a fresh token bucket).
  void set_tenant(virt::vm_id vm, const sla_spec& spec);
  // Live rate change (the bandwidth arbiter): keeps the rest of the spec and
  // the bucket's token level — refilling it every update would admit an
  // extra burst per epoch.
  void set_rate(virt::vm_id vm, data_rate rate_cap, std::uint64_t burst_bytes);
  // The VM's entry, created unlimited on first use.
  [[nodiscard]] tenant& tenant_of(virt::vm_id vm);

  // Send-side admission: true (and debits the bucket) if `bytes` may go now.
  // Admission only — actual volume is metered via record_send (a partially
  // accepted send is re-admitted later and must not double-count).
  bool allow_send(tenant& t, std::uint64_t bytes, sim_time now);
  // Earliest time `bytes` will be admitted.
  [[nodiscard]] sim_time retry_at(const tenant& t, std::uint64_t bytes,
                                  sim_time now) const;
  // Meters bytes the stack actually accepted / delivered.
  void record_send(tenant& t, std::uint64_t n) { t.usage.bytes_sent += n; }
  void record_receive(tenant& t, std::uint64_t n) {
    t.usage.bytes_received += n;
  }

  bool allow_connection(tenant& t);
  void on_connection_closed(tenant& t);

  // Rolls the cycle window if expired, then reports whether the VM is still
  // over its budget (a fresh window is never over).
  bool cycle_budget_exhausted(tenant& t, sim_time now);
  // Charges NSM-core time spent for the VM on `module`. True on the rising
  // edge (logged): the budget is spent until period_end(t).
  bool charge_cycles(tenant& t, sim_time cost, sim_time now, nsm_id module);
  [[nodiscard]] sim_time period_end(const tenant& t) const {
    return t.period_start + quota_period;
  }
  // True when the VM, holding `held` chunks, is at its chunk quota; logs the
  // rising edge.
  bool chunk_quota_hit(tenant& t, std::uint64_t held, sim_time now,
                       nsm_id module);

  // NSM-core nanoseconds the VM consumed in the current period.
  [[nodiscard]] std::uint64_t cycles_used(virt::vm_id vm, sim_time now) const;
  [[nodiscard]] const tenant_usage& usage_of(virt::vm_id vm) {
    return tenant_of(vm).usage;
  }
  // Measured average send rate over [0, now] vs the guarantee.
  [[nodiscard]] bool guarantee_met(virt::vm_id vm, sim_time now) const;
  // Append-only; the monitor reads it with a watermark.
  [[nodiscard]] const std::vector<quota_event>& quota_log() const {
    return quota_log_;
  }

 private:
  std::unordered_map<virt::vm_id, tenant> tenants_;
  std::vector<quota_event> quota_log_;
};

}  // namespace nk::core
