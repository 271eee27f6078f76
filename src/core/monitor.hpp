// Centralized management and control (paper §5): "Since the network stack
// is maintained by the provider, management protocols such as failure
// detection and monitoring can be deployed readily."
//
// health_monitor samples every NSM the CoreEngine operates — core
// utilization, stack packet counters, per-channel queue depth and forward
// progress — raising alerts for overloaded NSMs and stalled channels
// (Pingmesh/Trumpet-style, but provider-side and for free).
//
// autoscaler consumes the overload signal and performs §2.1's "dynamically
// scale up the network stack module with more dedicated cores".
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/core_engine.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"

namespace nk::core {

struct nsm_sample {
  sim_time at{};
  double utilization = 0.0;          // mean across the NSM's cores
  std::uint64_t tx_packets = 0;      // cumulative stack counters
  std::uint64_t rx_packets = 0;
};

enum class alert_kind {
  nsm_overloaded,
  channel_stalled,
  nsm_failed,
  slo_burn,
  vm_quarantined,
  tenant_quota_exceeded,
};

[[nodiscard]] std::string_view to_string(alert_kind k);

struct alert {
  alert_kind kind{};
  sim_time at{};
  nsm_id module = 0;
  virt::vm_id vm = 0;  // set for channel_stalled, vm_quarantined and
                       // tenant_quota_exceeded
  std::string detail;
};

std::ostream& operator<<(std::ostream& os, const alert& a);

struct monitor_config {
  sim_time interval = milliseconds(10);
  double overload_threshold = 0.9;   // mean core utilization
  int overload_consecutive = 3;      // ticks above threshold before alerting
  int stall_consecutive = 3;         // ticks of queued-but-no-progress
  std::size_t history = 256;         // retained samples per NSM
  // Failure detection (paper §5): an NSM is declared dead when its
  // ServiceLib reports a crash, or when jobs are queued toward it but its
  // drain loop has not beaten for this long (a wedged module never sets a
  // failed flag — the watchdog must catch silence). zero() disables the
  // heartbeat path; crash flags are always honored.
  sim_time failure_deadline = milliseconds(50);
  // Flight-recorder dump directory: when non-empty, an NSM declared dead
  // gets its flight-recorder ring written to
  // <dir>/flight_recorder_nsm<id>.json before the supervisor replaces it.
  // The in-memory snapshot (crash_snapshots()) is taken regardless.
  std::string flight_recorder_dir;
};

class health_monitor {
 public:
  health_monitor(core_engine& engine, const monitor_config& cfg = {});

  health_monitor(const health_monitor&) = delete;
  health_monitor& operator=(const health_monitor&) = delete;
  ~health_monitor() { stop(); }

  void start();
  void stop();

  using alert_handler = std::function<void(const alert&)>;
  // Replaces every subscribed handler (historical single-consumer API).
  void set_alert_handler(alert_handler handler) {
    handlers_.clear();
    handlers_.push_back(std::move(handler));
  }
  // Additional subscriber; autoscaler and nsm_supervisor coexist this way.
  void add_alert_handler(alert_handler handler) {
    handlers_.push_back(std::move(handler));
  }

  [[nodiscard]] const std::deque<nsm_sample>& history_of(nsm_id id) const;
  [[nodiscard]] const std::vector<alert>& alerts() const { return alerts_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

  // Human-readable one-line status per NSM.
  [[nodiscard]] std::string report() const;

  // Machine-readable status: per-NSM latest sample plus the full alert log,
  // built from the same registry gauges report() reads. Also carries the
  // provider-wide flow table (every connection addressed as <VM, fd> with
  // its nk_flow_info), per-VM / per-NSM flow aggregates, and the tracer's
  // stage-pair critical-path summary — one document answers "which tenant,
  // which flow, which hop".
  [[nodiscard]] std::string report_json() const;

  // SLO integration: subscribe to a burn-rate engine so objective burns
  // flow through the same alert pipeline as overload/stall/failure. Each
  // burn captures an alarm-time snapshot (objective, burn rates, profiler
  // top-N, flight-recorder ring) in slo_snapshots(), and — when
  // flight_recorder_dir is set — writes it to <dir>/slo_<objective>.json.
  void attach_slo(obs::slo_engine& slo);
  // Profiler whose top-N is embedded in report_json() and in every SLO
  // burn snapshot. Not owned; may be nullptr.
  void set_profiler(const obs::profiler* prof) { profiler_ = prof; }
  [[nodiscard]] const std::unordered_map<std::string, std::string>&
  slo_snapshots() const {
    return slo_snapshots_;
  }

  // Flight-recorder snapshots captured by check_failures() at the moment
  // each NSM was declared dead — before the supervisor replaced it. Keyed
  // by the dead NSM's id; value is flight_recorder::snapshot_json().
  [[nodiscard]] const std::unordered_map<nsm_id, std::string>&
  crash_snapshots() const {
    return crash_snapshots_;
  }

  // Flight-recorder snapshots captured by check_quarantines() when the
  // engine quarantined a hostile VM — the ring shows what the module saw of
  // the abuse before the tenant was cut off. Keyed by the quarantined VM's
  // id; value is flight_recorder::snapshot_json() of the serving NSM.
  [[nodiscard]] const std::unordered_map<virt::vm_id, std::string>&
  quarantine_snapshots() const {
    return quarantine_snapshots_;
  }

  // Flight-recorder snapshots captured by check_quotas() when a tenant
  // first tripped its cycle or chunk quota (rising edge per quota_event).
  // Keyed by the throttled VM's id; value is the serving NSM's
  // flight_recorder::snapshot_json() at alert time.
  [[nodiscard]] const std::unordered_map<virt::vm_id, std::string>&
  quota_snapshots() const {
    return quota_snapshots_;
  }

 private:
  void tick();
  void sample_nsm(nsm& module);
  void check_channels();
  void check_failures();
  void check_quarantines();
  void check_quotas();
  void on_slo_burn(const obs::slo_status& st);
  void emit(alert a);

  core_engine& engine_;
  monitor_config cfg_;
  sim::timer timer_;
  bool running_ = false;
  std::uint64_t ticks_ = 0;

  std::unordered_map<nsm_id, std::deque<nsm_sample>> history_;
  std::unordered_map<nsm_id, int> hot_streak_;
  struct channel_watch {
    std::uint64_t last_forwarded = 0;
    int stalled_streak = 0;
  };
  std::unordered_map<virt::vm_id, channel_watch> channels_;
  std::unordered_set<nsm_id> flagged_dead_;  // alert once per incarnation
  std::unordered_map<nsm_id, std::string> crash_snapshots_;
  std::size_t quarantine_seen_ = 0;  // watermark into engine quarantine_log()
  std::unordered_map<virt::vm_id, std::string> quarantine_snapshots_;
  std::size_t quota_seen_ = 0;  // watermark into the sla_manager quota_log()
  std::unordered_map<virt::vm_id, std::string> quota_snapshots_;
  std::vector<alert> alerts_;
  std::vector<alert_handler> handlers_;
  const obs::slo_engine* slo_ = nullptr;
  const obs::profiler* profiler_ = nullptr;
  std::unordered_map<std::string, std::string> slo_snapshots_;
};

// Scale-up policy: when an NSM stays overloaded, grant it another core
// from the host pool (up to `max_cores`).
class autoscaler {
 public:
  autoscaler(core_engine& engine, virt::hypervisor& host,
             health_monitor& monitor, int max_cores = 4);

  [[nodiscard]] int scale_ups() const { return scale_ups_; }

 private:
  core_engine& engine_;
  virt::hypervisor& host_;
  int max_cores_;
  int scale_ups_ = 0;
};

// Failure-recovery policy: when the monitor declares an NSM dead, spawn a
// replacement with the same configuration (fresh name suffix) and let the
// CoreEngine switch the dead module's tenants over to it. This closes the
// loop the paper sketches in §5: provider-side failure detection feeding
// provider-side recovery, invisible to the tenant except for the reset of
// connections whose state died with the module.
class nsm_supervisor {
 public:
  nsm_supervisor(core_engine& engine, health_monitor& monitor);

  [[nodiscard]] int failovers() const { return failovers_; }
  [[nodiscard]] nsm_id last_replacement() const { return last_replacement_; }

 private:
  core_engine& engine_;
  int failovers_ = 0;
  nsm_id last_replacement_ = 0;
};

}  // namespace nk::core
