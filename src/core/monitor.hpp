// Centralized management and control (paper §5): "Since the network stack
// is maintained by the provider, management protocols such as failure
// detection and monitoring can be deployed readily."
//
// health_monitor samples every NSM the CoreEngine operates — core
// utilization, stack packet counters, per-channel queue depth and forward
// progress — raising alerts for overloaded NSMs and stalled channels
// (Pingmesh/Trumpet-style, but provider-side and for free).
#pragma once

#include <cstdint>
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
  // Alarm-time evidence, captured before any handler runs: the SLO burn
  // document (objective, burn rates, profiler top-N, flight-recorder ring)
  // for slo_burn; the flight-recorder snapshot_json() of the NSM that died
  // (nsm_failed) or that served the tenant (vm_quarantined,
  // tenant_quota_exceeded); empty for nsm_overloaded and channel_stalled.
  std::string snapshot;
};

std::ostream& operator<<(std::ostream& os, const alert& a);

struct monitor_config {
  sim_time interval = milliseconds(10);
  // Failure detection (paper §5): an NSM is declared dead when its
  // ServiceLib reports a crash, or when jobs are queued toward it but its
  // drain loop has not beaten for this long (a wedged module never sets a
  // failed flag — the watchdog must catch silence). zero() disables the
  // heartbeat path; crash flags are always honored.
  sim_time failure_deadline = milliseconds(50);
  // Flight-recorder dump directory: when non-empty, an NSM declared dead
  // gets its flight-recorder ring written to
  // <dir>/flight_recorder_nsm<id>.json before the supervisor replaces it.
  // The in-memory snapshot (alert::snapshot) is taken regardless.
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
  // Subscribes a handler; several (nsm_supervisor, tests) may coexist.
  void add_alert_handler(alert_handler handler) {
    handlers_.push_back(std::move(handler));
  }

  [[nodiscard]] const std::vector<alert>& alerts() const { return alerts_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

  // Machine-readable status: per-NSM utilization and packet counters (the
  // registry gauges; their history lives in the timeseries ring) plus the
  // full alert log. Also carries the provider-wide flow table (every
  // connection addressed as <VM, fd> with its nk_flow_info), per-VM /
  // per-NSM flow aggregates, and the tracer's stage-pair critical-path
  // summary — one document answers "which tenant, which flow, which hop".
  [[nodiscard]] std::string report_json() const;

  // SLO integration: subscribe to a burn-rate engine so objective burns
  // flow through the same alert pipeline as overload/stall/failure. Each
  // burn alert carries its alarm-time snapshot, which — when
  // flight_recorder_dir is set — is also written to
  // <dir>/slo_<objective>.json.
  void attach_slo(obs::slo_engine& slo);
  // Profiler whose top-N is embedded in report_json() and in every SLO
  // burn snapshot. Not owned; may be nullptr.
  void set_profiler(const obs::profiler* prof) { profiler_ = prof; }

 private:
  void tick();
  void check_overload(nsm& module);
  void check_channels();
  void check_failures();
  void check_quarantines();
  void check_quotas();
  void on_slo_burn(const obs::slo_status& st);
  void emit(alert a);
  // Alarm-time snapshot dump: writes `doc` to <flight_recorder_dir>/<file>
  // when a directory is set (warning if the write fails) and returns it for
  // the alert's snapshot.
  std::string dump_snapshot(const std::string& file, std::string doc) const;

  core_engine& engine_;
  monitor_config cfg_;
  sim::timer timer_;
  bool running_ = false;
  std::uint64_t ticks_ = 0;

  std::unordered_map<nsm_id, int> hot_streak_;
  struct channel_watch {
    std::uint64_t last_forwarded = 0;
    int stalled_streak = 0;
  };
  std::unordered_map<virt::vm_id, channel_watch> channels_;
  std::unordered_set<nsm_id> flagged_dead_;  // alert once per incarnation
  std::size_t quarantine_seen_ = 0;  // watermark into engine quarantine_log()
  std::size_t quota_seen_ = 0;  // watermark into the sla_manager quota_log()
  std::vector<alert> alerts_;
  std::vector<alert_handler> handlers_;
  const obs::slo_engine* slo_ = nullptr;
  const obs::profiler* profiler_ = nullptr;
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
