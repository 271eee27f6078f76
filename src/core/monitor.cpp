#include "core/monitor.hpp"

#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/log.hpp"

namespace nk::core {

namespace {
// Overload: mean core utilization at or above the threshold for this many
// consecutive ticks raises nsm_overloaded.
constexpr double overload_threshold = 0.9;
constexpr int overload_consecutive = 3;
// Ticks of queued-but-no-progress before a channel is reported stalled.
constexpr int stall_consecutive = 3;
}  // namespace

std::string_view to_string(alert_kind k) {
  switch (k) {
    case alert_kind::nsm_overloaded: return "nsm_overloaded";
    case alert_kind::channel_stalled: return "channel_stalled";
    case alert_kind::nsm_failed: return "nsm_failed";
    case alert_kind::slo_burn: return "slo_burn";
    case alert_kind::vm_quarantined: return "vm_quarantined";
    case alert_kind::tenant_quota_exceeded: return "tenant_quota_exceeded";
  }
  return "unknown";
}

std::ostream& operator<<(std::ostream& os, const alert& a) {
  os << "[" << a.at.count() << "ns] " << to_string(a.kind) << " nsm="
     << a.module;
  if (a.kind == alert_kind::channel_stalled ||
      a.kind == alert_kind::vm_quarantined ||
      a.kind == alert_kind::tenant_quota_exceeded) {
    os << " vm=" << a.vm;
  }
  return os << ": " << a.detail;
}

health_monitor::health_monitor(core_engine& engine, const monitor_config& cfg)
    : engine_{engine}, cfg_{cfg} {}

void health_monitor::start() {
  if (running_) return;
  running_ = true;
  timer_ = engine_.simulator().schedule(cfg_.interval, [this] { tick(); });
}

void health_monitor::stop() {
  running_ = false;
  timer_.cancel();
}

void health_monitor::tick() {
  if (!running_) return;
  ++ticks_;
  for (const auto& module : engine_.nsms()) check_overload(*module);
  check_channels();
  check_failures();
  check_quarantines();
  check_quotas();
  timer_ = engine_.simulator().schedule(cfg_.interval, [this] { tick(); });
}

std::string health_monitor::dump_snapshot(const std::string& file,
                                          std::string doc) const {
  if (!cfg_.flight_recorder_dir.empty()) {
    const std::string path = cfg_.flight_recorder_dir + "/" + file;
    std::ofstream out(path);
    if (out) {
      out << doc;
      log_info("health_monitor: snapshot dumped to ", path);
    } else {
      log_warn("health_monitor: cannot write snapshot ", path);
    }
  }
  return doc;
}

void health_monitor::attach_slo(obs::slo_engine& slo) {
  slo_ = &slo;
  slo.add_alert_handler(
      [this](const obs::slo_status& st) { on_slo_burn(st); });
}

void health_monitor::on_slo_burn(const obs::slo_status& st) {
  const sim_time now = engine_.simulator().now();
  // Mark the burn in the engine-level flight-recorder ring, then capture
  // the alarm document: which objective, how fast it is burning, the
  // profiler's top-N at this instant, and the ring around the mark. The
  // snapshot is taken before emit() runs subscribed handlers, so it shows
  // the system as it was when the alarm tripped, not after a policy such as
  // nsm_supervisor reacted to it.
  engine_.recorder().note(0, 0, "slo_burn: " + st.objective.name, now);
  std::ostringstream snap;
  snap << "{\"objective\":\"" << obs::json_escape(st.objective.name)
       << "\",\"metric\":\"" << obs::json_escape(st.objective.metric)
       << "\",\"at_ns\":" << now.count()
       << ",\"threshold\":" << st.objective.threshold
       << ",\"budget\":" << st.objective.budget
       << ",\"short_burn\":" << st.short_burn
       << ",\"long_burn\":" << st.long_burn << ",\"latest\":";
  if (st.latest != st.latest) {
    snap << "null";
  } else {
    snap << st.latest;
  }
  snap << ",\"profiler_top\":"
       << (profiler_ != nullptr ? profiler_->top_json(10) : "null")
       << ",\"flight_recorder\":" << engine_.recorder().snapshot_json(0, now)
       << '}';
  alert a;
  a.snapshot = dump_snapshot("slo_" + st.objective.name + ".json", snap.str());
  a.kind = alert_kind::slo_burn;
  a.at = now;
  a.module = 0;
  std::ostringstream d;
  d << st.objective.name << " (" << st.objective.metric
    << "): burn short=" << st.short_burn << "x long=" << st.long_burn
    << "x of budget " << st.objective.budget;
  a.detail = d.str();
  emit(std::move(a));
}

void health_monitor::emit(alert a) {
  log_warn("health_monitor: ", a);
  engine_.recorder().note(
      a.module, static_cast<std::uint16_t>(a.vm),
      std::string(to_string(a.kind)) + ": " + a.detail,
      engine_.simulator().now());
  alerts_.push_back(a);
  for (const auto& handler : handlers_) {
    if (handler) handler(a);
  }
}

void health_monitor::check_overload(nsm& module) {
  // The reading comes off the metrics registry (the gauge CoreEngine
  // registered at create_nsm time) so the monitor, the exporters, and any
  // external scraper agree on one set of numbers.
  const double utilization =
      engine_.metrics()
          .value_of("nsm" + std::to_string(module.id()) + "_core_utilization")
          .value_or(0.0);
  int& streak = hot_streak_[module.id()];
  if (utilization >= overload_threshold) {
    if (++streak == overload_consecutive) {
      alert a;
      a.kind = alert_kind::nsm_overloaded;
      a.at = engine_.simulator().now();
      a.module = module.id();
      a.detail = module.name() + " mean core utilization " +
                 std::to_string(utilization);
      emit(std::move(a));
      streak = 0;  // re-alert only after another full streak
    }
  } else {
    streak = 0;
  }
}

void health_monitor::check_channels() {
  for (const virt::vm_id vm : engine_.attached_vms()) {
    channel* ch = engine_.channel_of(vm);
    if (ch == nullptr) continue;
    auto& watch = channels_[vm];
    const std::uint64_t forwarded = ch->nqes_vm_to_nsm() + ch->nqes_nsm_to_vm();
    const bool queued = ch->vm_job_depth() > 0 || ch->nsm_job_depth() > 0;
    if (queued && forwarded == watch.last_forwarded) {
      if (++watch.stalled_streak == stall_consecutive) {
        alert a;
        a.kind = alert_kind::channel_stalled;
        a.at = engine_.simulator().now();
        a.module = ch->nsm;
        a.vm = vm;
        a.detail = "channel of vm " + std::to_string(vm) +
                   " has queued nqes but no forward progress";
        emit(std::move(a));
        watch.stalled_streak = 0;
      }
    } else {
      watch.stalled_streak = 0;
    }
    watch.last_forwarded = forwarded;
  }
}

void health_monitor::check_failures() {
  // Two passes: a handler (nsm_supervisor) reacts to the alert by creating
  // a replacement NSM, which mutates the list being walked here.
  std::vector<alert> dead;
  for (const auto& module : engine_.nsms()) {
    const nsm_id id = module->id();
    if (flagged_dead_.count(id) != 0) continue;
    service_lib* svc = engine_.service_of(id);
    if (svc == nullptr) continue;
    bool crashed = svc->failed();
    bool unresponsive = false;
    if (!crashed && cfg_.failure_deadline > sim_time::zero()) {
      // Silent failure: work is queued toward the module but its drain
      // loop has stopped beating for longer than the deadline.
      bool queued = false;
      for (const virt::vm_id vm : engine_.attached_vms()) {
        channel* ch = engine_.channel_of(vm);
        if (ch != nullptr && ch->nsm == id && ch->nsm_job_depth() > 0) {
          queued = true;
          break;
        }
      }
      unresponsive =
          queued && engine_.simulator().now() - svc->last_heartbeat() >
                        cfg_.failure_deadline;
    }
    if (!crashed && !unresponsive) continue;
    flagged_dead_.insert(id);
    alert a;
    a.kind = alert_kind::nsm_failed;
    a.at = engine_.simulator().now();
    a.module = id;
    a.detail = module->name() +
               (crashed ? " crashed" : " unresponsive: missed heartbeats");
    dead.push_back(std::move(a));
  }
  // Snapshot each victim's flight recorder NOW — the emit below runs the
  // supervisor, which replaces the module and retires its state; the ring's
  // last events are the evidence of what it saw before dying.
  for (auto& a : dead) {
    a.snapshot = dump_snapshot(
        "flight_recorder_nsm" + std::to_string(a.module) + ".json",
        engine_.recorder().snapshot_json(a.module, engine_.simulator().now()));
  }
  for (auto& a : dead) emit(std::move(a));
}

void health_monitor::check_quarantines() {
  // New quarantine decisions since the last tick (watermark over the
  // engine's append-only log). The snapshot is captured before emit() runs
  // subscribed handlers, same as check_failures: the serving NSM's
  // flight-recorder ring holds the throttle/quarantine notes and whatever
  // the module saw of the abuse, as of the decision — not after a policy
  // reacted to it.
  const auto& log = engine_.quarantine_log();
  for (; quarantine_seen_ < log.size(); ++quarantine_seen_) {
    const quarantine_record& rec = log[quarantine_seen_];
    alert a;
    a.snapshot = dump_snapshot(
        "quarantine_vm" + std::to_string(rec.vm) + ".json",
        engine_.recorder().snapshot_json(rec.module, engine_.simulator().now()));
    a.kind = alert_kind::vm_quarantined;
    a.at = rec.at;
    a.module = rec.module;
    a.vm = rec.vm;
    a.detail = "vm " + std::to_string(rec.vm) + " quarantined: " + rec.reason +
               " (" + std::to_string(rec.violations) + " violations)";
    emit(std::move(a));
  }
}

void health_monitor::check_quotas() {
  // New quota trips since the last tick: the engine's sla_manager keeps an
  // append-only quota_log() of rising-edge events (a tenant crossing its
  // cycle budget or chunk quota); a watermark turns the log into alerts
  // exactly once. Quota exhaustion is backpressure, never loss — the alert
  // exists so the provider sees a throttled tenant, with the serving NSM's
  // flight-recorder ring captured at alert time.
  const auto& log = engine_.sla().quota_log();
  for (; quota_seen_ < log.size(); ++quota_seen_) {
    const quota_event& ev = log[quota_seen_];
    alert a;
    a.snapshot = dump_snapshot(
        "quota_vm" + std::to_string(ev.vm) + ".json",
        engine_.recorder().snapshot_json(ev.module, engine_.simulator().now()));
    a.kind = alert_kind::tenant_quota_exceeded;
    a.at = ev.at;
    a.module = ev.module;
    a.vm = ev.vm;
    a.detail = "vm " + std::to_string(ev.vm) +
               (ev.cycles ? " exceeded cycle budget: used "
                          : " exceeded chunk quota: held ") +
               std::to_string(ev.observed) + " of " +
               std::to_string(ev.limit) +
               (ev.cycles ? "ns this period" : " chunks");
    emit(std::move(a));
  }
}

std::string health_monitor::report_json() const {
  std::ostringstream os;
  os << "{\"at_ns\":" << engine_.simulator().now().count()
     << ",\"ticks\":" << ticks_ << ",\"nsms\":[";
  bool first = true;
  for (const auto& module : engine_.nsms()) {
    if (!first) os << ',';
    first = false;
    const std::string p = "nsm" + std::to_string(module->id());
    const auto& reg = engine_.metrics();
    os << "{\"id\":" << module->id() << ",\"name\":\""
       << obs::json_escape(module->name()) << "\",\"utilization\":"
       << reg.value_of(p + "_core_utilization").value_or(0.0)
       << ",\"tx_packets\":"
       << static_cast<std::uint64_t>(
              reg.value_of(p + "_stack_tx_packets").value_or(0.0))
       << ",\"rx_packets\":"
       << static_cast<std::uint64_t>(
              reg.value_of(p + "_stack_rx_packets").value_or(0.0))
       << "}";
  }
  // Provider-wide flow table: ServiceLib per-NSM tables joined through the
  // connection-mapping table, so each connection appears under the address
  // the tenant knows (<VM, fd>) with the stack state only the provider can
  // see (paper §5: introspection for free once the stack is provider-side).
  const auto flows = engine_.flow_table();
  struct agg {
    std::uint64_t flows = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t srtt_sum_ns = 0;
  };
  std::map<std::uint32_t, agg> by_vm;
  std::map<std::uint32_t, agg> by_nsm;
  os << "],\"flows\":[";
  first = true;
  for (const auto& row : flows) {
    if (!first) os << ',';
    first = false;
    os << "{\"vm\":" << row.vm << ",\"fd\":" << row.fd << ",\"nsm\":"
       << row.nsm << ",\"cid\":" << row.cid << ",\"info\":"
       << row.info.to_json() << '}';
    for (agg* a : {&by_vm[row.vm], &by_nsm[row.nsm]}) {
      ++a->flows;
      a->bytes_in += row.info.bytes_in;
      a->bytes_out += row.info.bytes_out;
      a->retransmits += row.info.retransmits;
      a->srtt_sum_ns += row.info.srtt_ns;
    }
  }
  os << "],\"flow_aggregates\":{";
  const auto emit_aggs = [&os](const char* key, const char* id_key,
                               const std::map<std::uint32_t, agg>& aggs) {
    os << '"' << key << "\":[";
    bool f = true;
    for (const auto& [id, a] : aggs) {
      if (!f) os << ',';
      f = false;
      os << "{\"" << id_key << "\":" << id << ",\"flows\":" << a.flows
         << ",\"bytes_in\":" << a.bytes_in << ",\"bytes_out\":" << a.bytes_out
         << ",\"retransmits\":" << a.retransmits << ",\"mean_srtt_ns\":"
         << (a.flows > 0 ? a.srtt_sum_ns / a.flows : 0) << '}';
    }
    os << ']';
  };
  emit_aggs("by_vm", "vm", by_vm);
  os << ',';
  emit_aggs("by_nsm", "nsm", by_nsm);
  // Stage-pair latency attribution: where the pipeline's wall-clock went,
  // per direction, with the dominant hop called out.
  os << "},\"critical_path\":" << engine_.tracer().critical_path_json();
  // PR 6: cycle accounting and objective status ride in the same document,
  // so one scrape answers "where did the CPU go and are we in budget".
  os << ",\"profiler\":"
     << (profiler_ != nullptr ? profiler_->to_json() : "null");
  os << ",\"slo\":" << (slo_ != nullptr ? slo_->to_json() : "[]");
  os << ",\"alerts\":[";
  first = true;
  for (const auto& a : alerts_) {
    if (!first) os << ',';
    first = false;
    os << "{\"kind\":\"" << to_string(a.kind) << "\",\"at_ns\":"
       << a.at.count() << ",\"nsm\":" << a.module << ",\"vm\":" << a.vm
       << ",\"detail\":\"" << obs::json_escape(a.detail) << "\"}";
  }
  os << "]}";
  return os.str();
}

nsm_supervisor::nsm_supervisor(core_engine& engine, health_monitor& monitor)
    : engine_{engine} {
  monitor.add_alert_handler([this](const alert& a) {
    if (a.kind != alert_kind::nsm_failed) return;
    nsm* dead = engine_.nsm_by_id(a.module);
    if (dead == nullptr) return;  // already retired by an earlier failover
    nsm_config cfg = dead->config();
    cfg.name += "-r" + std::to_string(++failovers_);
    last_replacement_ = engine_.replace_nsm(a.module, cfg).id();
  });
}

}  // namespace nk::core
