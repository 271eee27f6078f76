#include "core/core_engine.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "core/guest_lib.hpp"
#include "obs/dump.hpp"
#include "obs/profiler.hpp"

namespace nk::core {

namespace {
constexpr std::size_t drain_batch = 64;
// A shard core with more than this much committed copy work stops popping
// rings: nqes then wait in the *ring* — visible backpressure that bounds the
// chunks in flight per lane — instead of in the core's unbounded execute
// FIFO. Same gate ServiceLib applies in drain_jobs.
constexpr sim_time pump_backlog_bound = microseconds(3);
// Accepted-connection fds are minted per shard from disjoint ranges so the
// accept hot path touches no cross-shard counter. 1M fds per shard leaves
// the whole range above any GuestLib-minted fd.
constexpr std::uint32_t accept_fd_base = 0x80000000;
constexpr std::uint32_t accept_fd_stride = 0x00100000;
}

core_engine::core_engine(virt::hypervisor& host, const core_engine_config& cfg)
    : host_{host},
      sim_{host.simulator()},
      cfg_{cfg},
      recorder_{cfg_.flight},
      tracer_{sim_, metrics_, cfg_.trace},
      series_{sim_, metrics_, cfg_.timeseries} {
  tracer_.set_flight_recorder(&recorder_);

  // Build the shard array: one partition of the mapping table per shard,
  // each with its own core from the host pool (nullptr-tolerant — a shard
  // without a core forwards at zero modeled cost, as before).
  const std::size_t n_shards = cfg_.shards == 0 ? 1 : cfg_.shards;
  shards_.resize(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    shards_[s].index = s;
    shards_[s].core = host.allocate_core();
    // Rename shard cores for profiler attribution (safe: the profiler
    // caches a core's name at its first charge, and a freshly allocated
    // pool core has executed nothing). The single-shard engine keeps the
    // pool name so existing profiles stay stable.
    if (n_shards > 1 && shards_[s].core != nullptr) {
      shards_[s].core->set_name("engine/shard" + std::to_string(s));
    }
  }

  // Default history: the engine-level accounting gauges, so every bench
  // that turns the ring on gets forwarding/overflow/fault trajectories
  // without naming them.
  // Tenant-facing stat pages ride the same cadence as the metric history:
  // every timeseries tick also refreshes each attachment's guest-visible
  // snapshot (DESIGN.md §16).
  series_.add_tick_handler([this](sim_time) { publish_stat_pages(); });
  metrics_.register_gauge_fn("engine_stat_publishes", [this] {
    return static_cast<double>(stat_publishes_);
  });

  series_.track("engine_nqes_forwarded");
  series_.track("engine_nqes_deferred");
  series_.track("engine_nqes_dropped");
  series_.track("engine_stale_nqes");
  series_.track("engine_unroutable_nqes");
  series_.track("engine_core_utilization");
  // Engine-level stats surface through the registry as callback gauges:
  // the exporters read them on demand, the hot path keeps its plain
  // per-shard counters untouched.
  metrics_.register_gauge_fn("engine_nqes_forwarded", [this] {
    return static_cast<double>(stats().nqes_forwarded);
  });
  metrics_.register_gauge_fn("engine_unroutable_nqes", [this] {
    return static_cast<double>(stats().unroutable_nqes);
  });
  metrics_.register_gauge_fn("engine_mappings_installed", [this] {
    return static_cast<double>(stats().mappings_installed);
  });
  metrics_.register_gauge_fn("engine_accept_fds_minted", [this] {
    return static_cast<double>(stats().accept_fds_minted);
  });
  // Pipeline-wide overflow accounting: the engine's own staging lists plus
  // every ServiceLib's and GuestLib's, so one pair of numbers captures the
  // failure-accounting invariant (delivered + deferred + dropped = produced).
  metrics_.register_gauge_fn("engine_nqes_deferred", [this] {
    double d = static_cast<double>(stats().nqes_deferred);
    for (const auto& [id, svc] : services_) {
      d += static_cast<double>(svc->stats().nqes_deferred);
    }
    for (const auto& svc : retired_services_) {
      d += static_cast<double>(svc->stats().nqes_deferred);
    }
    for (const auto& [vm, att] : attachments_) {
      if (att.glib) d += static_cast<double>(att.glib->stats().jobs_deferred);
    }
    for (const auto& att : retired_attachments_) {
      if (att.glib) d += static_cast<double>(att.glib->stats().jobs_deferred);
    }
    return d;
  });
  metrics_.register_gauge_fn("engine_nqes_dropped", [this] {
    double d = static_cast<double>(stats().nqes_dropped);
    for (const auto& [id, svc] : services_) {
      d += static_cast<double>(svc->stats().nqes_dropped);
    }
    for (const auto& svc : retired_services_) {
      d += static_cast<double>(svc->stats().nqes_dropped);
    }
    return d;
  });
  // Fault-domain accounting: nqes discarded because they were stamped by a
  // retired NSM incarnation (engine side plus every ServiceLib, retired
  // ones included — the invariant must survive replacement).
  metrics_.register_gauge_fn("engine_stale_nqes", [this] {
    double d = static_cast<double>(stats().stale_nqes);
    for (const auto& [id, svc] : services_) {
      d += static_cast<double>(svc->stats().stale_nqes);
    }
    for (const auto& svc : retired_services_) {
      d += static_cast<double>(svc->stats().stale_nqes);
    }
    return d;
  });
  // Admission-firewall accounting (DESIGN.md §14): total rejections, the
  // per-reason split, the untraced-discard half of the drop invariant, and
  // the engine-side pool-key isolation check.
  metrics_.register_gauge_fn("engine_nqes_rejected", [this] {
    return static_cast<double>(stats().rejected_nqes);
  });
  static constexpr std::array<const char*, 4> reject_names{
      "badop", "badfd", "badchunk", "badepoch"};
  for (std::size_t r = 0; r < reject_names.size(); ++r) {
    metrics_.register_gauge_fn(
        std::string("engine_nqes_rejected_") + reject_names[r], [this, r] {
          std::uint64_t n = 0;
          for (const auto& sh : shards_) n += sh.rejected_reason[r];
          return static_cast<double>(n);
        });
  }
  metrics_.register_gauge_fn("engine_discards_untraced", [this] {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh.discards_untraced;
    return static_cast<double>(n);
  });
  metrics_.register_gauge_fn("engine_chunk_key_mismatch", [this] {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh.chunk_key_mismatch;
    for (const auto& [id, svc] : services_) {
      n += svc->stats().chunk_key_mismatch;
    }
    for (const auto& svc : retired_services_) {
      n += svc->stats().chunk_key_mismatch;
    }
    return static_cast<double>(n);
  });
  // Defended frees across every attached (and retired) VM's pool: forged
  // double-free / free-of-unowned descriptors the pool refused to apply.
  metrics_.register_gauge_fn("engine_pool_bad_frees", [this] {
    std::uint64_t n = 0;
    for (const auto& [vm, att] : attachments_) {
      if (att.ch) n += att.ch->pool.bad_frees();
    }
    for (const auto& att : retired_attachments_) {
      if (att.ch) n += att.ch->pool.bad_frees();
    }
    return static_cast<double>(n);
  });
  // Huge-page memory the kernel holds for every pool, live and retired. A
  // detach returns its pool's free chunks, so this follows the live
  // attachments' working sets, not how many attachments ever existed.
  metrics_.register_gauge_fn("engine_pool_resident_bytes", [this] {
    std::size_t n = 0;
    for (const auto& [vm, att] : attachments_) {
      if (att.ch) n += att.ch->pool.resident_bytes();
    }
    for (const auto& att : retired_attachments_) {
      if (att.ch) n += att.ch->pool.resident_bytes();
    }
    return static_cast<double>(n);
  });
  metrics_.register_gauge_fn("engine_ops_timed_out", [this] {
    double d = 0.0;
    for (const auto& [vm, att] : attachments_) {
      if (att.glib) d += static_cast<double>(att.glib->stats().ops_timed_out);
    }
    for (const auto& att : retired_attachments_) {
      if (att.glib) d += static_cast<double>(att.glib->stats().ops_timed_out);
    }
    return d;
  });
  metrics_.register_gauge_fn("engine_core_utilization", [this] {
    double util = 0.0;
    int cores = 0;
    for (const auto& sh : shards_) {
      if (sh.core != nullptr) {
        util += sh.core->utilization();
        ++cores;
      }
    }
    return cores > 0 ? util / cores : 0.0;
  });
  // Per-shard observability only materializes for a sharded engine; the
  // default single-shard engine keeps its metric namespace unchanged.
  if (shards_.size() > 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::string p = "engine_shard" + std::to_string(s);
      metrics_.register_gauge_fn(p + "_nqes_forwarded", [this, s] {
        return static_cast<double>(shards_[s].stats.nqes_forwarded);
      });
      metrics_.register_gauge_fn(p + "_unroutable_nqes", [this, s] {
        return static_cast<double>(shards_[s].stats.unroutable_nqes);
      });
      metrics_.register_gauge_fn(p + "_nqes_deferred", [this, s] {
        return static_cast<double>(shards_[s].stats.nqes_deferred);
      });
      metrics_.register_gauge_fn(p + "_nqes_dropped", [this, s] {
        return static_cast<double>(shards_[s].stats.nqes_dropped);
      });
      metrics_.register_gauge_fn(p + "_stale_nqes", [this, s] {
        return static_cast<double>(shards_[s].stats.stale_nqes);
      });
      metrics_.register_gauge_fn(p + "_nqes_rejected", [this, s] {
        return static_cast<double>(shards_[s].stats.rejected_nqes);
      });
      metrics_.register_gauge_fn(p + "_traces_dropped", [this, s] {
        return static_cast<double>(shards_[s].traces_dropped);
      });
      metrics_.register_gauge_fn(p + "_discards_untraced", [this, s] {
        return static_cast<double>(shards_[s].discards_untraced);
      });
      if (shards_[s].core != nullptr) {
        metrics_.register_gauge_fn(p + "_core_utilization",
                                   [c = shards_[s].core] {
                                     return c->utilization();
                                   });
      }
      series_.track(p + "_nqes_forwarded");
    }
  }
}

core_engine::~core_engine() {
  // Uniform NK_OBS_DUMP hook: every binary that builds an engine dumps its
  // registry, metric history and Chrome trace at teardown — no bespoke
  // snapshot plumbing per bench. Runs before member destruction, so the
  // callback gauges still see live attachments/services.
  if (obs::dump_enabled()) {
    const std::string tag = obs::dump_tag("engine");
    series_.snap_now();
    obs::dump_write(tag + "_metrics.prom", metrics_.to_prom());
    obs::dump_write(tag + "_metrics.json", metrics_.to_json());
    obs::dump_write(tag + "_timeseries.json", series_.to_json());
    obs::dump_write(tag + "_trace.json", tracer_.to_chrome_json());
  }
}

core_engine_stats core_engine::stats() const {
  core_engine_stats s;
  for (const auto& sh : shards_) {
    s.nqes_forwarded += sh.stats.nqes_forwarded;
    s.accept_fds_minted += sh.stats.accept_fds_minted;
    s.mappings_installed += sh.stats.mappings_installed;
    s.mappings_removed += sh.stats.mappings_removed;
    s.unroutable_nqes += sh.stats.unroutable_nqes;
    s.nqes_deferred += sh.stats.nqes_deferred;
    s.nqes_dropped += sh.stats.nqes_dropped;
    s.stale_nqes += sh.stats.stale_nqes;
    s.rejected_nqes += sh.stats.rejected_nqes;
  }
  return s;
}

const core_engine::flow_key* core_engine::find_by_nsm(nsm_key key) const {
  for (const auto& sh : shards_) {
    auto it = sh.by_nsm.find(key);
    if (it != sh.by_nsm.end()) return &it->second;
  }
  return nullptr;
}

std::optional<std::size_t> core_engine::shard_of(virt::vm_id vm,
                                                 std::uint32_t fd) const {
  for (const auto& sh : shards_) {
    if (sh.by_flow.contains(flow_key{vm, fd})) return sh.index;
  }
  return std::nullopt;
}

std::vector<core_engine::flow_row> core_engine::flow_table() {
  std::vector<flow_row> out;
  for (auto& [id, svc] : services_) {
    for (auto& rec : svc->flow_table()) {
      const flow_key* key = find_by_nsm(nsm_key{id, rec.cid});
      if (key == nullptr) continue;  // mapping not installed yet
      flow_row row;
      row.vm = key->vm;
      row.fd = key->fd;
      row.nsm = id;
      row.cid = rec.cid;
      row.remote = rec.remote;
      row.info = std::move(rec.info);
      row.transport = row.info.transport;
      out.push_back(std::move(row));
    }
  }
  std::sort(out.begin(), out.end(), [](const flow_row& a, const flow_row& b) {
    return a.vm != b.vm ? a.vm < b.vm : a.fd < b.fd;
  });
  return out;
}

// --- tenant-facing stat pages (DESIGN.md §16) --------------------------------

void core_engine::publish_stat_pages() {
  for (auto& [vm, att] : attachments_) {
    (void)vm;
    // A VM attached under an active quarantine gets no fresh telemetry:
    // its frozen terminal page (on the retired channel) stays the last
    // word until parole.
    if (att.abuse != nullptr && att.abuse->level == abuse_level::quarantined) {
      continue;
    }
    publish_stat_page(att);
  }
}

void core_engine::publish_stat_page(attachment& att, bool freeze) {
  NK_PROF("core_engine", "stat_publish");
  if (!att.ch || att.vm == nullptr || att.module == nullptr) return;
  const virt::vm_id vm = att.vm->id();
  shm::stat_snapshot snap;

  // Per-socket rows: this VM's slice of the provider flow table, redacted.
  // Rows are keyed by guest fd and tagged with the transport and the
  // guest-chosen peer — never NSM ids, cIDs, shard indices, or anything
  // about a co-tenant multiplexed onto the same module. Ownership is
  // enforced twice: the ServiceLib record's vm field AND the mapping-table
  // join must both name this VM, or the flow is skipped.
  std::size_t rows = 0;
  if (service_lib* service = service_of(att.module->id())) {
    for (auto& rec : service->flow_table()) {
      if (rec.vm != vm) continue;
      const flow_key* key = find_by_nsm(nsm_key{att.module->id(), rec.cid});
      if (key == nullptr || key->vm != vm) continue;
      ++snap.vm.sockets_total;
      if (rows >= shm::stat_snapshot::max_rows) continue;
      shm::nk_sock_stats& row = snap.rows[rows++];
      row.fd = key->fd;
      shm::set_stat_string(row.transport, sizeof row.transport,
                           rec.info.transport);
      shm::set_stat_string(row.state, sizeof row.state, rec.info.state);
      shm::set_stat_string(row.cc, sizeof row.cc, rec.info.cc);
      row.remote_ip = rec.remote.ip.value;
      row.remote_port = rec.remote.port;
      row.srtt_ns = rec.info.srtt_ns;
      row.rttvar_ns = rec.info.rttvar_ns;
      row.min_rtt_ns = rec.info.min_rtt_ns;
      row.cwnd_bytes = rec.info.cwnd_bytes;
      row.ssthresh_bytes = rec.info.ssthresh_bytes;
      row.bytes_in_flight = rec.info.bytes_in_flight;
      row.retransmits = rec.info.retransmits;
      row.bytes_retransmitted = rec.info.bytes_retransmitted;
      row.delivery_rate_bps =
          static_cast<std::uint64_t>(rec.info.delivery_rate_bps);
      row.bytes_in = rec.info.bytes_in;
      row.bytes_out = rec.info.bytes_out;
      row.sndbuf_bytes = rec.info.sndbuf_bytes;
      row.sndbuf_capacity = rec.info.sndbuf_capacity;
      row.rcvbuf_bytes = rec.info.rcvbuf_bytes;
      row.rcvbuf_capacity = rec.info.rcvbuf_capacity;
    }
    snap.vm.staged_completions = service->staged_depth(vm);
  }
  snap.vm.sockets = rows;

  // Per-VM aggregates: the backpressure/quota view the tenant needs to
  // answer "is the stack throttling me?" without provider help.
  snap.vm.published_ns = static_cast<std::uint64_t>(sim_.now().count());
  snap.vm.publish_seq = att.ch->stats.version() / 2 + 1;
  snap.vm.epoch = att.epoch;
  if (freeze) snap.vm.flags |= shm::stat_frozen;
  snap.vm.job_ring_depth = att.ch->vm_job_depth();
  for (const auto& ln : att.lanes) {
    snap.vm.staged_jobs += ln.stage->to_nsm.size();
    snap.vm.staged_completions += ln.stage->to_vm_depth();
  }
  if (att.glib) {
    const guest_lib_stats& gs = att.glib->stats();
    snap.vm.staged_jobs += att.glib->deferred_jobs();
    snap.vm.send_would_block = gs.send_blocked;
    snap.vm.recv_would_block = gs.recv_blocked;
  }
  snap.vm.pool_chunks_free = att.ch->pool.chunks_free();
  snap.vm.cycle_budget_used = sla_.cycles_used(vm, sim_.now());
  snap.vm.chunk_quota_used = att.ch->pool.chunks_held();

  // The publish is provider-side work: charge one nqe-copy-sized unit per
  // row (plus one for the aggregates) to the engine's control core, so the
  // ≤2% overhead gate in bench/ablate_tenant_stats measures a modeled
  // cost, not a free lunch.
  if (sim::cpu_core* core = shards_[0].core) {
    core->execute(cfg_.costs.nqe_copy * static_cast<int>(rows + 1), [] {});
  }
  att.ch->stats.publish(snap);
  ++stat_publishes_;
}

std::optional<std::pair<nsm_id, std::uint32_t>> core_engine::mapping_of(
    virt::vm_id vm, std::uint32_t fd) const {
  for (const auto& sh : shards_) {
    auto it = sh.by_flow.find(flow_key{vm, fd});
    if (it == sh.by_flow.end()) continue;
    if (!it->second.cid_known) return std::nullopt;
    return std::make_pair(it->second.nsm, it->second.cid);
  }
  return std::nullopt;
}

nsm& core_engine::create_nsm(const nsm_config& cfg) {
  auto module = std::make_unique<nsm>(host_, next_nsm_id_++, cfg);
  nsm& ref = *module;
  auto service = std::make_unique<service_lib>(
      ref, sim_, cfg_.costs, cfg_.notification, &tracer_, cfg_.overflow_limit,
      sla_);
  service->start();
  services_[ref.id()] = std::move(service);
  nsms_.push_back(std::move(module));

  // Per-NSM health gauges; health_monitor and the exporters both read these.
  const std::string p = "nsm" + std::to_string(ref.id());
  metrics_.register_gauge_fn(p + "_core_utilization", [m = &ref] {
    double util = 0.0;
    int cores = 0;
    for (auto* core : m->cores()) {
      if (core != nullptr) {
        util += core->utilization();
        ++cores;
      }
    }
    return cores > 0 ? util / cores : 0.0;
  });
  ref.stack().register_metrics(metrics_, p + "_stack");
  ref.transport().register_metrics(metrics_, p + "_transport");
  log_info("core_engine: created nsm ", ref.id(), " (", ref.name(),
           ", transport=", ref.transport().kind(), ")");
  return ref;
}

nsm* core_engine::nsm_by_id(nsm_id id) {
  for (auto& m : nsms_) {
    if (m->id() == id) return m.get();
  }
  return nullptr;
}

service_lib* core_engine::service_of(nsm_id id) {
  auto it = services_.find(id);
  return it == services_.end() ? nullptr : it->second.get();
}

guest_lib* core_engine::guestlib_of(virt::vm_id vm) {
  auto it = attachments_.find(vm);
  return it == attachments_.end() ? nullptr : it->second.glib.get();
}

channel* core_engine::channel_of(virt::vm_id vm) {
  auto it = attachments_.find(vm);
  return it == attachments_.end() ? nullptr : it->second.ch.get();
}

std::vector<virt::vm_id> core_engine::attached_vms() const {
  std::vector<virt::vm_id> out;
  out.reserve(attachments_.size());
  for (const auto& [vm, att] : attachments_) out.push_back(vm);
  return out;
}

guest_lib& core_engine::attach_vm(virt::machine& vm, nsm& module) {
  attachment att;
  att.vm = &vm;
  att.module = &module;
  att.ch = std::make_unique<channel>(vm.id(), module.id(),
                                     host_.next_region_key(), cfg_.channel,
                                     shards_.size());
  // One lane per engine shard: each shard's pumps drain only its own ring
  // set and re-drain only its own staged lanes.
  att.lanes.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    lane& ln = att.lanes[s];
    ln.stage = std::make_unique<lane_stages>(*att.ch, s);
    ln.next_accept_fd =
        accept_fd_base + static_cast<std::uint32_t>(s) * accept_fd_stride;
    ln.vm_to_nsm = std::make_unique<queue_pump>(
        sim_, cfg_.notification, [this, id = vm.id(), s]() -> std::size_t {
          auto it = attachments_.find(id);
          return it == attachments_.end() ? 0 : drain_vm_jobs(it->second, s);
        });
    ln.nsm_to_vm = std::make_unique<queue_pump>(
        sim_, cfg_.notification, [this, id = vm.id(), s]() -> std::size_t {
          auto it = attachments_.find(id);
          return it == attachments_.end() ? 0 : drain_nsm_queues(it->second, s);
        });
  }

  channel* ch = att.ch.get();
  service_lib* service = services_.at(module.id()).get();
  service->attach_channel(*ch, [this, id = vm.id()](std::size_t s) {
    if (auto it = attachments_.find(id); it != attachments_.end()) {
      it->second.lanes[s].nsm_to_vm->notify();
    }
  });

  att.glib = std::make_unique<guest_lib>(vm, *ch, *this, cfg_.costs,
                                         cfg_.notification, &tracer_,
                                         cfg_.guest);

  for (auto& ln : att.lanes) {
    ln.vm_to_nsm->start();
    ln.nsm_to_vm->start();
  }

  // Channel queue-depth gauges (both queue sets, summed over shard lanes)
  // and lifetime nqe counters.
  const std::string p = "vm" + std::to_string(vm.id());
  metrics_.register_gauge_fn(p + "_vmq_job_depth", [ch] {
    return static_cast<double>(ch->vm_job_depth());
  });
  metrics_.register_gauge_fn(p + "_vmq_out_depth", [ch] {
    return static_cast<double>(ch->vm_out_depth());
  });
  metrics_.register_gauge_fn(p + "_nsmq_job_depth", [ch] {
    return static_cast<double>(ch->nsm_job_depth());
  });
  metrics_.register_gauge_fn(p + "_nsmq_out_depth", [ch] {
    return static_cast<double>(ch->nsm_out_depth());
  });
  metrics_.register_gauge_fn(p + "_nqes_vm_to_nsm", [ch] {
    return static_cast<double>(ch->nqes_vm_to_nsm());
  });
  metrics_.register_gauge_fn(p + "_nqes_nsm_to_vm", [ch] {
    return static_cast<double>(ch->nqes_nsm_to_vm());
  });
  metrics_.register_gauge_fn(p + "_pool_chunks_free", [ch] {
    return static_cast<double>(ch->pool.chunks_free());
  });
  metrics_.register_gauge_fn(p + "_pool_resident_bytes", [ch] {
    return static_cast<double>(ch->pool.resident_bytes());
  });
  // Staged (overflowed) depth per direction; nonzero means a ring filled
  // and the engine is carrying the excess until the consumer catches up.
  // The stages are heap-allocated, so capturing their addresses survives
  // rehashes of attachments_.
  std::vector<const lane_stages*> stages;
  stages.reserve(att.lanes.size());
  for (const auto& ln : att.lanes) stages.push_back(ln.stage.get());
  metrics_.register_gauge_fn(p + "_staged_to_nsm", [stages] {
    std::size_t d = 0;
    for (const auto* st : stages) d += st->to_nsm.size();
    return static_cast<double>(d);
  });
  metrics_.register_gauge_fn(p + "_staged_to_vm", [stages] {
    std::size_t d = 0;
    for (const auto* st : stages) d += st->to_vm_depth();
    return static_cast<double>(d);
  });
  metrics_.register_gauge_fn(p + "_nsm_staged_out", [service, id = vm.id()] {
    return static_cast<double>(service->staged_depth(id));
  });
  // Tenant-quota gauges (sla_spec cycle budget and chunk quota): current-
  // period NSM cycles and huge-page chunks held. Exported even with no quota
  // set (both read zero / raw occupancy), so dashboards need no conditional
  // wiring. Neither source changes at failover, so these are never rewired.
  metrics_.register_gauge_fn(p + "_cycle_budget_used", [this, id = vm.id()] {
    return static_cast<double>(sla_.cycles_used(id, sim_.now()));
  });
  metrics_.register_gauge_fn(p + "_chunk_quota_used", [ch] {
    return static_cast<double>(ch->pool.chunks_held());
  });

  // Abuse record + firewall gauges. Heap-allocated like the overflow
  // stages, so the closures stay valid across rehashes of attachments_.
  att.abuse = std::make_unique<abuse_state>(make_violation_budget(),
                                            make_stat_refresh_budget());
  abuse_state* ab = att.abuse.get();
  metrics_.register_gauge_fn(p + "_nqes_rejected", [ab] {
    return static_cast<double>(ab->rejected);
  });
  metrics_.register_gauge_fn(p + "_abuse_level", [ab] {
    return static_cast<double>(static_cast<int>(ab->level));
  });
  metrics_.register_gauge_fn(p + "_pool_bad_frees", [ch] {
    return static_cast<double>(ch->pool.bad_frees());
  });

  auto [it, inserted] = attachments_.emplace(vm.id(), std::move(att));
  // A VM re-attaching under an active quarantine comes up barred: its job
  // lanes refuse to drain until probation expires (auto-readmit below) or
  // readmit_vm() paroles it early.
  if (const quarantine_record* q = active_quarantine(vm.id())) {
    it->second.abuse->level = abuse_level::quarantined;
    log_info("core_engine: vm ", vm.id(), " attached under quarantine");
    if (q->readmit_at != sim_time::zero()) {
      sim_.schedule_at(q->readmit_at,
                       [this, id = vm.id()] { (void)readmit_vm(id); });
    }
  }
  // Seed the guest-visible stat page so in-guest readers see a valid
  // (empty) snapshot from the first instruction, not an unpublished page.
  if (it->second.abuse->level != abuse_level::quarantined) {
    publish_stat_page(it->second);
  }
  log_info("core_engine: attached vm ", vm.id(), " (", vm.name(),
           ") to nsm ", module.id(), " across ", shards_.size(),
           shards_.size() == 1 ? " shard" : " shards");
  return *it->second.glib;
}

void core_engine::notify_from_vm(virt::vm_id vm, std::size_t shard) {
  if (auto it = attachments_.find(vm); it != attachments_.end()) {
    it->second.lanes[shard].vm_to_nsm->notify();
  }
}

void core_engine::notify_vm_space(virt::vm_id vm, std::size_t shard) {
  if (auto it = attachments_.find(vm); it != attachments_.end()) {
    it->second.lanes[shard].nsm_to_vm->notify();
  }
}

// --- overflow staging ------------------------------------------------------------

bool core_engine::push_staged(attachment& att, std::size_t s,
                              shm::staged_lane& lane, const shm::nqe& e) {
  engine_shard& sh = shards_[s];
  const shm::push_result r = lane.push(e, cfg_.overflow_limit);
  if (r == shm::push_result::staged) ++sh.stats.nqes_deferred;
  if (r == shm::push_result::dropped) {
    // Hard cap: the pipeline never gets here while gating works (pops stop
    // when a stage fills); this is the bounded-memory backstop.
    ++sh.stats.nqes_dropped;
    drop_trace(sh, e.reserved);
    if (!e.desc.empty()) (void)att.ch->pool.free(e.desc.chunk);
  }
  return r == shm::push_result::ring;
}

void core_engine::push_to_vm(attachment& att, std::size_t s,
                             shm::staged_lane& lane, const shm::nqe& e) {
  if (!push_staged(att, s, lane, e)) return;
  att.ch->count_nsm_to_vm(s);
  if (att.glib) att.glib->notify();
}

// --- VM -> NSM direction ---------------------------------------------------------

std::size_t core_engine::drain_vm_jobs(attachment& att, std::size_t s) {
  NK_PROF("core_engine", "pump_fwd");
  abuse_state& ab = *att.abuse;
  std::size_t batch = drain_batch;
  if (ab.level == abuse_level::quarantined) return 0;
  // De-escalation: a violation budget back at full burst means the tenant
  // has behaved for a while — clear the warn/throttle standing.
  if (ab.level != abuse_level::ok &&
      ab.budget.tokens_at(sim_.now()) >=
          static_cast<double>(ab.budget.burst())) {
    ab.level = abuse_level::ok;
    ab.throttled_violations = 0;
  }
  if (ab.level == abuse_level::throttled) {
    const sim_time now = sim_.now();
    if (now < ab.next_drain) {
      // Deprioritized, not stopped: one wake timer per VM re-rings every
      // job lane when the next drain window opens, so a throttled tenant
      // keeps limping even under batched-interrupt notification.
      if (!ab.throttle_wake_pending) {
        ab.throttle_wake_pending = true;
        sim_.schedule_at(ab.next_drain, [this, id = att.vm->id()] {
          auto wit = attachments_.find(id);
          if (wit == attachments_.end()) return;
          wit->second.abuse->throttle_wake_pending = false;
          for (auto& ln : wit->second.lanes) ln.vm_to_nsm->notify();
        });
      }
      return 0;
    }
    ab.next_drain = now + cfg_.firewall.throttle_period;
    batch = cfg_.firewall.throttle_batch;
  }
  // Staged nqes first: they are older than anything still in the ring.
  shm::staged_lane& stage = att.lanes[s].stage->to_nsm;
  std::size_t n = stage.flush();
  if (n > 0) {
    if (auto* service = service_of(att.module->id())) service->notify();
  }
  shm::nqe e;
  std::size_t popped = 0;
  sim::cpu_core* core = shards_[s].core;
  bool gated = false;
  // Stop accepting new work once the stage is at the limit — the job ring
  // then fills and GuestLib's would_block machinery pushes back on the app.
  // Likewise once the shard core's copy backlog passes the bound: further
  // pops would just park nqes in its infinite FIFO, hiding the pressure.
  while (n < batch && stage.size() < cfg_.overflow_limit) {
    if (core != nullptr && core->backlog() > pump_backlog_bound) {
      gated = true;
      break;
    }
    if (!att.ch->vm_q(s).job.pop(e)) break;
    ++n;
    ++popped;
    att.ch->count_vm_to_nsm(s);
    // Admission firewall (DESIGN.md §14): nothing popped from a
    // guest-writable ring is trusted. fd ownership is checked downstream
    // in forward_to_nsm, after same-batch creations install their mappings.
    if (const auto r = admit_vm_nqe(att, e)) {
      reject_nqe(att, s, e, *r);
      if (ab.level == abuse_level::quarantined) break;
      continue;
    }
    tracer_.stamp(e.reserved, obs::nqe_stage::vm_job_dwell);
    // The copy between queue sets costs ~12 ns on this shard's core
    // (paper §4.2); translation happens in FIFO order on that core.
    if (core != nullptr) {
      core->execute(cfg_.costs.nqe_copy, [this, id = att.vm->id(), s, e] {
        if (auto it = attachments_.find(id); it != attachments_.end()) {
          forward_to_nsm(it->second, s, e);
        }
      });
    } else {
      forward_to_nsm(att, s, e);
    }
  }
  // Job-ring slots opened up: GuestLib may have deferred ops to flush.
  if (popped > 0 && att.glib) att.glib->notify();
  if (gated) schedule_shard_redrain(s);
  return n;
}

void core_engine::forward_to_nsm(attachment& att, std::size_t s, shm::nqe e) {
  NK_PROF("core_engine", "fwd_to_nsm");
  engine_shard& sh = shards_[s];
  ++sh.stats.nqes_forwarded;
  const virt::vm_id vm = att.vm->id();

  if (e.op == shm::nqe_op::req_stat_refresh) {
    // On-demand stat-page refresh (DESIGN.md §16): served entirely inside
    // the engine — never forwarded to the NSM, no completion generated.
    // Floods past the per-VM refresh budget are firewall violations like
    // any other (a refresh walks the flow table, so it is cheap, not free).
    if (!att.abuse->stat_refresh.try_consume(sim_.now(), 1)) {
      reject_nqe(att, s, e, reject_reason::badop);
      return;
    }
    publish_stat_page(att);
    // The nqe is consumed here, successfully: finish its trace (a drop
    // would charge the exact-accounting invariant for a served request).
    tracer_.finish(e.reserved);
    return;
  }

  if (e.op == shm::nqe_op::req_socket || e.op == shm::nqe_op::req_udp_open) {
    // New flow: install a mapping (in this shard's partition — the guest
    // steered the request here by hashing <VM, fd>) that learns its cID
    // from cmp_socket.
    const auto fd = static_cast<std::uint32_t>(e.token);
    // Exec-time fd gate: minting a socket over a live fd or inside the
    // engine-owned accept range is a forgery. Pop-time validation cannot
    // see this — mappings install asynchronously as the batch executes.
    if (fd >= accept_fd_base || shard_of(vm, fd).has_value()) {
      reject_nqe(att, s, e, reject_reason::badfd);
      return;
    }
    flow_entry fl;
    fl.nsm = att.module->id();
    fl.udp = e.op == shm::nqe_op::req_udp_open;
    shm::nqe j = e;
    j.reserved = 0;  // journal copies are re-traced when replayed
    fl.journal.push_back(j);
    sh.by_flow[flow_key{vm, fd}] = std::move(fl);
    ++sh.stats.mappings_installed;
    deliver_to_nsm(att, s, e);
    return;
  }

  const auto fd = e.handle;
  auto it = sh.by_flow.find(flow_key{vm, fd});
  if (it == sh.by_flow.end()) {
    // One unknown-fd shape is a benign race, not a forgery, and keeps the
    // legacy unroutable accounting: a close for a mapping the engine
    // already erased (error teardown, failover abort). Every other
    // fd-addressed op naming no flow of this VM is refused by the firewall.
    if (e.op != shm::nqe_op::req_close) {
      reject_nqe(att, s, e, reject_reason::badfd);
      return;
    }
    ++sh.stats.unroutable_nqes;
    drop_trace(sh, e.reserved);
    deliver_error_to_vm(att, s, fd, errc::not_found);
    return;
  }

  // Control-plane ops feed the failover journal (fd-addressed originals);
  // a connect marks the flow as carrying connection state that cannot be
  // reconstructed on a replacement module.
  switch (e.op) {
    case shm::nqe_op::req_bind:
    case shm::nqe_op::req_listen:
    case shm::nqe_op::req_setsockopt: {
      shm::nqe j = e;
      j.reserved = 0;
      it->second.journal.push_back(j);
      if (e.op == shm::nqe_op::req_listen) it->second.listening = true;
      break;
    }
    case shm::nqe_op::req_connect:
      it->second.connecting = true;
      break;
    default:
      break;
  }

  if (!it->second.cid_known) {
    // The NSM has not assigned a cID yet; hold the op (FIFO per flow).
    it->second.pending.push_back(e);
    return;
  }

  e.handle = it->second.cid;
  const bool closing = e.op == shm::nqe_op::req_close;
  deliver_to_nsm(att, s, e);
  if (closing) {
    sh.by_nsm.erase(nsm_key{it->second.nsm, it->second.cid});
    sh.by_flow.erase(it);
    ++sh.stats.mappings_removed;
  }
}

void core_engine::deliver_to_nsm(attachment& att, std::size_t s, shm::nqe e) {
  e.epoch = att.epoch;  // jobs carry the incarnation they were meant for
  tracer_.stamp(e.reserved, obs::nqe_stage::engine_copy_fwd);
  if (!push_staged(att, s, att.lanes[s].stage->to_nsm, e)) return;
  if (auto* service = service_of(att.module->id())) service->notify();
}

// --- NSM -> VM direction -----------------------------------------------------------

std::size_t core_engine::drain_nsm_queues(attachment& att, std::size_t s) {
  NK_PROF("core_engine", "pump_rev");
  // Staged completions/events first, then new work — but only while the
  // VM-side stages stay below the limit; beyond it, leave nqes in the NSM
  // rings so ServiceLib sees the pressure and stalls its reads.
  lane_stages& stage = *att.lanes[s].stage;
  std::size_t n = stage.completion.flush();
  n += stage.receive.flush();
  if (n > 0) {
    att.ch->count_nsm_to_vm(s, n);
    if (att.glib) att.glib->notify();
  }
  shm::nqe e;
  std::size_t popped = 0;
  sim::cpu_core* core = shards_[s].core;
  bool gated = false;
  // Completions first, then events; the shard core keeps this order
  // downstream. The same backlog gate as the forward pump applies: past the
  // bound, nqes — and the chunks ev_data descriptors pin — stay in the NSM
  // rings where ServiceLib can see and react to the pressure.
  for (const bool receive : {false, true}) {
    shm::nqe_queue& ring =
        receive ? att.ch->nsm_q(s).receive : att.ch->nsm_q(s).completion;
    while (n < drain_batch && stage.to_vm_depth() < cfg_.overflow_limit) {
      if (core != nullptr && core->backlog() > pump_backlog_bound) {
        gated = true;
        break;
      }
      if (!ring.pop(e)) break;
      ++n;
      ++popped;
      tracer_.stamp(e.reserved, obs::nqe_stage::nsm_out_dwell);
      if (core != nullptr) {
        core->execute(cfg_.costs.nqe_copy,
                      [this, id = att.vm->id(), s, e, receive] {
                        if (auto it = attachments_.find(id);
                            it != attachments_.end()) {
                          forward_to_vm(it->second, s, e, receive);
                        }
                      });
      } else {
        forward_to_vm(att, s, e, receive);
      }
    }
  }
  // NSM-ring slots opened up: ServiceLib may have staged output to flush.
  if (popped > 0) {
    if (auto* service = service_of(att.module->id())) service->notify();
  }
  if (gated) schedule_shard_redrain(s);
  return n;
}

void core_engine::schedule_shard_redrain(std::size_t s) {
  engine_shard& sh = shards_[s];
  if (sh.redrain_pending || sh.core == nullptr) return;
  sh.redrain_pending = true;
  // Wake once the committed copy work clears. Under polling pumps this is
  // belt-and-braces (they re-poll anyway); under batched_interrupt it is
  // what stops a gated lane from wedging with no producer left to ring the
  // doorbell.
  const sim_time wait = std::max(sh.core->backlog(), microseconds(1));
  sim_.schedule(wait, [this, s] {
    shards_[s].redrain_pending = false;
    for (auto& [vm, att] : attachments_) {
      (void)vm;
      att.lanes[s].vm_to_nsm->notify();
      att.lanes[s].nsm_to_vm->notify();
    }
  });
}

void core_engine::forward_to_vm(attachment& att, std::size_t s, shm::nqe e,
                                bool receive_queue) {
  NK_PROF("core_engine", "fwd_to_vm");
  engine_shard& sh = shards_[s];
  if (e.epoch != att.epoch) {
    // Output produced by a dead incarnation, drained after the switchover:
    // its flow state no longer exists. Discard with accounting.
    discard_stale(att, s, e);
    return;
  }
  if (!e.desc.empty() && e.desc.chunk.pool_key != att.ch->pool.key()) {
    // The NSM side minted a descriptor into a pool that is not this
    // channel's (satellite of DESIGN.md §14: pool-key isolation enforced at
    // every engine-side dereference). Never dereference or free a foreign
    // ref here — drop with accounting and count the isolation violation.
    ++sh.chunk_key_mismatch;
    ++sh.stats.nqes_dropped;
    drop_trace(sh, e.reserved);
    return;
  }
  ++sh.stats.nqes_forwarded;
  const virt::vm_id vm = att.vm->id();
  const nsm_id module = att.module->id();

  switch (e.op) {
    case shm::nqe_op::cmp_socket: {
      // Learn the <VM,fd> <-> <NSM,cID> mapping and release held ops. The
      // completion rides the same shard lane the req_socket went down, so
      // the flow entry is in this shard's partition.
      const auto fd = static_cast<std::uint32_t>(e.token);
      auto it = sh.by_flow.find(flow_key{vm, fd});
      if (it != sh.by_flow.end()) {
        it->second.cid = e.handle;
        it->second.cid_known = true;
        sh.by_nsm[nsm_key{module, e.handle}] = flow_key{vm, fd};
        auto held = std::move(it->second.pending);
        it->second.pending.clear();
        bool closed = false;
        for (auto& op : held) {
          op.handle = it->second.cid;
          closed = closed || op.op == shm::nqe_op::req_close;
          deliver_to_nsm(att, s, op);
        }
        if (closed) {
          sh.by_nsm.erase(nsm_key{module, it->second.cid});
          sh.by_flow.erase(it);
          ++sh.stats.mappings_removed;
        }
      }
      e.handle = fd;
      break;
    }
    case shm::nqe_op::ev_accept: {
      // handle = listener cID, arg0 = new connection cID. Mint a VM fd for
      // the new flow and register it (paper §3.2 accept path). ServiceLib
      // steered this event to the child's home shard (hash of <NSM, cID>),
      // so the child's mapping installs here; the listener may live in a
      // different partition — resolving it is a cross-shard *read* on the
      // accept control path, never a write to another shard's state.
      const flow_key* lkey = find_by_nsm(nsm_key{module, e.handle});
      if (lkey == nullptr) {
        ++sh.stats.unroutable_nqes;
        drop_trace(sh, e.reserved);
        return;
      }
      // Copy the listener fd out before the inserts below: they may rehash
      // the very map lkey points into.
      const std::uint32_t listener_fd = lkey->fd;
      const std::uint32_t new_fd = att.lanes[s].next_accept_fd++;
      const auto new_cid = static_cast<std::uint32_t>(e.arg0);
      flow_entry fl;
      fl.nsm = module;
      fl.cid = new_cid;
      fl.cid_known = true;
      sh.by_flow[flow_key{vm, new_fd}] = std::move(fl);
      sh.by_nsm[nsm_key{module, new_cid}] = flow_key{vm, new_fd};
      ++sh.stats.accept_fds_minted;
      ++sh.stats.mappings_installed;
      e.handle = listener_fd;
      e.arg0 = new_fd;
      break;
    }
    default: {
      auto it = sh.by_nsm.find(nsm_key{module, e.handle});
      if (it == sh.by_nsm.end()) {
        ++sh.stats.unroutable_nqes;
        drop_trace(sh, e.reserved);
        // Data events for an already-closed flow carry chunks; recycle.
        // (Only ServiceLib writes the NSM out-rings, and it emits no req_*.)
        if (shm::owns_chunk(e) && !e.desc.empty()) {
          (void)att.ch->pool.free(e.desc.chunk);
        }
        return;
      }
      const std::uint32_t fd = it->second.fd;
      if (e.op == shm::nqe_op::ev_error) {
        sh.by_flow.erase(it->second);
        sh.by_nsm.erase(it);
        ++sh.stats.mappings_removed;
      }
      e.handle = fd;
      break;
    }
  }

  tracer_.stamp(e.reserved, obs::nqe_stage::engine_copy_rev);
  // A failed push must not count as delivered, and a critical nqe (a
  // cmp_socket carrying the flow's cID, a cmp_send releasing credit) must
  // survive a full ring — it parks in the stage and flushes in order.
  lane_stages& stage = *att.lanes[s].stage;
  push_to_vm(att, s, receive_queue ? stage.receive : stage.completion, e);
}

// --- fault domains: detach, replacement, recovery -----------------------------------

void core_engine::discard_stale(attachment& att, std::size_t s,
                                const shm::nqe& e) {
  engine_shard& sh = shards_[s];
  ++sh.stats.stale_nqes;
  drop_trace(sh, e.reserved);
  if (shm::owns_chunk(e) && !e.desc.empty()) {
    (void)att.ch->pool.free(e.desc.chunk);
  }
}

void core_engine::deliver_error_to_vm(attachment& att, std::size_t s,
                                      std::uint32_t fd, errc err) {
  shm::nqe e;
  e.op = shm::nqe_op::ev_error;
  e.handle = fd;
  e.status = -static_cast<std::int32_t>(err);
  e.owner = att.module->id();
  e.epoch = att.epoch;
  // Straight to the VM-side receive lane of the flow's shard: the fd
  // usually has no mapping left (that is why an error is being
  // synthesized), so the translating path cannot route it. ev_error is not
  // droppable; a full ring stages it.
  push_to_vm(att, s, att.lanes[s].stage->receive, e);
}

// --- admission firewall + abuse quarantine (DESIGN.md §14) --------------------

std::optional<reject_reason> core_engine::admit_vm_nqe(
    const attachment& att, const shm::nqe& e) const {
  // Role gate first: the guest-writable job rings may only carry requests.
  if (!shm::guest_may_emit(e.op)) return reject_reason::badop;
  // Identity forgery: the guest never stamps an epoch (the engine does, at
  // delivery), always stamps its own VM id, and a creating op's correlation
  // token must be exactly the fd it is minting (high bits clear).
  if (e.epoch != 0 || e.owner != att.vm->id()) return reject_reason::badepoch;
  const bool creating = e.op == shm::nqe_op::req_socket ||
                        e.op == shm::nqe_op::req_udp_open;
  if (creating && ((e.token >> 32) != 0 ||
                   e.handle != static_cast<std::uint32_t>(e.token))) {
    return reject_reason::badepoch;
  }
  // Descriptor gate, before any dereference: a data op must carry a
  // descriptor this VM's own pool vouches for (own key, in-range index,
  // live chunk, offset+length inside the chunk); every other op must carry
  // none — a valid desc smuggled onto a control op is how a guest would
  // trick a downstream free into recycling someone else's credit.
  if (shm::owns_chunk(e)) {
    if (e.desc.empty() || !att.ch->pool.readable(e.desc)) {
      return reject_reason::badchunk;
    }
  } else if (!e.desc.empty()) {
    return reject_reason::badchunk;
  }
  return std::nullopt;
}

void core_engine::reject_nqe(attachment& att, std::size_t s,
                             const shm::nqe& e, reject_reason r) {
  engine_shard& sh = shards_[s];
  ++sh.stats.rejected_nqes;
  ++sh.rejected_reason[static_cast<std::size_t>(r)];
  if (att.abuse) ++att.abuse->rejected;
  drop_trace(sh, e.reserved);
  // A descriptor the pool vouches for still pins a chunk (a valid desc on
  // the wrong op, or on a forged fd): recycle it or the pool leaks. An
  // invalid descriptor is never freed — that free would itself be refused
  // and counted as a pool_bad_free the guest did not commit.
  if (!e.desc.empty() && att.ch->pool.readable(e.desc)) {
    (void)att.ch->pool.free(e.desc.chunk);
  }
  // Surface the refusal while the tenant is in good standing: a buggy (not
  // hostile) guest gets an addressable error. Escalated tenants get
  // silence — error feedback would let an attacker meter the firewall, and
  // it bounds the receive-lane growth a rejection storm can cause.
  if (att.abuse == nullptr || att.abuse->level <= abuse_level::warn) {
    deliver_error_to_vm(att, s, e.handle,
                        r == reject_reason::badfd ? errc::not_found
                                                  : errc::permission_denied);
  }
  record_violation(att);
}

void core_engine::record_violation(attachment& att) {
  if (att.abuse == nullptr) return;
  abuse_state& ab = *att.abuse;
  ++ab.violations;
  if (ab.level == abuse_level::quarantined) return;
  const sim_time now = sim_.now();
  if (ab.budget.try_consume(now, 1)) {
    if (ab.level == abuse_level::ok) ab.level = abuse_level::warn;
    return;
  }
  if (ab.level != abuse_level::throttled) {
    ab.level = abuse_level::throttled;
    ab.next_drain = now;
    metrics_.get_counter("vms_throttled").inc();
    recorder_.note(att.module->id(), 0,
                   "vm " + std::to_string(att.vm->id()) +
                       " throttled: violation budget dry",
                   now);
    log_info("core_engine: vm ", att.vm->id(),
             " throttled (violation budget dry)");
  }
  if (++ab.throttled_violations >= cfg_.firewall.quarantine_threshold) {
    ab.level = abuse_level::quarantined;
    // Deferred: quarantine_vm detaches the VM, which would erase the
    // attachment the caller is still iterating inside.
    sim_.schedule(sim_time::zero(), [this, id = att.vm->id()] {
      quarantine_vm(id, "violation budget exhausted");
    });
  }
}

void core_engine::quarantine_vm(virt::vm_id vm, std::string reason) {
  auto it = attachments_.find(vm);
  if (it == attachments_.end()) return;
  attachment& att = it->second;
  if (att.abuse) att.abuse->level = abuse_level::quarantined;
  const sim_time now = sim_.now();
  quarantine_record rec;
  rec.vm = vm;
  rec.module = att.module != nullptr ? att.module->id() : 0;
  rec.at = now;
  rec.readmit_at = cfg_.firewall.probation > sim_time::zero()
                       ? now + cfg_.firewall.probation
                       : sim_time::zero();
  rec.reason = std::move(reason);
  rec.violations = att.abuse ? att.abuse->violations : 0;
  metrics_.get_counter("vms_quarantined").inc();
  recorder_.note(rec.module, 0,
                 "vm " + std::to_string(vm) + " quarantined: " + rec.reason,
                 now);
  log_info("core_engine: quarantined vm ", vm, " (", rec.reason, ")");
  // Freeze the guest-visible stat page with the terminal flag before the
  // detach scrub empties the flow table: the guest keeps its mapping (the
  // retired attachment keeps the channel alive), and every read from now
  // on returns this last snapshot with stat_frozen set — an in-guest nk_ss
  // can tell "my stack is gone" from "my stack is idle".
  publish_stat_page(att, /*freeze=*/true);
  // Abort the guest's local state first: the detach scrub below recycles
  // everything in rings, stages and mapping tables, but not the chunks
  // GuestLib holds internally (receive buffers, deferred submissions) —
  // those are freed guest-side here, with errors raised to the apps.
  if (att.glib) att.glib->abort_all(errc::nsm_reset);
  quarantine_log_.push_back(std::move(rec));
  detach_vm(vm);
}

bool core_engine::readmit_vm(virt::vm_id vm) {
  bool cleared = false;
  for (auto& rec : quarantine_log_) {
    if (rec.vm == vm && !rec.readmitted) {
      rec.readmitted = true;
      cleared = true;
    }
  }
  if (!cleared) return false;
  metrics_.get_counter("vms_readmitted").inc();
  log_info("core_engine: readmitted vm ", vm);
  if (auto it = attachments_.find(vm); it != attachments_.end()) {
    attachment& att = it->second;
    if (att.abuse) {
      att.abuse->level = abuse_level::ok;
      att.abuse->throttled_violations = 0;
      att.abuse->budget = make_violation_budget();
    }
    for (auto& ln : att.lanes) ln.vm_to_nsm->notify();
  }
  return true;
}

const quarantine_record* core_engine::active_quarantine(virt::vm_id vm) const {
  const sim_time now = sim_.now();
  // The most recent record governs: scan backwards, and once it is found
  // either active (permanent, or inside probation) or expired, stop.
  for (auto rit = quarantine_log_.rbegin(); rit != quarantine_log_.rend();
       ++rit) {
    if (rit->vm != vm || rit->readmitted) continue;
    if (rit->readmit_at == sim_time::zero() || now < rit->readmit_at) {
      return &*rit;
    }
    return nullptr;
  }
  return nullptr;
}

bool core_engine::quarantined(virt::vm_id vm) const {
  return active_quarantine(vm) != nullptr;
}

abuse_level core_engine::abuse_level_of(virt::vm_id vm) const {
  auto it = attachments_.find(vm);
  if (it == attachments_.end() || !it->second.abuse) {
    return quarantined(vm) ? abuse_level::quarantined : abuse_level::ok;
  }
  return it->second.abuse->level;
}

void core_engine::detach_vm(virt::vm_id vm) {
  auto it = attachments_.find(vm);
  if (it == attachments_.end()) return;
  attachment& att = it->second;
  for (auto& ln : att.lanes) {
    ln.vm_to_nsm->stop();
    ln.nsm_to_vm->stop();
  }
  if (att.glib) att.glib->stop();
  if (auto* service = service_of(att.module->id())) {
    service->detach_channel(vm);
  }

  auto discard = [&](engine_shard& sh, const shm::nqe& e) {
    ++sh.stats.nqes_dropped;
    drop_trace(sh, e.reserved);
    if (shm::owns_chunk(e) && !e.desc.empty()) {
      (void)att.ch->pool.free(e.desc.chunk);
    }
  };

  // Both directions of the mapping table, including ops held for a cid.
  // Each flow lives in exactly one shard's partition, so every shard is
  // scrubbed of precisely its own entries.
  for (auto& sh : shards_) {
    for (auto fit = sh.by_flow.begin(); fit != sh.by_flow.end();) {
      if (fit->first.vm != vm) {
        ++fit;
        continue;
      }
      for (const auto& held : fit->second.pending) discard(sh, held);
      if (fit->second.cid_known) {
        sh.by_nsm.erase(nsm_key{fit->second.nsm, fit->second.cid});
      }
      fit = sh.by_flow.erase(fit);
      ++sh.stats.mappings_removed;
    }
  }

  // Every ring lane and staged lane may still reference huge-page chunks.
  for (std::size_t s = 0; s < att.lanes.size(); ++s) {
    engine_shard& sh = shards_[s];
    auto discard_here = [&](const shm::nqe& e) { discard(sh, e); };
    for (shm::nqe_queue* ring :
         {&att.ch->vm_q(s).job, &att.ch->vm_q(s).completion,
          &att.ch->vm_q(s).receive, &att.ch->nsm_q(s).job,
          &att.ch->nsm_q(s).completion, &att.ch->nsm_q(s).receive}) {
      shm::nqe e;
      while (ring->pop(e)) discard_here(e);
    }
    lane_stages& st = *att.lanes[s].stage;
    for (auto* lane : {&st.to_nsm, &st.completion, &st.receive}) {
      lane->scrub(discard_here);
    }
  }
  // Give the scrubbed pool's memory back. Chunks the stopped GuestLib still
  // holds stay resident and intact.
  att.ch->pool.release_free();

  metrics_.unregister_prefix("vm" + std::to_string(vm) + "_");
  log_info("core_engine: detached vm ", vm, " from nsm ", att.module->id());
  retired_attachments_.push_back(std::move(att));
  attachments_.erase(it);
}

// --- rebalance (work re-homing for skewed tenants) ----------------------------------

std::size_t core_engine::rebalance_vm(virt::vm_id vm, std::size_t to_shard) {
  if (to_shard >= shards_.size()) return 0;
  auto ait = attachments_.find(vm);
  if (ait == attachments_.end()) return 0;
  attachment& att = ait->second;

  // Quiescence check: nothing of this VM's may be in flight anywhere in
  // the pipeline, or moving table entries would strand or reorder nqes.
  for (std::size_t s = 0; s < att.lanes.size(); ++s) {
    const auto& vq = att.ch->vm_q(s);
    const auto& nq = att.ch->nsm_q(s);
    if (!vq.job.empty_approx() || !vq.completion.empty_approx() ||
        !vq.receive.empty_approx() || !nq.job.empty_approx() ||
        !nq.completion.empty_approx() || !nq.receive.empty_approx()) {
      return 0;
    }
    const lane_stages& stage = *att.lanes[s].stage;
    if (!stage.to_nsm.empty() || stage.to_vm_depth() != 0) return 0;
    if (shards_[s].core != nullptr &&
        shards_[s].core->backlog() > sim_time::zero()) {
      return 0;
    }
  }
  if (att.glib && att.glib->deferred_jobs() != 0) return 0;
  service_lib* service = service_of(att.module->id());
  if (service != nullptr && service->staged_depth(vm) != 0) return 0;
  for (const auto& sh : shards_) {
    for (const auto& [key, fl] : sh.by_flow) {
      if (key.vm == vm && !fl.pending.empty()) return 0;
    }
  }

  // Move every flow of the VM into to_shard's partition and re-steer both
  // producers so the flow's future nqes ride the new lane.
  std::size_t moved = 0;
  engine_shard& dst = shards_[to_shard];
  for (auto& sh : shards_) {
    if (sh.index == to_shard) continue;
    for (auto fit = sh.by_flow.begin(); fit != sh.by_flow.end();) {
      if (fit->first.vm != vm) {
        ++fit;
        continue;
      }
      const flow_key key = fit->first;
      flow_entry fl = std::move(fit->second);
      fit = sh.by_flow.erase(fit);
      if (fl.cid_known) {
        sh.by_nsm.erase(nsm_key{fl.nsm, fl.cid});
        dst.by_nsm[nsm_key{fl.nsm, fl.cid}] = key;
        if (service != nullptr) service->set_flow_shard(fl.cid, to_shard);
      }
      if (att.glib) att.glib->set_flow_shard(key.fd, to_shard);
      dst.by_flow[key] = std::move(fl);
      ++moved;
    }
  }
  if (moved > 0) {
    metrics_.get_counter("shard_rebalances").inc(moved);
    log_info("core_engine: rebalanced ", moved, " flows of vm ", vm,
             " onto shard ", to_shard);
  }
  return moved;
}

// --- NSM replacement -----------------------------------------------------------------

nsm& core_engine::replace_nsm(nsm_id failed_id, const nsm_config& cfg,
                              replace_mode mode) {
  const sim_time started = sim_.now();
  nsm& fresh = create_nsm(cfg);
  const nsm_id new_id = fresh.id();
  log_info("core_engine: replacing nsm ", failed_id, " with nsm ", new_id,
           mode == replace_mode::planned ? " (planned)" : " (unplanned)");
  recorder_.note(failed_id, 0,
                 std::string(mode == replace_mode::planned
                                 ? "replace planned -> nsm "
                                 : "replace unplanned -> nsm ") +
                     std::to_string(new_id),
                 sim_.now());
  if (mode == replace_mode::unplanned) {
    metrics_.get_counter("nsm_failures").inc();
    // Crash recovery: the old incarnation is dead as of now; the channels
    // switch over the moment the replacement finishes booting, so the
    // per-form startup time is part of the measured recovery time.
    if (auto* old_service = service_of(failed_id);
        old_service != nullptr && !old_service->failed()) {
      old_service->fail();
    }
    sim_.schedule_at(std::max(fresh.ready_at(), sim_.now()),
                     [this, failed_id, new_id, started] {
                       switch_over(failed_id, new_id, started);
                     });
  } else {
    metrics_.get_counter("nsm_planned_updates").inc();
    try_planned_switch(failed_id, new_id, started,
                       sim_.now() + cfg_.planned_drain_timeout);
  }
  return fresh;
}

void core_engine::try_planned_switch(nsm_id old_id, nsm_id new_id,
                                     sim_time started, sim_time deadline) {
  nsm* fresh = nsm_by_id(new_id);
  if (fresh == nullptr) return;
  service_lib* old_service = service_of(old_id);
  bool stages_clear = true;
  for (const auto& [vm, att] : attachments_) {
    if (att.module == nullptr || att.module->id() != old_id) continue;
    for (const auto& ln : att.lanes) {
      if (!ln.stage->to_nsm.empty()) {
        stages_clear = false;
        break;
      }
    }
    if (!stages_clear) break;
  }
  const bool drained =
      stages_clear && (old_service == nullptr || old_service->quiescent());
  const bool booted = sim_.now() >= fresh->ready_at();
  if (booted && (drained || sim_.now() >= deadline)) {
    switch_over(old_id, new_id, started);
    return;
  }
  sim_.schedule(microseconds(100), [this, old_id, new_id, started, deadline] {
    try_planned_switch(old_id, new_id, started, deadline);
  });
}

void core_engine::replay_flow(attachment& att, std::size_t s,
                              std::uint32_t fd, flow_entry& fl) {
  engine_shard& sh = shards_[s];
  if (fl.cid_known) sh.by_nsm.erase(nsm_key{fl.nsm, fl.cid});
  fl.nsm = att.module->id();
  fl.cid = 0;
  fl.cid_known = false;  // the replacement assigns a fresh cid (cmp_socket)
  // Ops still held for the dead incarnation's cid duplicate the journal
  // (control plane) or are data that died with the module; discard them
  // with accounting before rebuilding the pending list from the journal.
  for (const shm::nqe& held : fl.pending) discard_stale(att, s, held);
  fl.pending.clear();
  // Only the socket-creation op can go down now: everything after it is
  // cid-addressed on the NSM side, and the fresh cid arrives asynchronously
  // via cmp_socket. Park the rest on the flow's pending list; the
  // cid-arrival path translates and delivers them in journal order. The
  // replay stays inside the flow's owning shard: the journal head rides
  // this shard's lane, so the replacement ServiceLib re-learns the same
  // steering the guest still uses.
  bool first = true;
  for (const shm::nqe& entry : fl.journal) {
    shm::nqe e = entry;
    e.reserved = 0;
    if (const std::uint64_t id = tracer_.maybe_begin(
            e, /*reverse=*/false, att.vm->id(), att.module->id())) {
      tracer_.stamp(id, obs::nqe_stage::failover_replay);
    }
    if (first) {
      deliver_to_nsm(att, s, e);
      first = false;
    } else {
      fl.pending.push_back(e);
    }
  }
  (void)fd;
}

void core_engine::switch_over(nsm_id old_id, nsm_id new_id, sim_time started) {
  nsm* fresh = nsm_by_id(new_id);
  service_lib* next = service_of(new_id);
  if (fresh == nullptr || next == nullptr) return;

  // Make sure the old incarnation really is dead before taking its place
  // (the planned path reaches here without an explicit fail()).
  if (auto* old_service = service_of(old_id);
      old_service != nullptr && !old_service->failed()) {
    old_service->fail();
  }

  std::uint64_t recovered = 0;
  std::uint64_t aborted = 0;
  for (auto& [vm, att] : attachments_) {
    if (att.module == nullptr || att.module->id() != old_id) continue;

    // New incarnation: bump the epoch so anything still stamped with the
    // old one — staged jobs here, queued jobs on the NSM side, undrained
    // outputs — is discarded with accounting instead of being misapplied.
    ++att.epoch;
    for (std::size_t s = 0; s < att.lanes.size(); ++s) {
      att.lanes[s].stage->to_nsm.scrub(
          [&](const shm::nqe& e) { discard_stale(att, s, e); });
      // Purge the job ring too: everything in it was addressed to the dead
      // incarnation, and replayed control ops must not queue behind a ring
      // full of doomed work (a slow drain there would delay the recovered
      // listener by whole seconds).
      shm::nqe queued;
      while (att.ch->nsm_q(s).job.pop(queued)) discard_stale(att, s, queued);
    }
    att.module = fresh;
    att.ch->nsm = new_id;
    next->attach_channel(
        *att.ch,
        [this, id = vm](std::size_t s) {
          if (auto a = attachments_.find(id); a != attachments_.end()) {
            a->second.lanes[s].nsm_to_vm->notify();
          }
        },
        att.epoch);
    metrics_.register_gauge_fn(
        "vm" + std::to_string(vm) + "_nsm_staged_out",
        [next, id = vm] { return static_cast<double>(next->staged_depth(id)); });

    // Partition this VM's flows: journals reconstruct listeners, datagram
    // bindings and not-yet-connected sockets on the new module; connection
    // state (established or in-progress TCP, accepted children) died with
    // the old stack and is aborted toward the guest. Each flow is replayed
    // (or doomed) within its owning shard, so steering survives failover.
    for (auto& sh : shards_) {
      std::vector<std::uint32_t> doomed;
      for (auto& [key, fl] : sh.by_flow) {
        if (key.vm != vm || fl.nsm != old_id) continue;
        if (!fl.connecting && !fl.journal.empty()) {
          replay_flow(att, sh.index, key.fd, fl);
          ++recovered;
        } else {
          doomed.push_back(key.fd);
        }
      }
      for (const std::uint32_t fd : doomed) {
        auto bit = sh.by_flow.find(flow_key{vm, fd});
        if (bit == sh.by_flow.end()) continue;
        for (const auto& held : bit->second.pending) {
          discard_stale(att, sh.index, held);
        }
        if (bit->second.cid_known) {
          sh.by_nsm.erase(nsm_key{old_id, bit->second.cid});
        }
        sh.by_flow.erase(bit);
        ++sh.stats.mappings_removed;
        ++aborted;
        deliver_error_to_vm(att, sh.index, fd, errc::nsm_reset);
      }
    }
    next->notify();
    // Republish the stat page under the new epoch: an in-guest reader
    // polling the page sees the epoch advance, its established sockets
    // vanish, and the journal-recovered listeners reappear — failover is
    // visible to tenant diagnostics without any provider interaction.
    publish_stat_page(att);
  }

  // Retire the dead incarnation. Kept alive — simulator callbacks and the
  // pipeline-wide accounting gauges still reference it — but its own gauges
  // go away and the monitor stops sampling it.
  for (auto nit = nsms_.begin(); nit != nsms_.end(); ++nit) {
    if ((*nit)->id() == old_id) {
      retired_nsms_.push_back(std::move(*nit));
      nsms_.erase(nit);
      break;
    }
  }
  if (auto sit = services_.find(old_id); sit != services_.end()) {
    retired_services_.push_back(std::move(sit->second));
    services_.erase(sit);
  }
  metrics_.unregister_prefix("nsm" + std::to_string(old_id) + "_");

  metrics_.get_counter("sockets_recovered").inc(recovered);
  metrics_.get_counter("sockets_aborted").inc(aborted);
  metrics_.get_histogram("failover_time_ns").record_time(sim_.now() - started);
  recorder_.note(old_id, 0,
                 "switchover done: " + std::to_string(recovered) +
                     " recovered, " + std::to_string(aborted) + " aborted",
                 sim_.now());
  log_info("core_engine: nsm ", old_id, " -> ", new_id, " switchover done (",
           recovered, " sockets recovered, ", aborted, " aborted)");
}

}  // namespace nk::core
