#include "core/core_engine.hpp"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "core/guest_lib.hpp"
#include "obs/dump.hpp"
#include "obs/profiler.hpp"

namespace nk::core {

namespace {
// Accepted-connection fds sit above every GuestLib-minted fd. Each shard
// mints its own interleaved sequence (see mint_id), so the accept hot path
// touches no cross-shard counter and (fd - accept_fd_base) mod N names the
// home shard.
constexpr std::uint32_t accept_fd_base = 0x80000000;
// Throttled VMs drain at most `throttle_batch` job nqes per
// `throttle_period` per shard — the VM's jobs are deprioritized, not
// stopped, so a tenant that merely glitched keeps limping.
constexpr sim_time throttle_period = microseconds(100);
constexpr std::size_t throttle_batch = 8;
// Torn-down flows the engine remembers per VM and shard (see
// engine_shard::torn_down). A guest that never closes its errored fds
// cannot grow provider memory past this; beyond it a late request for
// such a fd is refused as badfd, as if the flow had never existed.
constexpr std::size_t torn_down_per_lane = 1024;

// Shard s of N mints the ids first, first + N, first + 2N, ... inside one
// 2^31-wide range ([0, 2^31) for cIDs, [2^31, 2^32) for accepted fds), so
// an id's offset in its range mod N is its home shard. The counter never
// goes backwards except to restart at `first` before it would leave the
// range: an id can repeat only after 2^31/N mints on one shard.
std::uint32_t mint_id(std::uint32_t& next, std::uint32_t first,
                      std::size_t n) {
  const std::uint32_t id = next;
  const auto step = static_cast<std::uint32_t>(n);
  next = (id & 0x7fffffffu) + step < 0x80000000u ? id + step : first;
  return id;
}
}  // namespace

core_engine::core_engine(virt::hypervisor& host, const core_engine_config& cfg)
    : host_{host},
      sim_{host.simulator()},
      cfg_{cfg},
      tracer_{sim_, metrics_, cfg_.trace},
      series_{sim_, metrics_} {
  tracer_.set_flight_recorder(&recorder_);

  // Build the shard array: one partition of the mapping table per shard,
  // each with its own core from the host pool.
  const std::size_t n_shards = cfg_.shards == 0 ? 1 : cfg_.shards;
  shards_.resize(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    shards_[s].index = s;
    shards_[s].core = &host.allocate_core();
    shards_[s].next_cid = static_cast<std::uint32_t>(s + n_shards);
    // Rename shard cores for profiler attribution (safe: the profiler
    // caches a core's name at its first charge, and a freshly allocated
    // pool core has executed nothing). The single-shard engine keeps the
    // pool name so existing profiles stay stable.
    if (n_shards > 1) {
      shards_[s].core->set_name("engine/shard" + std::to_string(s));
    }
    shards_[s].pump = std::make_unique<queue_pump>(
        sim_, cfg_.notification, [this, s] {
          for (auto& [vm, att] : attachments_) {
            drain_vm_jobs(att, s);
            drain_nsm_queues(att, s);
          }
        });
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
    std::uint64_t n = stats().nqes_deferred + gone_services_.nqes_deferred +
                      gone_guests_.jobs_deferred;
    for (const auto& [id, svc] : services_) n += svc->stats().nqes_deferred;
    for (const auto& [vm, att] : attachments_) {
      n += att.glib->stats().jobs_deferred;
    }
    return static_cast<double>(n);
  });
  metrics_.register_gauge_fn("engine_nqes_dropped", [this] {
    std::uint64_t n = stats().nqes_dropped + gone_services_.nqes_dropped;
    for (const auto& [id, svc] : services_) n += svc->stats().nqes_dropped;
    return static_cast<double>(n);
  });
  // Fault-domain accounting: nqes discarded because they were stamped by a
  // dead NSM incarnation (engine side plus every ServiceLib, destroyed ones
  // included — the invariant must survive replacement).
  metrics_.register_gauge_fn("engine_stale_nqes", [this] {
    std::uint64_t n = stats().stale_nqes + gone_services_.stale_nqes;
    for (const auto& [id, svc] : services_) n += svc->stats().stale_nqes;
    return static_cast<double>(n);
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
    std::uint64_t n = gone_services_.chunk_key_mismatch;
    for (const auto& sh : shards_) n += sh.chunk_key_mismatch;
    for (const auto& [id, svc] : services_) {
      n += svc->stats().chunk_key_mismatch;
    }
    return static_cast<double>(n);
  });
  // Defended frees across every VM's pool (detached ones in the totals):
  // forged double-free / free-of-unowned descriptors the pool refused.
  metrics_.register_gauge_fn("engine_pool_bad_frees", [this] {
    std::uint64_t n = gone_bad_frees_;
    for (const auto& [vm, att] : attachments_) {
      n += att.ch->pool.bad_frees();
    }
    return static_cast<double>(n);
  });
  // Huge-page memory the kernel holds for the pools the engine serves. A
  // detached pool is the tenant's business, and a detach first returns its
  // free chunks, so this follows the live attachments' working sets.
  metrics_.register_gauge_fn("engine_pool_resident_bytes", [this] {
    std::size_t n = 0;
    for (const auto& [vm, att] : attachments_) {
      n += att.ch->pool.resident_bytes();
    }
    return static_cast<double>(n);
  });
  metrics_.register_gauge_fn("engine_ops_timed_out", [this] {
    std::uint64_t n = gone_guests_.ops_timed_out;
    for (const auto& [vm, att] : attachments_) {
      n += att.glib->stats().ops_timed_out;
    }
    return static_cast<double>(n);
  });
  metrics_.register_gauge_fn("engine_core_utilization", [this] {
    double util = 0.0;
    for (const auto& sh : shards_) util += sh.core->utilization();
    return util / static_cast<double>(shards_.size());
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
      metrics_.register_gauge_fn(p + "_core_utilization",
                                 [c = shards_[s].core] {
                                   return c->utilization();
                                 });
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
  const std::size_t n = shards_.size();
  const auto& by_nsm =
      shards_[key.cid < service_lib::child_cid_base
                  ? key.cid % n
                  : shm::nsm_shard(key.id, key.cid, n)]
          .by_nsm;
  auto it = by_nsm.find(key);
  return it == by_nsm.end() ? nullptr : &it->second;
}

std::optional<std::size_t> core_engine::shard_of(virt::vm_id vm,
                                                 std::uint32_t fd) const {
  const std::size_t n = shards_.size();
  const std::size_t home = fd >= accept_fd_base
                               ? (fd - accept_fd_base) % n
                               : shm::flow_shard(vm, fd, n);
  if (!shards_[home].by_flow.contains(flow_key{vm, fd})) return std::nullopt;
  return home;
}

std::vector<core_engine::flow_row> core_engine::flow_table() {
  std::vector<flow_row> out;
  for (auto& [id, svc] : services_) {
    for (auto& rec : svc->flow_table()) {
      const flow_key* key = find_by_nsm(nsm_key{id, rec.cid});
      if (key == nullptr) continue;  // the guest already closed the fd
      flow_row row;
      row.vm = key->vm;
      row.fd = key->fd;
      row.nsm = id;
      row.cid = rec.cid;
      row.remote = rec.remote;
      row.info = std::move(rec.info);
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
    // its fresh page stays unpublished until parole.
    if (att.abuse->level == abuse_level::quarantined) {
      continue;
    }
    publish_stat_page(att);
  }
}

void core_engine::publish_stat_page(attachment& att, bool freeze) {
  NK_PROF("core_engine", "stat_publish");
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
      snap.rows[rows++] = shm::nk_sock_stats{key->fd, rec.remote.ip.value,
                                             rec.remote.port, rec.info};
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
  const guest_lib_stats& gs = att.glib->stats();
  snap.vm.staged_jobs += att.glib->deferred_jobs();
  snap.vm.send_would_block = gs.send_blocked;
  snap.vm.recv_would_block = gs.recv_blocked;
  snap.vm.pool_chunks_free = att.ch->pool.chunks_free();
  snap.vm.cycle_budget_used = sla_.cycles_used(vm, sim_.now());
  snap.vm.chunk_quota_used = att.ch->pool.chunks_held();

  // The publish is provider-side work: charge one nqe-copy-sized unit per
  // row (plus one for the aggregates) to the engine's control core, so the
  // ≤2% overhead gate in bench/ablate_tenant_stats measures a modeled
  // cost, not a free lunch.
  shards_[0].core->charge(cfg_.costs.nqe_copy * static_cast<int>(rows + 1));
  att.ch->stats.publish(snap);
  ++stat_publishes_;
}

std::optional<std::pair<nsm_id, std::uint32_t>> core_engine::mapping_of(
    virt::vm_id vm, std::uint32_t fd) const {
  const auto s = shard_of(vm, fd);
  if (!s) return std::nullopt;
  const flow_entry& fl = shards_[*s].by_flow.at(flow_key{vm, fd});
  return std::make_pair(fl.nsm, fl.cid);
}

nsm& core_engine::create_nsm(const nsm_config& cfg) {
  auto module = std::make_unique<nsm>(host_, next_nsm_id_++, cfg);
  nsm& ref = *module;
  auto service = std::make_unique<service_lib>(
      ref, sim_, cfg_.costs, cfg_.notification, tracer_, cfg_.overflow_limit,
      sla_, [this](std::size_t s) { notify(s); });
  service->start();
  services_[ref.id()] = std::move(service);
  nsms_.push_back(std::move(module));

  // Per-NSM health gauges; health_monitor and the exporters both read these.
  const std::string p = "nsm" + std::to_string(ref.id());
  metrics_.register_gauge_fn(p + "_core_utilization", [m = &ref] {
    double util = 0.0;
    for (auto* core : m->cores()) util += core->utilization();
    return util / static_cast<double>(m->cores().size());
  });
  ref.stack().register_metrics(metrics_, p + "_stack");
  if (&ref.transport() != &ref.stack()) {
    ref.transport().register_metrics(metrics_, p + "_transport");
  }
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
  return it == attachments_.end() ? nullptr : it->second.glib;
}

channel* core_engine::channel_of(virt::vm_id vm) {
  auto it = attachments_.find(vm);
  return it == attachments_.end() ? nullptr : it->second.ch;
}

std::vector<virt::vm_id> core_engine::attached_vms() const {
  std::vector<virt::vm_id> out;
  out.reserve(attachments_.size());
  for (const auto& [vm, att] : attachments_) out.push_back(vm);
  return out;
}

guest_lib& core_engine::attach_vm(virt::machine& vm, nsm& module) {
  if (auto it = attachments_.find(vm.id()); it != attachments_.end()) {
    return *it->second.glib;  // already attached
  }
  attachment att;
  att.vm = &vm;
  att.module = &module;
  auto owned_ch = std::make_unique<channel>(vm.id(), module.id(),
                                           host_.next_region_key(),
                                           cfg_.channel, shards_.size());
  att.ch = owned_ch.get();
  // One lane per engine shard: each shard's drain loop drains only its own
  // ring set and re-drains only its own staged lanes.
  att.lanes.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    lane& ln = att.lanes[s];
    ln.stage = std::make_unique<lane_stages>(*att.ch, s);
    ln.next_accept_fd = accept_fd_base + static_cast<std::uint32_t>(s);
  }

  channel* ch = att.ch;
  service_lib* service = services_.at(module.id()).get();
  service->attach_channel(*ch);

  auto glib = std::make_shared<guest_lib>(vm, std::move(owned_ch), *this,
                                          cfg_.costs, cfg_.notification,
                                          tracer_, cfg_.guest);
  att.glib = glib.get();
  // The VM owns GuestLib (and so the channel) from here on. Its previous
  // one goes once the submissions it left on the vCPUs have run.
  if (auto old = vm.set_guest_half(std::move(glib))) {
    sim_time busy = sim_time::zero();
    for (const auto* core : vm.vcpus()) busy = std::max(busy, core->backlog());
    sim_.schedule(busy, [old = std::move(old)] {});
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
  // The stages are heap-allocated, so their addresses survive the move of
  // the attachment into attachments_ below.
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
  // stages, so the closures stay valid after the attachment is moved in.
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
  // The drain loops run while anything is attached: an engine serving no
  // VM polls nothing.
  if (attachments_.size() == 1) {
    for (auto& sh : shards_) sh.pump->start();
  }
  // A VM re-attaching under an active quarantine comes up barred: its job
  // lanes refuse to drain until readmit_vm() paroles it.
  if (quarantined(vm.id())) {
    it->second.abuse->level = abuse_level::quarantined;
    log_info("core_engine: vm ", vm.id(), " attached under quarantine");
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

void core_engine::notify(std::size_t shard) { shards_[shard].pump->notify(); }

// --- overflow staging ------------------------------------------------------------

bool core_engine::push_staged(attachment& att, std::size_t s,
                              shm::staged_lane& lane, const shm::nqe& e) {
  engine_shard& sh = shards_[s];
  const shm::push_result r = lane.push(e, cfg_.overflow_limit);
  if (r == shm::push_result::staged) ++sh.stats.nqes_deferred;
  if (r == shm::push_result::dropped) {
    // Hard cap: the pipeline never gets here while gating works (pops stop
    // when a stage fills); this is the bounded-memory backstop.
    discard(att, s, e, sh.stats.nqes_dropped);
  }
  return r == shm::push_result::ring;
}

void core_engine::push_to_vm(attachment& att, std::size_t s,
                             shm::staged_lane& lane, const shm::nqe& e) {
  if (!push_staged(att, s, lane, e)) return;
  att.ch->count_nsm_to_vm(s);
  att.glib->notify();
}

// --- VM -> NSM direction ---------------------------------------------------------

void core_engine::drain_vm_jobs(attachment& att, std::size_t s) {
  NK_PROF("core_engine", "pump_fwd");
  abuse_state& ab = *att.abuse;
  std::size_t batch = drain_batch;
  if (ab.level == abuse_level::quarantined) return;
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
      // Deprioritized, not stopped: the shard's loop wakes when the next
      // drain window opens, so a throttled tenant keeps limping even under
      // batched-interrupt notification.
      shards_[s].pump->wake_at(ab.next_drain);
      return;
    }
    ab.next_drain = now + throttle_period;
    batch = throttle_batch;
  }
  // Staged nqes first: they are older than anything still in the ring.
  shm::staged_lane& stage = att.lanes[s].stage->to_nsm;
  std::size_t n = stage.flush();
  if (n > 0) {
    if (auto* service = service_of(att.module->id())) service->notify();
  }
  shm::nqe e;
  std::size_t popped = 0;
  sim::cpu_core& core = *shards_[s].core;
  bool gated = false;
  // Stop accepting new work once the stage is at the limit — the job ring
  // then fills and GuestLib's would_block machinery pushes back on the app.
  // Likewise once the shard core's copy backlog passes the bound: further
  // pops would just park nqes in its infinite FIFO, hiding the pressure.
  while (n < batch && stage.size() < cfg_.overflow_limit) {
    if (core.backlog() > drain_backlog_bound) {
      gated = true;
      break;
    }
    if (!att.ch->vm_q(s).job.try_pop(e)) break;
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
    core.execute(cfg_.costs.nqe_copy, [this, id = att.vm->id(), s, e] {
      if (auto it = attachments_.find(id); it != attachments_.end()) {
        forward_to_nsm(it->second, s, e);
      }
    });
  }
  // Job-ring slots opened up: GuestLib may have deferred ops to flush.
  if (popped > 0) att.glib->notify();
  // Jobs left behind at the gate or the batch limit may have no producer
  // left to ring the doorbell: drain again once the copy work clears.
  if (gated || (n >= batch && !att.ch->vm_q(s).job.empty_approx())) {
    shards_[s].pump->wake_when_idle(core);
  }
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
    // New flow: name it with a cID minted by this shard and map both
    // directions in this shard's partition (the guest steered the request
    // here by hashing <VM, fd>). The NSM adopts the cID the request carries.
    const auto fd = static_cast<std::uint32_t>(e.token);
    // Exec-time fd gate: minting a socket over a live fd, inside the
    // engine-owned accept range, or off the fd's home lane is a forgery.
    // Pop-time validation cannot see this — mappings install
    // asynchronously as the batch executes.
    if (fd >= accept_fd_base || shm::flow_shard(vm, fd, shards_.size()) != s ||
        sh.by_flow.contains(flow_key{vm, fd})) {
      reject_nqe(att, s, e, reject_reason::badfd);
      return;
    }
    flow_entry fl;
    fl.nsm = att.module->id();
    const std::size_t n = shards_.size();
    fl.cid = mint_id(sh.next_cid, static_cast<std::uint32_t>(s + n), n);
    shm::nqe j = e;
    j.reserved = 0;  // journal copies are re-traced when replayed
    fl.journal.push_back(j);
    sh.by_nsm[nsm_key{fl.nsm, fl.cid}] = flow_key{vm, fd};
    e.handle = fl.cid;
    sh.by_flow[flow_key{vm, fd}] = std::move(fl);
    ++sh.stats.mappings_installed;
    deliver_to_nsm(att, s, e);
    return;
  }

  const auto fd = e.handle;
  auto it = sh.by_flow.find(flow_key{vm, fd});
  if (it == sh.by_flow.end()) {
    // Two unknown-fd shapes are benign races, not forgeries, and keep the
    // legacy unroutable accounting: a close for a mapping the engine
    // already erased (error teardown, failover abort), and any request
    // for a torn-down flow that the guest sent before it saw the error.
    // Every other fd-addressed op naming no flow of this VM is refused by
    // the firewall.
    if (e.op == shm::nqe_op::req_close) {
      if (sh.torn_down.erase(flow_key{vm, fd}) != 0) --att.lanes[s].torn_down;
      discard(att, s, e, sh.stats.unroutable_nqes);
      deliver_error_to_vm(att, s, fd, errc::not_found);
      return;
    }
    if (!sh.torn_down.contains(flow_key{vm, fd})) {
      reject_nqe(att, s, e, reject_reason::badfd);
      return;
    }
    // The admission gate vouched for a data op's chunk; discard recycles it.
    discard(att, s, e, sh.stats.unroutable_nqes);
    return;
  }

  // Control-plane ops feed the failover journal (fd-addressed originals)
  // while the flow has one; a connect gives the flow connection state that
  // cannot be reconstructed on a replacement module, so it drops the journal.
  std::vector<shm::nqe>& journal = it->second.journal;
  switch (e.op) {
    case shm::nqe_op::req_bind:
    case shm::nqe_op::req_listen:
    case shm::nqe_op::req_setsockopt:
      if (!journal.empty()) {
        shm::nqe j = e;
        j.reserved = 0;
        journal.push_back(j);
      }
      break;
    case shm::nqe_op::req_connect:
      std::vector<shm::nqe>().swap(journal);
      break;
    default:
      break;
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

void core_engine::drain_nsm_queues(attachment& att, std::size_t s) {
  NK_PROF("core_engine", "pump_rev");
  // Staged completions/events first, then new work — but only while the
  // VM-side stages stay below the limit; beyond it, leave nqes in the NSM
  // rings so ServiceLib sees the pressure and stalls its reads.
  lane_stages& stage = *att.lanes[s].stage;
  std::size_t n = stage.completion.flush();
  n += stage.receive.flush();
  if (n > 0) {
    att.ch->count_nsm_to_vm(s, n);
    att.glib->notify();
  }
  shm::nqe e;
  std::size_t popped = 0;
  sim::cpu_core& core = *shards_[s].core;
  bool gated = false;
  // Completions first, then events; the shard core keeps this order
  // downstream. The same backlog gate as the forward drain applies: past the
  // bound, nqes — and the chunks ev_data descriptors pin — stay in the NSM
  // rings where ServiceLib can see and react to the pressure.
  for (const bool receive : {false, true}) {
    shm::spsc_ring<shm::nqe>& ring =
        receive ? att.ch->nsm_q(s).receive : att.ch->nsm_q(s).completion;
    while (n < drain_batch && stage.to_vm_depth() < cfg_.overflow_limit) {
      if (core.backlog() > drain_backlog_bound) {
        gated = true;
        break;
      }
      if (!ring.try_pop(e)) break;
      ++n;
      ++popped;
      tracer_.stamp(e.reserved, obs::nqe_stage::nsm_out_dwell);
      core.execute(cfg_.costs.nqe_copy,
                   [this, id = att.vm->id(), s, e, receive] {
                     if (auto it = attachments_.find(id);
                         it != attachments_.end()) {
                       forward_to_vm(it->second, s, e, receive);
                     }
                   });
    }
  }
  // NSM-ring slots opened up: ServiceLib may have staged output to flush.
  if (popped > 0) {
    if (auto* service = service_of(att.module->id())) service->notify();
  }
  if (gated) shards_[s].pump->wake_when_idle(core);
}

void core_engine::forward_to_vm(attachment& att, std::size_t s, shm::nqe e,
                                bool receive_queue) {
  NK_PROF("core_engine", "fwd_to_vm");
  engine_shard& sh = shards_[s];
  if (e.epoch != att.epoch) {
    // Output produced by a dead incarnation, drained after the switchover:
    // its flow state no longer exists. Discard with accounting.
    discard(att, s, e, sh.stats.stale_nqes);
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
    case shm::nqe_op::cmp_socket:
      // Routed by its token, the fd: the flow may be closed already.
      e.handle = static_cast<std::uint32_t>(e.token);
      break;
    case shm::nqe_op::ev_accept: {
      // handle = listener cID, arg0 = new connection cID. Mint a VM fd for
      // the new flow and register it (paper §3.2 accept path). ServiceLib
      // steered this event to the child's home shard (hash of <NSM, cID>),
      // so the child's mapping installs here; the listener may live in a
      // different partition — resolving it is a *read* of the listener
      // cID's home partition, never a write to another shard's state.
      const flow_key* lkey = find_by_nsm(nsm_key{module, e.handle});
      if (lkey == nullptr) {
        discard(att, s, e, sh.stats.unroutable_nqes);
        return;
      }
      // Copy the listener fd out before the inserts below: they may rehash
      // the very map lkey points into.
      const std::uint32_t listener_fd = lkey->fd;
      const std::uint32_t new_fd =
          mint_id(att.lanes[s].next_accept_fd,
                  accept_fd_base + static_cast<std::uint32_t>(s),
                  shards_.size());
      const auto new_cid = static_cast<std::uint32_t>(e.arg0);
      flow_entry fl;
      fl.nsm = module;
      fl.cid = new_cid;
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
        // Data events for an already-closed flow carry chunks; discard
        // recycles them. (Only ServiceLib writes the NSM out-rings, and it
        // emits no req_*.)
        discard(att, s, e, sh.stats.unroutable_nqes);
        return;
      }
      const std::uint32_t fd = it->second.fd;
      if (e.op == shm::nqe_op::ev_error) {
        remember_torn_down(att, s, it->second);
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
  // cmp_socket carrying the send credit, a cmp_send releasing credit) must
  // survive a full ring — it parks in the stage and flushes in order.
  lane_stages& stage = *att.lanes[s].stage;
  push_to_vm(att, s, receive_queue ? stage.receive : stage.completion, e);
}

// --- fault domains: detach, replacement, recovery -----------------------------------

void core_engine::remember_torn_down(attachment& att, std::size_t s,
                                     const flow_key& key) {
  std::size_t& held = att.lanes[s].torn_down;
  if (held < torn_down_per_lane && shards_[s].torn_down.insert(key).second) {
    ++held;
  }
}

void core_engine::discard(attachment& att, std::size_t s, const shm::nqe& e,
                          std::uint64_t& counter) {
  ++counter;
  drop_trace(shards_[s], e.reserved);
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
  ++att.abuse->rejected;
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
  if (att.abuse->level <= abuse_level::warn) {
    deliver_error_to_vm(att, s, e.handle,
                        r == reject_reason::badfd ? errc::not_found
                                                  : errc::permission_denied);
  }
  record_violation(att);
}

void core_engine::record_violation(attachment& att) {
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
  att.abuse->level = abuse_level::quarantined;
  const sim_time now = sim_.now();
  quarantine_record rec;
  rec.vm = vm;
  rec.module = att.module->id();
  rec.at = now;
  rec.reason = std::move(reason);
  rec.violations = att.abuse->violations;
  metrics_.get_counter("vms_quarantined").inc();
  recorder_.note(rec.module, 0,
                 "vm " + std::to_string(vm) + " quarantined: " + rec.reason,
                 now);
  log_info("core_engine: quarantined vm ", vm, " (", rec.reason, ")");
  // Freeze the guest-visible stat page with the terminal flag before the
  // detach scrub empties the flow table: the guest keeps its mapping (the
  // VM owns the channel), and every read from now on returns this last
  // snapshot with stat_frozen set — an in-guest nk_ss can tell "my stack is
  // gone" from "my stack is idle".
  publish_stat_page(att, /*freeze=*/true);
  // Abort the guest's local state first: the detach scrub below recycles
  // everything in rings, stages and mapping tables, but not the chunks
  // GuestLib holds internally (receive buffers, deferred submissions) —
  // those are freed guest-side here, with errors raised to the apps.
  att.glib->abort_all(errc::nsm_reset);
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
    att.abuse->level = abuse_level::ok;
    att.abuse->throttled_violations = 0;
    att.abuse->budget = make_violation_budget();
    for (auto& sh : shards_) sh.pump->notify();
  }
  return true;
}

bool core_engine::quarantined(virt::vm_id vm) const {
  return std::ranges::any_of(quarantine_log_, [vm](const quarantine_record& r) {
    return r.vm == vm && !r.readmitted;
  });
}

abuse_level core_engine::abuse_level_of(virt::vm_id vm) const {
  auto it = attachments_.find(vm);
  if (it == attachments_.end()) {
    return quarantined(vm) ? abuse_level::quarantined : abuse_level::ok;
  }
  return it->second.abuse->level;
}

void core_engine::detach_vm(virt::vm_id vm) {
  auto it = attachments_.find(vm);
  if (it == attachments_.end()) return;
  attachment& att = it->second;
  att.glib->stop();
  if (auto* service = service_of(att.module->id())) {
    service->detach_channel(vm);
  }

  // Both directions of the mapping table. Each flow lives in exactly one
  // shard's partition, so every shard is scrubbed of precisely its own
  // entries.
  for (auto& sh : shards_) {
    for (auto fit = sh.by_flow.begin(); fit != sh.by_flow.end();) {
      if (fit->first.vm != vm) {
        ++fit;
        continue;
      }
      sh.by_nsm.erase(nsm_key{fit->second.nsm, fit->second.cid});
      fit = sh.by_flow.erase(fit);
      ++sh.stats.mappings_removed;
    }
    std::erase_if(sh.torn_down,
                  [vm](const flow_key& k) { return k.vm == vm; });
  }

  // Every ring lane and staged lane may still reference huge-page chunks.
  for (std::size_t s = 0; s < att.lanes.size(); ++s) {
    auto discard_here = [&](const shm::nqe& e) {
      discard(att, s, e, shards_[s].stats.nqes_dropped);
    };
    for (shm::spsc_ring<shm::nqe>* ring :
         {&att.ch->vm_q(s).job, &att.ch->vm_q(s).completion,
          &att.ch->vm_q(s).receive, &att.ch->nsm_q(s).job,
          &att.ch->nsm_q(s).completion, &att.ch->nsm_q(s).receive}) {
      shm::nqe e;
      while (ring->try_pop(e)) discard_here(e);
    }
    lane_stages& st = *att.lanes[s].stage;
    for (auto* lane : {&st.to_nsm, &st.completion, &st.receive}) {
      lane->scrub(discard_here);
    }
  }
  // Give the scrubbed pool's memory back. Chunks the stopped GuestLib still
  // holds stay resident and intact: the pool is the VM's now.
  att.ch->pool.release_free();

  metrics_.unregister_prefix("vm" + std::to_string(vm) + "_");
  gone_guests_.jobs_deferred += att.glib->stats().jobs_deferred;
  gone_guests_.ops_timed_out += att.glib->stats().ops_timed_out;
  gone_bad_frees_ += att.ch->pool.bad_frees();
  log_info("core_engine: detached vm ", vm, " from nsm ", att.module->id());
  attachments_.erase(it);
  if (attachments_.empty()) {
    for (auto& sh : shards_) sh.pump->stop();
  }
}

// --- NSM replacement -----------------------------------------------------------------

nsm& core_engine::replace_nsm(nsm_id failed_id, const nsm_config& cfg) {
  const sim_time started = sim_.now();
  nsm& fresh = create_nsm(cfg);
  const nsm_id new_id = fresh.id();
  log_info("core_engine: replacing nsm ", failed_id, " with nsm ", new_id);
  recorder_.note(failed_id, 0, "replace -> nsm " + std::to_string(new_id),
                 sim_.now());
  metrics_.get_counter("nsm_failures").inc();
  // The old incarnation is dead as of now; the channels switch over the
  // moment the replacement finishes booting, so the per-form startup time
  // is part of the measured recovery time.
  if (auto* old_service = service_of(failed_id);
      old_service != nullptr && !old_service->failed()) {
    old_service->fail();
  }
  sim_.schedule_at(std::max(fresh.ready_at(), sim_.now()),
                   [this, failed_id, new_id, started] {
                     switch_over(failed_id, new_id, started);
                   });
  return fresh;
}

void core_engine::replay_flow(attachment& att, std::size_t s,
                              const flow_key& key, flow_entry& fl) {
  // The flow keeps its cID; only the NSM half of its mapping moves. The
  // whole journal goes down the flow's own lane at once, cID-addressed, so
  // the replacement ServiceLib rebuilds the socket under the same name and
  // learns the same steering the guest still uses.
  engine_shard& sh = shards_[s];
  sh.by_nsm.erase(nsm_key{fl.nsm, fl.cid});
  fl.nsm = att.module->id();
  sh.by_nsm[nsm_key{fl.nsm, fl.cid}] = key;
  for (const shm::nqe& entry : fl.journal) {
    shm::nqe e = entry;
    e.handle = fl.cid;
    if (const std::uint64_t id = tracer_.maybe_begin(
            e, /*reverse=*/false, att.vm->id(), att.module->id())) {
      tracer_.stamp(id, obs::nqe_stage::failover_replay);
    }
    deliver_to_nsm(att, s, e);
  }
}

void core_engine::destroy_nsm(nsm_id id) {
  metrics_.unregister_prefix("nsm" + std::to_string(id) + "_");
  if (auto sit = services_.find(id); sit != services_.end()) {
    const service_lib_stats& st = sit->second->stats();
    gone_services_.nqes_deferred += st.nqes_deferred;
    gone_services_.nqes_dropped += st.nqes_dropped;
    gone_services_.stale_nqes += st.stale_nqes;
    gone_services_.chunk_key_mismatch += st.chunk_key_mismatch;
    services_.erase(sit);
  }
  auto nit = std::find_if(nsms_.begin(), nsms_.end(),
                          [id](const auto& m) { return m->id() == id; });
  if (nit == nsms_.end()) return;
  // Queued core work would call into the stack and ServiceLib; fail() stopped
  // new work at least the replacement's boot time (>= 1 ms) ago.
  assert(std::ranges::all_of((*nit)->cores(), [](const sim::cpu_core* c) {
    return c->backlog() == sim_time::zero();
  }));
  nsms_.erase(nit);
}

void core_engine::switch_over(nsm_id old_id, nsm_id new_id, sim_time started) {
  nsm* fresh = nsm_by_id(new_id);
  service_lib* next = service_of(new_id);
  if (fresh == nullptr || next == nullptr) return;

  std::uint64_t recovered = 0;
  std::uint64_t aborted = 0;
  for (auto& [vm, att] : attachments_) {
    if (att.module->id() != old_id) continue;

    // New incarnation: bump the epoch so anything still stamped with the
    // old one — staged jobs here, queued jobs on the NSM side, undrained
    // outputs — is discarded with accounting instead of being misapplied.
    ++att.epoch;
    for (std::size_t s = 0; s < att.lanes.size(); ++s) {
      std::uint64_t& stale = shards_[s].stats.stale_nqes;
      att.lanes[s].stage->to_nsm.scrub(
          [&](const shm::nqe& e) { discard(att, s, e, stale); });
      // Purge the job ring too: everything in it was addressed to the dead
      // incarnation, and replayed control ops must not queue behind a ring
      // full of doomed work (a slow drain there would delay the recovered
      // listener by whole seconds).
      shm::nqe queued;
      while (att.ch->nsm_q(s).job.try_pop(queued)) {
        discard(att, s, queued, stale);
      }
    }
    att.module = fresh;
    att.ch->nsm = new_id;
    next->attach_channel(*att.ch, att.epoch);
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
        if (!fl.journal.empty()) {
          replay_flow(att, sh.index, key, fl);
          ++recovered;
        } else {
          doomed.push_back(key.fd);
        }
      }
      for (const std::uint32_t fd : doomed) {
        auto bit = sh.by_flow.find(flow_key{vm, fd});
        if (bit == sh.by_flow.end()) continue;
        sh.by_nsm.erase(nsm_key{old_id, bit->second.cid});
        sh.by_flow.erase(bit);
        remember_torn_down(att, sh.index, flow_key{vm, fd});
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

  destroy_nsm(old_id);

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
