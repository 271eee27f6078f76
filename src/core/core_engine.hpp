// NetKernel CoreEngine: the hypervisor daemon at the center of Figure 3.
//
// Responsibilities (paper §3.1-3.2):
//   * NSM lifecycle — creates NSMs and attaches tenant VMs to them when
//     they boot (including many-VMs-to-one-NSM multiplexing and
//     scale-out across several NSMs);
//   * shuttles nqes between the VM-side and NSM-side queue sets, charging
//     ~12 ns per copied event to its own core;
//   * maintains the connection mapping table <VM ID, fd> <-> <NSM ID, cID>
//     and rewrites identifiers as nqes cross the boundary;
//   * names what the other side lacks: the cID of every socket the guest
//     creates (at req_socket, so every later op goes down at once) and the
//     fd of every connection the NSM accepts.
//
// Multi-queue scaling (arXiv full version; DESIGN.md §13): the engine runs
// as N independent shards, NIC-RSS style. Each shard owns a partition of
// the connection-mapping table, its own cpu_core, its own per-channel ring
// lane, its own overflow stages and its own accounting — so no lock or
// shared mutable structure sits on the nqe hot path. Each shard runs one
// drain loop over every attachment, and every doorbell wakes that loop.
// A flow's home shard is picked by a splitmix64 steering hash
// (shm/steering.hpp) over <VM, fd> for guest-created sockets and over
// <NSM, cID> for accepted children; every producer pushes a flow's nqes to
// its home lane, so both directions of one flow live entirely inside one
// shard. The ids the engine mints name their shard too (cID mod N,
// accepted fd offset mod N), so any id leads to one partition. shards = 1
// (the default) degenerates to the paper's single-loop engine.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "common/token_bucket.hpp"
#include "common/units.hpp"
#include "core/channel.hpp"
#include "core/costs.hpp"
#include "core/guest_lib.hpp"
#include "core/notification.hpp"
#include "core/nsm.hpp"
#include "core/service_lib.hpp"
#include "core/sla.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/flow_info.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "shm/staged_lane.hpp"
#include "shm/steering.hpp"
#include "virt/hypervisor.hpp"

namespace nk::core {

// Admission firewall + per-VM abuse policy (DESIGN.md §14). The rings and
// huge pages are guest-writable, so nothing a VM queue yields is trusted:
// every popped nqe is validated before dispatch, and validation failures
// feed a per-VM token-bucket violation budget that escalates
// warn -> throttle -> quarantine.
struct firewall_config {
  // Violation budget: refill rate (violations/sec) and burst depth. While
  // the bucket has tokens a violation only costs a token (warn); once it
  // runs dry the VM is throttled, and `quarantine_threshold` further
  // violations while throttled quarantine it.
  double violations_per_sec = 100.0;
  std::uint64_t violation_burst = 64;
  std::uint64_t quarantine_threshold = 256;
};

struct core_engine_config {
  netkernel_costs costs{};
  notify_config notification{};  // used for every pump in the system
  channel_config channel{};
  obs::trace_config trace{};  // nqe lifecycle tracing (off by default)
  guest_lib_config guest{};   // applied to every attached VM's GuestLib
  // Backpressure: staged nqes per direction per VM before the engine stops
  // accepting new work from the upstream ring, and the hard cap beyond
  // which droppable (pure-data) nqes are discarded with accounting.
  std::size_t overflow_limit = 1024;
  // Engine shards (multi-queue CoreEngine). Each shard allocates its own
  // core from the host pool.
  std::size_t shards = 1;
  // Hostile-tenant hardening at the guest/provider boundary.
  firewall_config firewall{};
};

struct core_engine_stats {
  std::uint64_t nqes_forwarded = 0;       // both directions
  std::uint64_t accept_fds_minted = 0;
  std::uint64_t mappings_installed = 0;
  std::uint64_t mappings_removed = 0;
  std::uint64_t unroutable_nqes = 0;
  std::uint64_t nqes_deferred = 0;  // staged on a full ring, delivered later
  std::uint64_t nqes_dropped = 0;   // discarded at the cap (chunks recycled)
  std::uint64_t stale_nqes = 0;     // discarded: from a retired incarnation
  std::uint64_t rejected_nqes = 0;  // refused by the admission firewall
};

// Why the admission firewall refused an nqe (indexes the per-shard and the
// engine_nqes_rejected_{badop,badfd,badchunk,badepoch} counters).
enum class reject_reason : std::uint8_t {
  badop = 0,     // role violation: a guest may only emit req_* opcodes
  badfd = 1,     // handle maps to no fd this VM owns (or forges one it can't)
  badchunk = 2,  // desc fails pool-key/bounds/length checks, or is misplaced
  badepoch = 3,  // epoch, owner or correlation-token forgery
};

[[nodiscard]] constexpr std::string_view to_string(reject_reason r) {
  switch (r) {
    case reject_reason::badop: return "badop";
    case reject_reason::badfd: return "badfd";
    case reject_reason::badchunk: return "badchunk";
    case reject_reason::badepoch: return "badepoch";
  }
  return "unknown";
}

// Escalation ladder for a VM's violation record (DESIGN.md §14). ok/warn
// are full service; throttled caps the VM's job-drain rate per shard;
// quarantined detaches it.
enum class abuse_level : std::uint8_t {
  ok = 0,
  warn = 1,
  throttled = 2,
  quarantined = 3,
};

// One quarantine decision, appended to core_engine::quarantine_log().
// health_monitor turns new entries into vm_quarantined alerts with a
// flight-recorder snapshot.
struct quarantine_record {
  virt::vm_id vm = 0;
  nsm_id module = 0;
  sim_time at{};
  std::string reason;
  std::uint64_t violations = 0;  // lifetime violations at quarantine time
  bool readmitted = false;       // cleared via readmit_vm()
};

class guest_lib;

class core_engine {
 public:
  core_engine(virt::hypervisor& host, const core_engine_config& cfg = {});
  ~core_engine();

  core_engine(const core_engine&) = delete;
  core_engine& operator=(const core_engine&) = delete;

  // --- lifecycle -------------------------------------------------------------

  // Boots an NSM (allocating its cores from the host pool).
  nsm& create_nsm(const nsm_config& cfg);

  // Attaches a VM to an NSM: allocates the shared-memory channel, adds it to
  // the shards' drain loops, and returns the VM's GuestLib endpoint.
  // Several VMs may attach to the same NSM (multiplexing, §2.1). The VM
  // owns GuestLib and the channel (virt::machine::set_guest_half).
  guest_lib& attach_vm(virt::machine& vm, nsm& module);

  // Reverse of attach_vm: leaves the drain loops, removes both directions
  // of the mapping table (each flow scrubbed from exactly its owning shard),
  // recycles every chunk still referenced by rings or staging lists,
  // unregisters the VM's gauges and forgets the attachment (its counters
  // join the running totals). GuestLib and the channel stay with the VM.
  void detach_vm(virt::vm_id vm);

  // --- fault domains (NSM replacement) ----------------------------------------
  //
  // The provider replaces an NSM in place (paper §2.2: the provider owns
  // the stack, so upgrades and crash recovery never involve the tenant).
  // A replacement module boots immediately; the switchover happens when it
  // is ready. Listening and datagram sockets are re-created on the new
  // module from the engine's control-plane journal; established and
  // connecting TCP sockets died with the old stack and are aborted toward
  // the guest with errc::nsm_reset. In-flight nqes stamped with the old
  // incarnation's epoch are discarded with accounting on both sides.
  // Steering is stable across failover: the epoch bump and each flow's
  // journal replay happen within the flow's owning shard, and a replayed
  // flow keeps its cID. The old module is failed now if it is not already,
  // and destroyed at the switchover (its counters join the running totals).
  nsm& replace_nsm(nsm_id failed_id, const nsm_config& cfg);

  // --- abuse quarantine (hostile-tenant hardening, DESIGN.md §14) -------------
  //
  // Forcibly detaches a VM that exhausted its violation budget (or that an
  // operator condemns): its stat page freezes, its flows are aborted toward
  // the guest with errc::nsm_reset-style errors, every chunk it still
  // references is recycled through the detach_vm scrub path, a
  // quarantine_record is appended, and `vms_quarantined` increments.
  // Until readmit_vm() clears it, a re-attach comes up quarantined:
  // attached but with its job lanes refused.
  void quarantine_vm(virt::vm_id vm, std::string reason = "operator request");

  // Clears every active quarantine of `vm` (the one way out). If the VM is
  // attached its abuse level resets to ok with a full violation budget.
  // Returns false when no active quarantine existed.
  bool readmit_vm(virt::vm_id vm);

  // True while the VM has an active (not readmitted) quarantine record.
  [[nodiscard]] bool quarantined(virt::vm_id vm) const;

  [[nodiscard]] const std::vector<quarantine_record>& quarantine_log() const {
    return quarantine_log_;
  }

  // Current escalation level (abuse_level::ok for unknown/detached VMs).
  [[nodiscard]] abuse_level abuse_level_of(virt::vm_id vm) const;

  [[nodiscard]] nsm* nsm_by_id(nsm_id id);
  [[nodiscard]] service_lib* service_of(nsm_id id);
  [[nodiscard]] guest_lib* guestlib_of(virt::vm_id vm);
  [[nodiscard]] channel* channel_of(virt::vm_id vm);
  [[nodiscard]] const std::vector<std::unique_ptr<nsm>>& nsms() const {
    return nsms_;
  }
  [[nodiscard]] std::vector<virt::vm_id> attached_vms() const;

  [[nodiscard]] sim::simulator& simulator() { return sim_; }
  [[nodiscard]] sla_manager& sla() { return sla_; }
  [[nodiscard]] obs::metrics_registry& metrics() { return metrics_; }
  [[nodiscard]] const obs::metrics_registry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] obs::nqe_tracer& tracer() { return tracer_; }
  [[nodiscard]] const obs::nqe_tracer& tracer() const { return tracer_; }
  [[nodiscard]] obs::flight_recorder& recorder() { return recorder_; }
  [[nodiscard]] const obs::flight_recorder& recorder() const {
    return recorder_;
  }
  // Metric history ring; engine stats are pre-tracked. Sampling starts only
  // when a caller runs series().start() (see obs::timeseries::start).
  [[nodiscard]] obs::timeseries& series() { return series_; }
  [[nodiscard]] const obs::timeseries& series() const { return series_; }
  // Aggregate over every shard (by value: the partitions are summed on
  // demand so the hot path never writes a shared struct).
  [[nodiscard]] core_engine_stats stats() const;
  // Drains run by the shard pumps and by every GuestLib and ServiceLib this
  // engine has served, detached and destroyed ones included.
  [[nodiscard]] pump_mix event_mix() const;
  [[nodiscard]] const core_engine_config& config() const { return cfg_; }

  // On-demand stat-page refresh budget per VM (req_stat_refresh, DESIGN.md
  // §16). A refresh is cheap but not free (one flow-table walk + page
  // publish), so floods beyond this budget are rejected as badop violations
  // and feed the same escalation ladder as any other firewall hit.
  static constexpr double stat_refresh_per_sec = 10000.0;
  static constexpr std::uint64_t stat_refresh_burst = 32;

  // --- sharding ---------------------------------------------------------------

  [[nodiscard]] std::size_t shards() const { return shards_.size(); }
  // Per-shard accounting partition (for per-shard invariant checks).
  [[nodiscard]] const core_engine_stats& shard_stats(std::size_t s) const {
    return shards_[s].stats;
  }
  // Live traces this shard retired via tracer drop() — the shard-local
  // slice of the global nqe_traces_dropped counter. Discards whose nqe
  // carried no live trace (hostile injections arrive with reserved=0, and
  // nqes begun with tracing off or the active set full) land in
  // shard_discards_untraced(s) instead, so the per-shard invariant is exact
  // whether tracing is on or off:
  //   unroutable + dropped + stale + rejected
  //     == shard_traces_dropped(s) + shard_discards_untraced(s).
  [[nodiscard]] std::uint64_t shard_traces_dropped(std::size_t s) const {
    return shards_[s].traces_dropped;
  }
  [[nodiscard]] std::uint64_t shard_discards_untraced(std::size_t s) const {
    return shards_[s].discards_untraced;
  }
  // Firewall rejections by reason, this shard's slice (indexed by
  // reject_reason).
  [[nodiscard]] const std::array<std::uint64_t, 4>& shard_rejected_reasons(
      std::size_t s) const {
    return shards_[s].rejected_reason;
  }
  [[nodiscard]] sim::cpu_core* shard_core(std::size_t s) {
    return shards_[s].core;
  }
  // The shard homing <vm, fd>, or nullopt if the flow is unknown. Flows
  // never move, so the home is a pure function of the identity:
  // (fd - 0x80000000) mod N for accepted children (each shard mints every
  // N-th fd above 0x80000000), else shm::flow_shard(vm, fd). Only that one
  // partition is consulted.
  [[nodiscard]] std::optional<std::size_t> shard_of(virt::vm_id vm,
                                                    std::uint32_t fd) const;

  // --- introspection (paper §5: provider-wide flow visibility) ----------------

  // One row per TCP connection across every live NSM: ServiceLib's per-NSM
  // flow tables (<NSM, cID>) joined with the connection-mapping table, so
  // each row is addressed the way the tenant sees it: <VM ID, fd>. Rows
  // whose fd the guest already closed (the stack still drains its bytes)
  // are skipped.
  // Sorted by (vm, fd) for deterministic output.
  struct flow_row {
    virt::vm_id vm = 0;
    std::uint32_t fd = 0;
    nsm_id nsm = 0;
    std::uint32_t cid = 0;
    net::socket_addr remote{};  // guest-chosen peer address
    obs::nk_flow_info info;
  };
  [[nodiscard]] std::vector<flow_row> flow_table();

  // --- tenant-facing stat pages (DESIGN.md §16) -------------------------------
  //
  // Publishes every attachment's guest-visible stat page now (one redacted
  // flow-table sample per served NSM). Runs automatically on the timeseries
  // cadence and on req_stat_refresh; public so control-plane callers
  // (benches, examples) can force a fresh snapshot at a known sim time.
  void publish_stat_pages();

  // The connection-mapping table's view of one guest socket: <NSM ID, cID>,
  // or nullopt when the fd has no mapping. A created socket is mapped from
  // the moment the engine forwards its req_socket.
  // Lets tests and the introspection ablation cross-check flow_table()
  // against the table it joins.
  [[nodiscard]] std::optional<std::pair<nsm_id, std::uint32_t>> mapping_of(
      virt::vm_id vm, std::uint32_t fd) const;

  // --- used by GuestLib and ServiceLib -----------------------------------------

  // Doorbell for shard `shard`'s drain loop (no-op under polling): a VM
  // pushed a job, ServiceLib pushed an output, or a VM popped from its
  // completion/receive lane so staged NSM->VM nqes may now fit. One wakeup
  // drains every attachment in both directions.
  void notify(std::size_t shard = 0);

 private:
  struct flow_key {
    virt::vm_id vm;
    std::uint32_t fd;
    friend bool operator==(const flow_key&, const flow_key&) = default;
  };
  // splitmix64 finalizer, not std::hash: libstdc++'s std::hash<uint64_t> is
  // the identity, which would collapse low-entropy <VM, fd> keys onto a
  // handful of buckets (and, via the steering function, shards).
  struct flow_key_hash {
    std::size_t operator()(const flow_key& k) const {
      return static_cast<std::size_t>(
          mix64((std::uint64_t{k.vm} << 32) | k.fd));
    }
  };
  struct nsm_key {
    nsm_id id;
    std::uint32_t cid;
    friend bool operator==(const nsm_key&, const nsm_key&) = default;
  };
  struct nsm_key_hash {
    std::size_t operator()(const nsm_key& k) const {
      return static_cast<std::size_t>(
          mix64((std::uint64_t{k.id} << 32) | k.cid));
    }
  };
  struct flow_entry {
    nsm_id nsm = 0;
    std::uint32_t cid = 0;
    // Control-plane journal: the socket's setup ops as the guest submitted
    // them (fd-addressed, pre-translation), starting with its req_socket or
    // req_udp_open. Replaying it into a replacement NSM reconstructs
    // listeners, datagram bindings and unconnected sockets. A req_connect
    // empties it for good, as accepted children start empty: connection
    // state dies with the module, so failover aborts a flow with no journal.
    std::vector<shm::nqe> journal;
  };
  // The engine's staged lanes of one shard (DESIGN.md §8). Heap-allocated:
  // gauges hold their address before the attachment moves into the map.
  struct lane_stages {
    lane_stages(channel& ch, std::size_t s)
        : to_nsm{ch.nsm_q(s).job},
          completion{ch.vm_q(s).completion},
          receive{ch.vm_q(s).receive} {}
    shm::staged_lane to_nsm;      // VM -> NSM
    shm::staged_lane completion;  // NSM -> VM
    shm::staged_lane receive;     // NSM -> VM
    [[nodiscard]] std::size_t to_vm_depth() const {
      return completion.size() + receive.size();
    }
  };

  // One engine shard: a partition of the mapping table, the core its drain
  // loop charges, and its private accounting. Only control-plane code
  // (introspection joins, detach, failover) ever looks across shards.
  struct engine_shard {
    std::size_t index = 0;
    sim::cpu_core* core = nullptr;  // never null once constructed
    // Drains every attachment, in `attachments_` order, while any exists.
    std::unique_ptr<queue_pump> pump;
    std::unordered_map<flow_key, flow_entry, flow_key_hash> by_flow;
    std::unordered_map<nsm_key, flow_key, nsm_key_hash> by_nsm;
    // Next cID for a socket created on this shard: index + N·k, k >= 1,
    // below service_lib::child_cid_base (see mint_id).
    std::uint32_t next_cid = 0;
    // Flows the engine tore down with an ev_error (a stack error or a
    // failover abort), kept until the guest's req_close or detach: a
    // request the guest issued before it saw the error still names the fd,
    // and that race is benign, not a forged fd. At most
    // torn_down_per_lane per VM (lane::torn_down counts them).
    std::unordered_set<flow_key, flow_key_hash> torn_down;
    core_engine_stats stats;
    std::uint64_t traces_dropped = 0;  // live traces this shard retired
    // Discards whose nqe carried no live trace (forged nqes, untraced
    // ones) — the other half of the drop-accounting invariant.
    std::uint64_t discards_untraced = 0;
    // Firewall rejections by reject_reason (badop/badfd/badchunk/badepoch).
    std::array<std::uint64_t, 4> rejected_reason{};
    // NSM-side outputs whose desc named a foreign pool key.
    std::uint64_t chunk_key_mismatch = 0;
  };

  // Per-attachment, per-shard plumbing: the staged lanes the shard's drain
  // loop re-drains for this VM. fds for accepted connections are minted
  // from a shard-local interleaved sequence so no shared counter sits on
  // the accept path.
  struct lane {
    std::unique_ptr<lane_stages> stage;
    std::uint32_t next_accept_fd = 0;  // set per shard at attach
    std::size_t torn_down = 0;  // this VM's entries in the shard's torn_down
  };

  // Per-VM abuse record (heap-allocated, like the overflow stages: the
  // metrics gauges capture its address before attach_vm moves the
  // attachment into `attachments_`).
  struct abuse_state {
    abuse_state(token_bucket b, token_bucket refresh)
        : budget{std::move(b)}, stat_refresh{std::move(refresh)} {}
    token_bucket budget;        // violation budget (tokens = violations)
    token_bucket stat_refresh;  // req_stat_refresh flood budget
    abuse_level level = abuse_level::ok;
    std::uint64_t rejected = 0;    // firewall rejections charged to this VM
    std::uint64_t violations = 0;  // lifetime violations
    // Violations while already throttled; crossing quarantine_threshold
    // escalates to quarantine.
    std::uint64_t throttled_violations = 0;
    sim_time next_drain = sim_time::zero();  // throttled: next allowed drain
  };

  // attach_vm sets every pointer member; none is ever null afterwards.
  // `glib` (which owns `ch`) belongs to the VM.
  struct attachment {
    virt::machine* vm = nullptr;
    nsm* module = nullptr;
    channel* ch = nullptr;
    guest_lib* glib = nullptr;
    std::vector<lane> lanes;  // one per engine shard
    std::uint8_t epoch = 0;   // NSM incarnation serving this channel
    std::unique_ptr<abuse_state> abuse;
  };

  void drain_vm_jobs(attachment& att, std::size_t s);
  void drain_nsm_queues(attachment& att, std::size_t s);

  // --- admission firewall internals (DESIGN.md §14) ---------------------------
  // Stateless pop-time validation of a guest-emitted nqe: role-appropriate
  // opcode, clean epoch/owner/token, and descriptor pool-key/bounds/length
  // checks before any dereference. fd ownership (badfd) is checked at
  // execute time in forward_to_nsm, after earlier creations in the same
  // batch have installed their mappings. nullopt: admitted.
  [[nodiscard]] std::optional<reject_reason> admit_vm_nqe(
      const attachment& att, const shm::nqe& e) const;
  // Refuses an nqe: counts it (per-shard, per-reason, per-VM), retires its
  // trace, recycles a validly-owned chunk, surfaces ev_error to the guest
  // while the VM is still in good standing, and charges a violation.
  void reject_nqe(attachment& att, std::size_t s, const shm::nqe& e,
                  reject_reason r);
  // Token-bucket escalation: warn while the budget holds, throttle when it
  // runs dry, quarantine after quarantine_threshold throttled violations.
  void record_violation(attachment& att);
  [[nodiscard]] token_bucket make_violation_budget() const {
    return token_bucket{
        data_rate::bits_per_sec(cfg_.firewall.violations_per_sec * 8.0),
        cfg_.firewall.violation_burst};
  }
  [[nodiscard]] static token_bucket make_stat_refresh_budget() {
    return token_bucket{data_rate::bits_per_sec(stat_refresh_per_sec * 8.0),
                        stat_refresh_burst};
  }
  // Writes one redacted snapshot of `att`'s flows into its channel's stat
  // page. `freeze` marks the page terminal (quarantine).
  void publish_stat_page(attachment& att, bool freeze = false);

  void forward_to_nsm(attachment& att, std::size_t s, shm::nqe e);
  void forward_to_vm(attachment& att, std::size_t s, shm::nqe e,
                     bool receive_queue);
  void deliver_to_nsm(attachment& att, std::size_t s, shm::nqe e);

  // Synthesizes an ev_error toward the guest on shard `s`, bypassing the
  // mapping table (the fd may have no live mapping — that is usually why it
  // is called).
  void deliver_error_to_vm(attachment& att, std::size_t s, std::uint32_t fd,
                           errc err);

  // Failover internals. switch_over re-points every attachment of the old
  // module at the new one under a bumped epoch, replays journals, aborts
  // connection state and destroys the old module.
  void switch_over(nsm_id old_id, nsm_id new_id, sim_time started);
  // Folds the ServiceLib's counters into the totals and destroys both.
  void destroy_nsm(nsm_id id);
  void replay_flow(attachment& att, std::size_t s, const flow_key& key,
                   flow_entry& fl);
  // Adds `key` to shard s's torn_down set unless the VM already holds
  // torn_down_per_lane entries there.
  void remember_torn_down(attachment& att, std::size_t s,
                          const flow_key& key);
  // The engine's one discard: bumps `counter` (one of shard `s`'s stats),
  // ends the nqe's trace as a drop and recycles the chunk a data nqe
  // carries. reject_nqe and the pool-key mismatch keep their own rules.
  void discard(attachment& att, std::size_t s, const shm::nqe& e,
               std::uint64_t& counter);

  // Pushes through a staged lane of shard `s` with the engine's accounting
  // (deferred, or dropped: traced and chunk recycled); true: on the ring.
  bool push_staged(attachment& att, std::size_t s, shm::staged_lane& lane,
                   const shm::nqe& e);
  // push_staged toward the VM, counting and doorbelling a delivery.
  void push_to_vm(attachment& att, std::size_t s, shm::staged_lane& lane,
                  const shm::nqe& e);
  // Tracer drop with shard attribution: a retired live trace lands in the
  // shard's slice of nqe_traces_dropped; a discard with no live trace (a
  // forged nqe with reserved=0, or an untraced one) is counted as
  // untraced, so every engine-side discard increments exactly one of the
  // two and the accounting invariant stays exact.
  void drop_trace(engine_shard& sh, std::uint64_t id) {
    if (tracer_.drop(id)) {
      ++sh.traces_dropped;
    } else {
      ++sh.discards_untraced;
    }
  }
  // by_nsm lookup in the cID's home partition (control plane only: the
  // ev_accept listener resolution, flow_table joins, stat pages). An
  // engine-minted cID's home is cid mod N; an accepted child's is
  // shm::nsm_shard(nsm, cid).
  [[nodiscard]] const flow_key* find_by_nsm(nsm_key key) const;

  virt::hypervisor& host_;
  sim::simulator& sim_;
  core_engine_config cfg_;
  obs::metrics_registry metrics_;
  obs::flight_recorder recorder_;
  obs::nqe_tracer tracer_;
  obs::timeseries series_;

  // The shard array is fixed at construction; the drain loops capture shard
  // indices, never pointers into it.
  std::vector<engine_shard> shards_;

  std::vector<std::unique_ptr<nsm>> nsms_;
  std::unordered_map<nsm_id, std::unique_ptr<service_lib>> services_;
  // Ordered by VM id: the order every drain loop visits the attachments.
  std::map<virt::vm_id, attachment> attachments_;
  nsm_id next_nsm_id_ = 1;

  // Running totals of destroyed ServiceLibs and detached GuestLibs and
  // pools: the pipeline-wide sums survive failover and detach.
  service_lib_stats gone_services_;
  guest_lib_stats gone_guests_;
  std::uint64_t gone_bad_frees_ = 0;
  pump_mix gone_pumps_;

  // Append-only quarantine history; health_monitor consumes new entries
  // with a watermark and tests/benches read it for lifecycle assertions.
  std::vector<quarantine_record> quarantine_log_;

  // Stat-page publishes across every attachment (cadence + on-demand).
  std::uint64_t stat_publishes_ = 0;

  sla_manager sla_;
};

}  // namespace nk::core
