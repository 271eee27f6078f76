// ServiceLib: the NSM-resident half of NetKernel (paper §3.1-3.2).
//
// Drains the NSM-side job queue, executes each operation against the NSM's
// network stack through its socket backend, and pushes completions and
// events (new data, new connections — the prototype's
// nk_new_data_callback / nk_new_accept_callback) back through the NSM-side
// completion/receive queues. Payload moves through the per-VM huge-page
// pool; every ServiceLib-side chunk copy and dispatch is charged to the
// NSM's core.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include <vector>

#include "common/buffer.hpp"
#include "core/channel.hpp"
#include "core/costs.hpp"
#include "core/notification.hpp"
#include "core/nsm.hpp"
#include "core/sla.hpp"
#include "obs/trace.hpp"
#include "shm/staged_lane.hpp"

namespace nk::core {

struct service_lib_stats {
  std::uint64_t ops_processed = 0;
  std::uint64_t bytes_to_stack = 0;    // app payload handed to the stack
  std::uint64_t bytes_from_stack = 0;  // app payload copied to huge pages
  std::uint64_t data_events = 0;
  std::uint64_t accept_events = 0;
  std::uint64_t chunk_stalls = 0;      // reads stalled on pool exhaustion
  std::uint64_t queue_stalls = 0;      // reads stalled on queue backpressure
  std::uint64_t nqes_deferred = 0;     // staged on a full out-ring
  std::uint64_t nqes_dropped = 0;      // discarded at the cap (chunks freed)
  std::uint64_t stale_nqes = 0;        // jobs from a retired NSM incarnation
  // Outputs refused because their descriptor named a pool that is not the
  // destination channel's (pool-key isolation, DESIGN.md §14).
  std::uint64_t chunk_key_mismatch = 0;
  // Tenant-quota backpressure (sla_spec cycle budget and chunk quota). Jobs
  // wait in the rings and reads wait in the stack's receive buffer — never
  // silent loss, so the accounting invariant is untouched by throttling.
  std::uint64_t quota_stalls = 0;        // reads stalled on cycle exhaustion
  std::uint64_t chunk_quota_stalls = 0;  // reads stalled at the chunk cap
};

class service_lib {
 public:
  service_lib(nsm& owner, sim::simulator& s, const netkernel_costs& costs,
              const notify_config& ncfg, obs::nqe_tracer* tracer,
              std::size_t overflow_limit, sla_manager& sla);

  service_lib(const service_lib&) = delete;
  service_lib& operator=(const service_lib&) = delete;

  // CoreEngine wires one channel per served VM. `notify_ce` is the doorbell
  // toward CoreEngine's NSM->VM pump for one shard lane (the engine runs one
  // pump per shard). `epoch` is the NSM-incarnation tag of this attachment:
  // outputs carry it, and jobs stamped with a different epoch (left over
  // from a dead predecessor) are discarded with accounting.
  void attach_channel(channel& ch, std::function<void(std::size_t)> notify_ce,
                      std::uint8_t epoch = 0);

  // Reverse of attach_channel: frees staged chunks, closes the VM's sockets
  // on the stack, and forgets the channel (detach_vm / teardown path).
  void detach_channel(virt::vm_id vm);

  // Begins polling/serving (installs the stack event handler).
  void start();

  // Producer doorbell from CoreEngine (batched-interrupt mode).
  void notify() { pump_->notify(); }

  // Failure injection: the NSM crashes. Serving stops and every stack-side
  // socket dies with the module. A crashed stack says no goodbyes — tenants
  // learn through the provider's failure detection (core/monitor.hpp) and
  // the CoreEngine failover machinery, not from the dead module. Staged
  // out-nqes are recycled here (their chunks would otherwise leak).
  void fail();
  [[nodiscard]] bool failed() const { return failed_; }

  // Fault injection: the NSM hangs (pump wedged, failed_ not set). The
  // watchdog must detect this via missed heartbeats, not the failed flag.
  void freeze() { pump_->stop(); }

  // Simulated time of the last drain-loop heartbeat. A live module under
  // polling notification beats every poll interval; a dead or frozen one
  // stops beating, which is the watchdog's unresponsiveness signal.
  [[nodiscard]] sim_time last_heartbeat() const { return last_heartbeat_; }

  // True when nothing is in flight on this module: no staged out-nqes, no
  // queued jobs or undrained outputs in any served channel, no partially
  // delivered sends. A planned live update waits for this before switching.
  [[nodiscard]] bool quiescent() const;

  [[nodiscard]] const service_lib_stats& stats() const { return stats_; }
  [[nodiscard]] nsm& module() { return nsm_; }

  // Staged (overflowed) completion/receive nqes held for one served VM —
  // nonzero means the NSM-side out-rings filled faster than CoreEngine
  // drained them.
  [[nodiscard]] std::size_t staged_depth(virt::vm_id vm) const;

  // Per-NSM flow table (paper §5 introspection): one telemetry snapshot per
  // TCP connection this module serves, keyed by <NSM ID, cID>. Listeners,
  // datagram sockets and not-yet-bound cids are skipped. Sorted by cid for
  // deterministic output.
  struct flow_record {
    std::uint32_t cid = 0;
    virt::vm_id vm = 0;
    net::socket_addr remote{};  // guest-chosen peer (tenant-safe identity)
    obs::nk_flow_info info;
  };
  [[nodiscard]] std::vector<flow_record> flow_table();

  // Re-homes a cid onto `shard` (engine rebalance at a quiescent point).
  // Unknown cids are ignored.
  void set_flow_shard(std::uint32_t cid, std::size_t shard);

 private:
  // The staged lanes in front of one shard's NSM-side out-rings: flushed,
  // in order, before any new push to that lane.
  struct out_stages {
    out_stages(channel& ch, std::size_t s)
        : completion{ch.nsm_q(s).completion}, receive{ch.nsm_q(s).receive} {}
    shm::staged_lane completion;
    shm::staged_lane receive;
    [[nodiscard]] std::size_t size() const {
      return completion.size() + receive.size();
    }
  };

  struct served_vm {
    channel* ch = nullptr;
    std::function<void(std::size_t)> notify_ce;
    std::uint8_t epoch = 0;  // incarnation tag stamped on every output
    std::unordered_set<std::uint32_t> stalled_reads;  // cids awaiting chunks
    std::vector<out_stages> lanes;  // one per engine shard (ch->shards())
    sla_manager::tenant* tenant = nullptr;  // the VM's policy and meters
    bool quota_wake_armed = false;  // period-end re-drain timer pending
  };

  struct pending_tx {
    buffer data;                 // unsent remainder
    std::uint64_t token = 0;     // GuestLib correlation
    std::uint64_t original = 0;  // size as submitted (credit release amount)
    std::uint64_t trace = 0;     // lifecycle trace id (0: untraced)
  };

  struct proto_socket {
    std::uint32_t cid = 0;
    virt::vm_id vm = 0;
    std::uint16_t bound_port = 0;
    tcp::tcp_config cfg{};
    stack::socket_id ssock = 0;  // 0 until listen/connect/udp_open binds it
    bool listener = false;
    bool udp = false;
    std::deque<pending_tx> pending_send;
    bool sla_retry_armed = false;
    bool holds_slot = false;  // counted against the VM's connection quota
    // Guest closed while sends were still parked in pending_send: finish
    // delivering them, then close (a req_close must never outrun the
    // req_sends queued ahead of it and drop their bytes).
    bool close_pending = false;
    // Home engine shard: learned from the job-ring lane the creating request
    // arrived on; accepted children are steered by shm::nsm_shard. All of
    // this socket's outputs go out the home lane.
    std::size_t shard = 0;
  };

  // Job-queue drain (the pump's callback).
  std::size_t drain_jobs();
  // `shard` is the job-ring lane the nqe arrived on — the flow's home shard.
  void handle_nqe(served_vm& svm, std::size_t shard, const shm::nqe& e);
  // Discards a job from a retired incarnation: chunk freed, drop traced.
  void discard_stale(served_vm& svm, const shm::nqe& e);
  // Empties `svm`'s staged lanes, counting, tracing and freeing each drop.
  void discard_staged(served_vm& svm);

  // Stack event plumbing.
  void handle_stack_event(const stack::socket_event& ev);
  void pump_reads(proto_socket& ps);
  void pump_udp_reads(proto_socket& ps);
  void try_deliver_sends(proto_socket& ps);

  // Queue push helpers. Fallible by contract: true means the nqe was
  // delivered or staged for in-order retry; false means it was discarded
  // (overflow cap hit), its chunk recycled and the drop counted. `shard`
  // picks the out-ring lane (the flow's home shard).
  bool push_completion(served_vm& svm, std::size_t shard, shm::nqe e);
  bool push_receive(served_vm& svm, std::size_t shard, shm::nqe e);
  bool push_out(served_vm& svm, std::size_t shard, shm::nqe e, bool receive);

  // Overflow plumbing: re-drain staged nqes into the rings, resume reads
  // stalled on chunk or queue pressure once it clears.
  std::size_t flush_staged(served_vm& svm);
  void maybe_resume_stalled(served_vm& svm);
  // One-shot drain_jobs after max(core backlog, 1 us): the wakeup for jobs
  // left in the rings and for reads stalled on chunks, which no doorbell
  // announces (GuestLib frees chunks in place).
  void arm_redrain();
  [[nodiscard]] bool out_backlogged(const served_vm& svm,
                                    std::size_t shard) const {
    return svm.lanes[shard].size() >= overflow_limit_;
  }
  // True when this lane's receive path is backed up (stage nonempty or ring
  // full) — the per-lane read-stall condition.
  [[nodiscard]] bool receive_pressured(const served_vm& svm,
                                       std::size_t shard) const {
    return !svm.lanes[shard].receive.empty() ||
           svm.ch->nsm_q(shard).receive.space_approx() == 0;
  }

  // Quota plumbing over sla_manager: charges `cost` against the VM's cycle
  // budget and, on the rising edge, arms a period-end wakeup so throttled
  // work resumes by itself.
  void charge_cycles(served_vm& svm, sim_time cost);
  [[nodiscard]] bool chunk_quota_hit(served_vm& svm);
  [[nodiscard]] bool cycle_budget_exhausted(served_vm& svm) {
    return sla_.cycle_budget_exhausted(*svm.tenant, sim_.now());
  }

  [[nodiscard]] proto_socket* socket_by_cid(std::uint32_t cid);
  [[nodiscard]] proto_socket* socket_by_ssock(stack::socket_id s);
  void drop_socket(std::uint32_t cid);
  // Returns the socket's connection-quota slot, if it holds one. The only
  // release point: reached from drop_socket and from fail().
  void release_slot(proto_socket& ps);
  [[nodiscard]] sim_time op_cost() const;

  nsm& nsm_;
  sim::simulator& sim_;
  netkernel_costs costs_;
  std::size_t overflow_limit_;
  sla_manager& sla_;
  obs::nqe_tracer* tracer_ = nullptr;
  std::unique_ptr<queue_pump> pump_;

  bool redrain_pending_ = false;
  bool failed_ = false;
  sim_time last_heartbeat_{};
  std::unordered_map<virt::vm_id, served_vm> vms_;
  std::unordered_map<std::uint32_t, proto_socket> sockets_;
  std::unordered_map<stack::socket_id, std::uint32_t> by_ssock_;
  std::uint32_t next_cid_ = 1;

  service_lib_stats stats_;
};

}  // namespace nk::core
