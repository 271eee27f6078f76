// ServiceLib: the NSM-resident half of NetKernel (paper §3.1-3.2).
//
// Drains the NSM-side job queue, executes each operation against the NSM's
// network stack through its socket backend, and pushes completions and
// events (new data, new connections — the prototype's
// nk_new_data_callback / nk_new_accept_callback) back through the NSM-side
// completion/receive queues. Payload moves through the per-VM huge-page
// pool. Transmit is zero-copy: the stack sends straight from the tenant's
// chunk, which stays pinned until the peer acknowledges its bytes. Receive
// copies into a fresh chunk; that copy and every dispatch are charged to
// the NSM's core.
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
  // Inbound datagrams larger than a chunk, discarded (a sender outside
  // NetKernel is not held to the chunk size).
  std::uint64_t oversize_datagrams = 0;
  // Tenant-quota backpressure (sla_spec cycle budget and chunk quota). Jobs
  // wait in the rings and reads wait in the stack's receive buffer — never
  // silent loss, so the accounting invariant is untouched by throttling.
  std::uint64_t quota_stalls = 0;        // reads stalled on cycle exhaustion
  std::uint64_t chunk_quota_stalls = 0;  // reads stalled at the chunk cap
};

class service_lib {
 public:
  // `notify_engine` is CoreEngine's doorbell: ServiceLib rings it with the
  // shard whose NSM-side out-ring it pushed to.
  service_lib(nsm& owner, sim::simulator& s, const netkernel_costs& costs,
              const notify_config& ncfg, obs::nqe_tracer& tracer,
              std::size_t overflow_limit, sla_manager& sla,
              std::function<void(std::size_t)> notify_engine);
  // Cancels pending rate-cap retries; the NSM core must be idle.
  ~service_lib();

  service_lib(const service_lib&) = delete;
  service_lib& operator=(const service_lib&) = delete;

  // CoreEngine wires one channel per served VM. `epoch` is the
  // NSM-incarnation tag of this attachment: outputs carry it, and jobs
  // stamped with a different epoch (left over from a dead predecessor) are
  // discarded with accounting.
  void attach_channel(channel& ch, std::uint8_t epoch = 0);

  // Reverse of attach_channel: frees staged and pinned chunks, closes the
  // VM's sockets on the stack (aborting those that still hold pins), and
  // forgets the channel (detach_vm / teardown path).
  void detach_channel(virt::vm_id vm);

  // Begins polling/serving (installs the stack event handler).
  void start();

  // Producer doorbell from CoreEngine (batched-interrupt mode).
  void notify() { pump_->notify(); }

  // Failure injection: the NSM crashes. Serving stops and every stack-side
  // socket dies with the module. A crashed stack says no goodbyes — tenants
  // learn through the provider's failure detection (core/monitor.hpp) and
  // the CoreEngine failover machinery, not from the dead module. Staged
  // out-nqes and pinned transmit chunks are recycled here (they would
  // otherwise leak), with no cmp_send.
  void fail();
  [[nodiscard]] bool failed() const { return failed_; }

  // Fault injection: the NSM hangs (pump wedged, failed_ not set): no drain
  // runs again, timed or rung. The watchdog must detect this via missed
  // heartbeats, not the failed flag.
  void freeze() { pump_->stop(); }

  // Simulated time of the last drain-loop heartbeat: the pump's last drain.
  // A live module under polling notification beats every poll interval; a
  // dead or frozen one stops beating, which is the watchdog's
  // unresponsiveness signal.
  [[nodiscard]] sim_time last_heartbeat() const { return pump_->last_drain(); }
  [[nodiscard]] const pump_mix& event_mix() const { return pump_->mix(); }

  // cIDs at or above this name accepted children, minted here; CoreEngine
  // mints the cIDs of guest-created sockets below it and a req_socket or
  // req_udp_open carries its cID in `handle`.
  static constexpr std::uint32_t child_cid_base = 0x80000000;

  [[nodiscard]] const service_lib_stats& stats() const { return stats_; }

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
    std::uint8_t epoch = 0;  // incarnation tag stamped on every output
    std::unordered_set<std::uint32_t> stalled_reads;  // cids awaiting chunks
    std::vector<out_stages> lanes;  // one per engine shard (ch->shards())
    sla_manager::tenant* tenant = nullptr;  // the VM's policy and meters
  };

  // One req_send's chunk. The stack transmits from it (`unsent` is the
  // NIC's DMA view of the bytes it has not taken yet), so it stays pinned
  // until the peer acknowledges its last byte; then it goes back to the
  // pool. Its credit is owed to the guest once the stack has transmitted
  // its last byte, or on the ACK when crediting it earlier would let the
  // pinned bytes outgrow the send buffer.
  struct tx_pin {
    shm::chunk_ref chunk{};
    std::uint64_t end = 0;    // stream offset one past the chunk's last byte
    std::uint32_t len = 0;    // payload bytes (the credit it returns)
    std::uint64_t trace = 0;  // lifecycle trace id (0: untraced)
    buffer unsent;
  };

  struct proto_socket {
    std::uint32_t cid = 0;
    virt::vm_id vm = 0;
    std::uint16_t bound_port = 0;
    tcp::tcp_config cfg{};
    stack::socket_id ssock = 0;  // 0 until listen/connect/udp_open binds it
    bool listener = false;
    bool udp = false;
    // Pinned chunks, oldest first; the first `credited` of them were
    // credited at transmit time (`credited_bytes` in all), and the last
    // `unsent` still hold bytes the stack has not taken. `queued` is the
    // stream length so far. `owed` is credit not yet sent up in a cmp_send.
    std::deque<tx_pin> tx;
    std::size_t credited = 0;
    std::uint64_t credited_bytes = 0;
    std::size_t unsent = 0;
    std::uint64_t queued = 0;
    std::uint64_t owed = 0;
    sim::timer sla_retry;  // rate-cap resume, pending while armed
    bool holds_slot = false;  // counted against the VM's connection quota
    // A req_shutdown_wr or req_close waits for the bytes of the req_sends
    // queued ahead of it to reach the stack; it must never outrun them.
    bool shutdown_pending = false;
    // req_close seen: the guest fd is gone, so no further output goes up.
    // The stack is closed once `unsent` is 0 (stack_closed); the socket
    // then lingers only until its last pinned chunk comes home.
    bool guest_closed = false;
    bool stack_closed = false;
    // Home engine shard: learned from the job-ring lane the creating request
    // arrived on; accepted children are steered by shm::nsm_shard. All of
    // this socket's outputs go out the home lane.
    std::size_t shard = 0;
  };

  // The pump's callback, on every poll tick and doorbell: flushes staged
  // outputs, resumes stalled reads, and starts the job chain unless it runs.
  void drain_jobs();
  // One step of the job chain: pops one job, round robin over the VMs'
  // job-ring lanes, and bills its dispatch; the dispatch's completion runs
  // the job and then the next step. The chain ends when no lane yields a
  // job (empty rings, or a gate: cycle budget, core backlog, out-lane
  // backlog); the next tick or doorbell starts it again.
  void run_next_job();
  // `shard` is the job-ring lane the nqe arrived on — the flow's home shard.
  void handle_nqe(served_vm& svm, std::size_t shard, const shm::nqe& e);
  // Discards a job from a retired incarnation: chunk freed, drop traced.
  void discard_stale(served_vm& svm, const shm::nqe& e);
  // Empties `svm`'s staged lanes, counting, tracing and freeing each drop.
  void discard_staged(served_vm& svm);

  // Stack event plumbing.
  void handle_stack_event(const stack::socket_event& ev);
  // Moves stream bytes (ev_data) or datagrams (ev_udp_data) from the stack
  // into chunks until the socket is empty or a read stalls.
  void pump_reads(proto_socket& ps);
  // The read-stall check the pump runs before each read: pool exhaustion,
  // cycle budget, chunk quota, then receive-lane pressure. True means the
  // read stalled: `ps` is parked on `svm`'s stalled list, the matching
  // counter bumped, and the pump asked for a re-drain where no doorbell
  // will announce the resume.
  [[nodiscard]] bool read_stalled(served_vm& svm, const proto_socket& ps);
  // The transmit side of one socket, run on req_send, on every `writable`
  // (the transport's ack notification) and on a rate-cap retry: returns
  // acknowledged chunks, hands unsent bytes to the stack, credits
  // transmitted and acknowledged chunks, then issues a deferred shutdown or
  // close. May drop `ps`.
  void pump_sends(proto_socket& ps);
  // Hands pinned bytes to the stack in order; false while some wait for
  // stack space or the rate cap (a writable or a retry resumes them).
  bool push_unsent(served_vm& svm, proto_socket& ps);
  // Owes the guest `bytes` more credit, and sends everything owed up in one
  // cmp_send once it reaches min(chunk size, credit / 2) on a stream, at
  // once on a datagram socket. The one path for TCP's transmit- and
  // ACK-time credit and UDP's per-datagram credit; a guest that closed the
  // fd gets nothing.
  void send_credit_back(served_vm& svm, proto_socket& ps, std::uint64_t bytes);
  // Frees every pinned chunk without a cmp_send (teardown and error paths:
  // nobody is left to credit) and ends the traces of sends never taken.
  void release_pins(proto_socket& ps);

  // Queue push helpers. Fallible by contract: true means the nqe was
  // delivered or staged for in-order retry; false means it was discarded
  // (overflow cap hit), its chunk recycled and the drop counted. `shard`
  // picks the out-ring lane (the flow's home shard).
  bool push_completion(served_vm& svm, std::size_t shard, shm::nqe e);
  bool push_receive(served_vm& svm, std::size_t shard, shm::nqe e);
  bool push_out(served_vm& svm, std::size_t shard, shm::nqe e, bool receive);

  // Overflow plumbing: re-drain staged nqes into the rings, resume reads
  // stalled on chunk or queue pressure once it clears.
  void flush_staged(served_vm& svm);
  void maybe_resume_stalled(served_vm& svm);
  [[nodiscard]] bool out_backlogged(const served_vm& svm,
                                    std::size_t shard) const {
    return svm.lanes[shard].size() >= overflow_limit_;
  }
  // True when this lane's receive path is backed up (stage nonempty or ring
  // full) — the per-lane read-stall condition.
  [[nodiscard]] bool receive_pressured(const served_vm& svm,
                                       std::size_t shard) const {
    return !svm.lanes[shard].receive.empty() ||
           svm.ch->nsm_q(shard).receive.free_approx() == 0;
  }

  // Bills `cost` of the VM's work to the NSM core and to the VM's cycle
  // budget together. With `done`, the work completes on the core (FIFO
  // behind what is already committed there); without, it is charge-only.
  // On the budget's rising edge the pump is asked for a period-end drain so
  // throttled work resumes by itself.
  void bill(served_vm& svm, sim_time cost, std::function<void()> done = {});
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
  obs::nqe_tracer& tracer_;
  std::function<void(std::size_t)> notify_engine_;
  std::unique_ptr<queue_pump> pump_;

  bool failed_ = false;
  // The job chain: whether a step is pending on the core, and the lane the
  // next step's round robin starts from.
  bool chain_running_ = false;
  virt::vm_id next_vm_ = 0;
  std::size_t next_lane_ = 0;
  std::unordered_map<virt::vm_id, served_vm> vms_;
  std::unordered_map<std::uint32_t, proto_socket> sockets_;
  std::unordered_map<stack::socket_id, std::uint32_t> by_ssock_;
  // Accepted children only. Stays in [child_cid_base, 2^32): a cID repeats
  // only after 2^31 accepts on this module.
  std::uint32_t next_cid_ = child_cid_base;

  service_lib_stats stats_;
};

}  // namespace nk::core
