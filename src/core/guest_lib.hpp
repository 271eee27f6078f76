// GuestLib: the tenant-VM half of NetKernel (paper §3.1-3.2, §4.1).
//
// Intercepts the socket API inside the guest (the prototype LD_PRELOADs
// glibc; here the nk_* methods are that interposition layer), converts
// every call into nqes on the VM-side job queue, and copies payload through
// the shared huge pages. Completions and events come back on the VM-side
// completion/receive queues. Operations are asynchronous exactly as in
// §3.2: calls return immediately and results surface through events — plus
// the epoll-style API the prototype deferred to future work (§4.1).
//
// Deviation from the paper, documented in DESIGN.md: fds are minted locally
// by GuestLib (CoreEngine mints only accept-side fds) so that nk_socket()
// can return without a round trip; in the prototype the same value is
// produced by CoreEngine and the call blocks on the completion queue.
//
// Sharded engines (DESIGN.md §13): every socket has a home shard. Sockets
// GuestLib creates are steered by shm::flow_shard(vm, fd); accepted children
// adopt the shard their ev_accept arrived on (the engine steered it by
// <NSM, cID>). All of a socket's jobs go down its home lane and its local
// overflow staging is per lane, so one backlogged shard never blocks
// another's sockets.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "common/result.hpp"
#include "core/channel.hpp"
#include "core/costs.hpp"
#include "core/notification.hpp"
#include "obs/trace.hpp"
#include "shm/staged_lane.hpp"
#include "stack/netstack.hpp"
#include "virt/machine.hpp"

namespace nk::core {

class core_engine;

// Socket options understood by req_setsockopt (ServiceLib side).
// tcp_info is read-only: it names the nk_getsockopt(TCP_INFO) telemetry
// snapshot served from the stat page and is rejected on the set path.
enum class nk_option : std::uint64_t {
  congestion_control = 1,  // value: tcp::cc_algorithm
  recv_buffer = 2,
  send_buffer = 3,
  nagle = 4,
  tcp_info = 5,
};

struct guest_lib_stats {
  std::uint64_t ops_issued = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t send_blocked = 0;  // credit, chunk, or job-ring exhaustion
  std::uint64_t recv_blocked = 0;  // nk_recv with nothing buffered
  std::uint64_t events_delivered = 0;
  std::uint64_t jobs_deferred = 0;       // staged on a full VM-side job ring
  // Chunks the guest freed into the pool itself: every receive chunk
  // (consumed, closed unread, or arrived for a closed fd) and the chunks
  // abort_all scrubs from staged jobs.
  std::uint64_t chunks_freed_local = 0;
  std::uint64_t ops_timed_out = 0;       // deadline expired, retries spent
  std::uint64_t ops_retried = 0;         // deadline expired, op resubmitted
};

struct guest_lib_config {
  std::uint64_t send_credit = 1024 * 1024;  // outstanding bytes per socket
  // Jobs staged locally when the VM-side job ring is full before the app
  // starts seeing would_block on sends.
  std::size_t max_deferred_jobs = 256;
  // Pending-op deadline policy: an async op whose completion never arrives
  // (its NSM died mid-request) fails with errc::timed_out instead of
  // stranding the socket forever. Each expiry first resubmits the op up to
  // `connect_retries` times — ServiceLib treats a duplicate connect as a
  // no-op, so a retry is safe against a live-but-slow module and reaches a
  // freshly recovered one. zero() disables the watchdog.
  sim_time connect_timeout = seconds(5);
  int connect_retries = 1;
};

class guest_lib {
 public:
  guest_lib(virt::machine& vm, channel& ch, core_engine& engine,
            const netkernel_costs& costs, const notify_config& ncfg,
            obs::nqe_tracer* tracer = nullptr,
            const guest_lib_config& cfg = {});
  ~guest_lib();

  guest_lib(const guest_lib&) = delete;
  guest_lib& operator=(const guest_lib&) = delete;

  // --- the intercepted socket API ----------------------------------------------

  [[nodiscard]] result<std::uint32_t> nk_socket();
  status nk_bind(std::uint32_t fd, std::uint16_t port);
  status nk_listen(std::uint32_t fd, int backlog = 128);
  status nk_connect(std::uint32_t fd, net::socket_addr remote);
  [[nodiscard]] result<std::uint32_t> nk_accept(std::uint32_t listener_fd);
  [[nodiscard]] result<std::size_t> nk_send(std::uint32_t fd, buffer data);
  [[nodiscard]] result<buffer> nk_recv(std::uint32_t fd, std::size_t max);
  status nk_setsockopt(std::uint32_t fd, nk_option opt, std::uint64_t value);
  status nk_shutdown(std::uint32_t fd);
  status nk_close(std::uint32_t fd);

  // --- tenant-facing observability (DESIGN.md §16) ----------------------------
  //
  // All reads come from the engine-published stat page on the channel —
  // zero round trips, zero nqes, safe to call from any diagnostic loop.
  // The data is as fresh as the last publish (timeseries cadence or
  // nk_stat_refresh); would_block means the fd has no published row yet.
  [[nodiscard]] result<shm::nk_sock_stats> nk_getsockopt(std::uint32_t fd,
                                                         nk_option opt);
  // Per-VM aggregates (quota burn, staged depth, would_block counts).
  [[nodiscard]] result<shm::nk_vm_stats> nk_stack_stats() const;
  // Full-page snapshot for in-guest tools (examples/nk_ss); false only if
  // nothing has been published yet or the seqlock never settled.
  [[nodiscard]] bool nk_stat_snapshot(shm::stat_snapshot& out) const;
  // On-demand freshness: submits req_stat_refresh through the normal job
  // ring (and thus the admission firewall). The refreshed page appears
  // once the engine drains the ring; no completion nqe is generated.
  status nk_stat_refresh();

  // --- UDP (datagram service through the same NSM) --------------------------------

  [[nodiscard]] result<std::uint32_t> nk_udp_open(std::uint16_t port = 0);
  [[nodiscard]] result<std::size_t> nk_udp_send_to(std::uint32_t fd,
                                                   net::socket_addr dest,
                                                   buffer data);
  [[nodiscard]] result<std::pair<net::socket_addr, buffer>> nk_udp_recv_from(
      std::uint32_t fd);

  [[nodiscard]] std::size_t recv_available(std::uint32_t fd) const;
  [[nodiscard]] std::size_t send_credit_available(std::uint32_t fd) const;
  [[nodiscard]] bool eof(std::uint32_t fd) const;

  // --- events -----------------------------------------------------------------

  using event_handler = std::function<void(
      std::uint32_t fd, stack::socket_event_type type, errc error)>;
  void set_event_handler(event_handler handler) {
    handler_ = std::move(handler);
  }

  // --- epoll-style multiplexing (extension beyond the prototype) -----------------

  struct epoll_event_out {
    std::uint32_t fd = 0;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };
  [[nodiscard]] result<std::uint32_t> nk_epoll_create();
  status nk_epoll_add(std::uint32_t epfd, std::uint32_t fd);
  status nk_epoll_del(std::uint32_t epfd, std::uint32_t fd);
  // Poll semantics (a DES cannot block): returns the currently-ready set.
  [[nodiscard]] std::vector<epoll_event_out> nk_epoll_wait(
      std::uint32_t epfd, std::size_t max = 64);

  // --- plumbing ----------------------------------------------------------------

  // Doorbell from CoreEngine: completions/events await in the VM queues.
  void notify() { pump_->notify(); }

  // Stops the drain pump (detach_vm teardown); the object stays valid.
  void stop() { pump_->stop(); }

  // Quarantine/teardown abort: fails every socket with `err` (error events
  // raised to the app), frees the chunks pinned by buffered receive data
  // and locally staged jobs, and clears the staging lists. Called by
  // core_engine::quarantine_vm before the engine-side detach scrub, which
  // cannot see GuestLib-internal chunk references.
  void abort_all(errc err);

  [[nodiscard]] const guest_lib_stats& stats() const { return stats_; }
  [[nodiscard]] virt::machine& vm() { return vm_; }

  // Jobs staged locally across every lane (rebalance quiescence check).
  [[nodiscard]] std::size_t deferred_jobs() const {
    std::size_t n = 0;
    for (const auto& lane : job_lanes_) n += lane.size();
    return n;
  }

  // Re-homes an existing socket onto `shard` (engine rebalance; called only
  // at a quiescent point, so no job of the socket's is in flight on the old
  // lane). Unknown fds are ignored.
  void set_flow_shard(std::uint32_t fd, std::size_t shard);

 private:
  enum class phase {
    fresh,
    bound,
    listening,
    connecting,
    connected,
    closed,
    failed,
  };

  struct rx_item {
    shm::data_descriptor desc{};
    std::uint32_t consumed = 0;
  };

  struct udp_rx_item {
    shm::data_descriptor desc{};
    net::socket_addr from{};
  };

  struct g_socket {
    phase ph = phase::fresh;
    std::uint16_t port = 0;
    std::deque<std::uint32_t> accept_q;
    std::deque<rx_item> rx;
    std::deque<udp_rx_item> udp_rx;
    bool udp = false;
    std::size_t rx_bytes = 0;
    std::uint64_t inflight = 0;  // submitted to NSM, not yet credited back
    bool eof = false;
    bool closed_reported = false;
    errc err = errc::ok;
    sim::cpu_core* core = nullptr;
    bool writable_blocked = false;
    net::socket_addr remote{};    // connect target (deadline resubmission)
    int connect_attempts = 0;     // req_connect submissions so far
    std::size_t shard = 0;        // home engine shard (steering hash)
  };

  std::size_t drain();  // pump callback: completion + receive queues
  // `shard` is the lane the nqe arrived on — for an accepted child, the
  // home shard the engine steered it to.
  void handle_nqe(const shm::nqe& e, std::size_t shard);
  void submit(const g_socket& gs, shm::nqe e, sim_time extra_cost);

  // Job-ring overflow plumbing. enqueue_job never loses an nqe: a push that
  // finds the lane's ring full is staged and re-driven, in order, by
  // flush_job_lanes() on every drain.
  void enqueue_job(std::size_t shard, shm::nqe e);
  std::size_t flush_job_lanes();
  void wake_writers();
  // Frees a chunk into the shared pool in place (no nqe).
  void free_chunk(const shm::data_descriptor& desc);
  // Frees a socket's buffered rx/udp_rx chunks and empties its buffers.
  void free_rx(g_socket& gs);
  [[nodiscard]] bool lane_backlogged(std::size_t shard) const {
    return job_lanes_[shard].size() >= cfg_.max_deferred_jobs;
  }
  // Pending-op watchdog: arms a deadline after each req_connect submission;
  // on expiry the op is resubmitted (bounded) or failed with timed_out.
  void arm_connect_deadline(std::uint32_t fd);
  void connect_deadline_expired(std::uint32_t fd);
  void emit_event(std::uint32_t fd, stack::socket_event_type type,
                  errc error = errc::ok);
  [[nodiscard]] g_socket* socket_of(std::uint32_t fd);
  [[nodiscard]] const g_socket* socket_of(std::uint32_t fd) const;
  [[nodiscard]] sim::cpu_core* pick_core();

  virt::machine& vm_;
  channel& ch_;
  core_engine& engine_;
  netkernel_costs costs_;
  guest_lib_config cfg_;
  obs::nqe_tracer* tracer_ = nullptr;
  std::unique_ptr<queue_pump> pump_;

  // Staged lane in front of vm_q(s).job, one per engine shard.
  std::vector<shm::staged_lane> job_lanes_;
  std::unordered_map<std::uint32_t, g_socket> sockets_;
  std::uint32_t next_fd_ = 3;
  std::size_t next_core_ = 0;

  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> epolls_;
  std::uint32_t next_epfd_ = 0x40000000;

  event_handler handler_;
  guest_lib_stats stats_;
};

}  // namespace nk::core
