// Tenant-facing stat page (the guest half of the observability plane).
//
// The provider-side flow table (DESIGN.md §6) gives the *operator* full
// visibility into every tenant connection, but it left the *tenant* blind:
// inside the VM there is no `ss`, no `getsockopt(TCP_INFO)` — the stack
// lives on the other side of the channel. The stat page closes that gap
// without adding a single round trip to the data path: CoreEngine
// periodically writes a fixed-layout, seqlock-versioned snapshot of the
// owning VM's sockets into a page the guest maps read-only, and GuestLib
// answers nk_getsockopt(NK_TCP_INFO) / nk_stack_stats() by reading it.
//
// Trust model (DESIGN.md §16):
//  - The page is engine-written, guest-read. The engine NEVER reads it
//    back, so a hostile guest scribbling over its own page corrupts only
//    what its own diagnostics see.
//  - Rows are redacted to the owning VM: keyed by guest fd, tagged with
//    the transport name and the *guest-chosen* remote address. No NSM
//    ids, no cIDs, no shard indices, and never another tenant's flows.
//  - `epoch` mirrors the attachment's NSM-incarnation epoch so an
//    in-guest reader can detect failover (sockets vanish / reappear under
//    a new epoch). `flags & stat_frozen` marks a terminal page: the VM
//    was quarantined and the snapshot will never advance again.
//
// Concurrency: the writer (an engine shard) and readers (guest vcpus /
// nk_ss) race by design. The page therefore stores every word in a
// std::atomic<uint64_t> and brackets publication with an odd/even version
// counter (classic seqlock): readers that observe an odd version or a
// version change retry, so they never see a torn row — verified by the
// TSan-labeled stress test in tests/shm_test.cpp.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "obs/flow_info.hpp"

namespace nk::shm {

// One per-socket row, keyed by the guest-visible fd: the provider's flow
// record for that socket, as the engine's flow table holds it.
struct nk_sock_stats {
  std::uint64_t fd = 0;
  // Guest-chosen peer; safe to expose, lets a reader distinguish flows.
  std::uint32_t remote_ip = 0;  // host byte order
  std::uint32_t remote_port = 0;
  obs::nk_flow_info info;
};
static_assert(std::is_trivially_copyable_v<nk_sock_stats>);

// Per-VM aggregates: the quota/backpressure view a tenant needs to answer
// "is the stack throttling me?" without provider help.
struct nk_vm_stats {
  std::uint64_t published_ns = 0;  // sim timestamp of this snapshot
  std::uint64_t publish_seq = 0;   // monotonic publish counter
  std::uint64_t epoch = 0;         // NSM incarnation (bumps on failover)
  std::uint64_t flags = 0;         // stat_frozen => terminal (quarantine)
  std::uint64_t sockets = 0;       // rows valid in stat_snapshot::rows
  std::uint64_t sockets_total = 0; // live flows, even if > max_rows
  std::uint64_t job_ring_depth = 0;      // guest->engine rings, all lanes
  std::uint64_t staged_jobs = 0;         // engine-side deferred jobs
  std::uint64_t staged_completions = 0;  // NSM-side staged cmp/ev nqes
  std::uint64_t send_would_block = 0;    // nk_send EAGAINs observed
  std::uint64_t recv_would_block = 0;    // nk_recv EAGAINs observed
  std::uint64_t cycle_budget_used = 0;   // per-tenant cycle quota burn
  std::uint64_t chunk_quota_used = 0;    // huge-page chunks held
  std::uint64_t pool_chunks_free = 0;    // headroom left in the pool
};
static_assert(std::is_trivially_copyable_v<nk_vm_stats>);

inline constexpr std::uint64_t stat_frozen = 1;  // nk_vm_stats::flags bit

// What a reader extracts in one consistent unit.
struct stat_snapshot {
  static constexpr std::size_t max_rows = 128;

  nk_vm_stats vm{};
  std::array<nk_sock_stats, max_rows> rows{};

  // Row lookup by guest fd; nullptr when the fd has no published row.
  [[nodiscard]] const nk_sock_stats* find(std::uint64_t fd) const {
    for (std::size_t i = 0; i < vm.sockets && i < max_rows; ++i) {
      if (rows[i].fd == fd) return &rows[i];
    }
    return nullptr;
  }
};
static_assert(std::is_trivially_copyable_v<stat_snapshot>);

// The shared page itself. Storage is an array of atomic words (not a raw
// struct) so the cross-thread writer/reader race is data-race-free by
// construction: TSan sees only relaxed atomic accesses ordered by the
// acquire/release version counter.
class stat_page {
 public:
  static constexpr std::size_t words =
      (sizeof(stat_snapshot) + sizeof(std::uint64_t) - 1) /
      sizeof(std::uint64_t);

  // Writer side (CoreEngine only). Seqlock publish: version goes odd,
  // words land, version goes even. Single writer by contract — each
  // attachment's page is published from one place.
  void publish(const stat_snapshot& snap) {
    const std::uint64_t v = version_.load(std::memory_order_relaxed);
    version_.store(v + 1, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_release);
    std::uint64_t buf[words] = {};
    std::memcpy(buf, &snap, sizeof(snap));
    for (std::size_t i = 0; i < words; ++i) {
      data_[i].store(buf[i], std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_release);
    version_.store(v + 2, std::memory_order_release);
  }

  // Reader side (GuestLib / nk_ss). Retries while the writer is mid-
  // publish; false only if the page never settles within `max_tries`
  // (can't happen with the sim's cadenced writer; bounded for the
  // threaded stress test so a stuck writer can't hang a reader forever).
  [[nodiscard]] bool read(stat_snapshot& out,
                          std::size_t max_tries = 1u << 20) const {
    for (std::size_t attempt = 0; attempt < max_tries; ++attempt) {
      const std::uint64_t v0 = version_.load(std::memory_order_acquire);
      if (v0 == 0) return false;  // never published
      if (v0 & 1) continue;       // writer in progress
      std::atomic_thread_fence(std::memory_order_acquire);
      std::uint64_t buf[words] = {};
      for (std::size_t i = 0; i < words; ++i) {
        buf[i] = data_[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t v1 = version_.load(std::memory_order_acquire);
      if (v0 == v1) {
        std::memcpy(&out, buf, sizeof(out));
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  // True once any snapshot has been published.
  [[nodiscard]] bool ever_published() const { return version() != 0; }

 private:
  std::atomic<std::uint64_t> version_{0};
  std::array<std::atomic<std::uint64_t>, words> data_{};
};

}  // namespace nk::shm
