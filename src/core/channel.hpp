// The shared-memory plumbing between one tenant VM and its NSM (Figure 3):
// per-engine-shard queue triples on the VM side (VM <-> CoreEngine) and the
// NSM side (CoreEngine <-> ServiceLib), and the uniquely-keyed huge-page
// pool both endpoints copy payload through. CoreEngine owns the channel and
// is the only component that touches both sides.
//
// Sharding (multi-queue CoreEngine, NIC-RSS style): the channel carries one
// ring set per engine shard and per side, so each shard pumps — and each
// producer pushes to — rings no other shard ever touches. A flow's entire
// nqe stream rides the ring set of its owning shard (shm/steering.hpp);
// with one shard this degenerates to the paper's single queue pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "shm/hugepage_pool.hpp"
#include "shm/queue_set.hpp"
#include "shm/stat_page.hpp"
#include "virt/machine.hpp"

namespace nk::core {

using nsm_id = std::uint16_t;

struct channel_config {
  shm::queue_config queues{};
  shm::hugepage_config hugepages{};
};

struct channel {
  channel(virt::vm_id vm, nsm_id nsm, std::uint32_t region_key,
          const channel_config& cfg, std::size_t shard_count = 1)
      : vm_id{vm},
        nsm{nsm},
        pool{region_key, cfg.hugepages},
        lanes_(shard_count == 0 ? 1 : shard_count) {
    for (auto& lane : lanes_) {
      lane.vm_q = std::make_unique<shm::endpoint_queues>(cfg.queues);
      lane.nsm_q = std::make_unique<shm::endpoint_queues>(cfg.queues);
    }
  }

  virt::vm_id vm_id;
  nsm_id nsm;
  shm::hugepage_pool pool;  // payload region, unique key per pair

  // Tenant-facing stat page (DESIGN.md §16): engine-written, guest-read-
  // only. Lives on the channel so it survives quarantine (the retired
  // attachment keeps the channel alive and the guest keeps its mapping —
  // it just reads a frozen terminal snapshot).
  shm::stat_page stats;

  [[nodiscard]] std::size_t shards() const { return lanes_.size(); }

  // Shard-addressed ring sets. Each engine shard is the sole consumer of
  // vm_q(s).job and nsm_q(s).{completion,receive}, and the sole producer of
  // nsm_q(s).job and vm_q(s).{completion,receive}.
  [[nodiscard]] shm::endpoint_queues& vm_q(std::size_t shard = 0) {
    return *lanes_[shard].vm_q;
  }
  [[nodiscard]] const shm::endpoint_queues& vm_q(std::size_t shard = 0) const {
    return *lanes_[shard].vm_q;
  }
  [[nodiscard]] shm::endpoint_queues& nsm_q(std::size_t shard = 0) {
    return *lanes_[shard].nsm_q;
  }
  [[nodiscard]] const shm::endpoint_queues& nsm_q(std::size_t shard = 0) const {
    return *lanes_[shard].nsm_q;
  }

  // Lifetime nqe counters, kept per lane so the forwarding hot path never
  // writes a cache line another shard also writes.
  void count_vm_to_nsm(std::size_t shard) { ++lanes_[shard].vm_to_nsm; }
  void count_nsm_to_vm(std::size_t shard, std::uint64_t n = 1) {
    lanes_[shard].nsm_to_vm += n;
  }
  [[nodiscard]] std::uint64_t nqes_vm_to_nsm() const {
    std::uint64_t n = 0;
    for (const auto& lane : lanes_) n += lane.vm_to_nsm;
    return n;
  }
  [[nodiscard]] std::uint64_t nqes_nsm_to_vm() const {
    std::uint64_t n = 0;
    for (const auto& lane : lanes_) n += lane.nsm_to_vm;
    return n;
  }

  // Cross-shard occupancy views (health monitor, quiescence checks,
  // depth gauges — control plane only).
  [[nodiscard]] std::size_t vm_job_depth() const {
    std::size_t n = 0;
    for (const auto& lane : lanes_) n += lane.vm_q->job.size_approx();
    return n;
  }
  [[nodiscard]] std::size_t vm_out_depth() const {
    std::size_t n = 0;
    for (const auto& lane : lanes_) {
      n += lane.vm_q->completion.size_approx() +
           lane.vm_q->receive.size_approx();
    }
    return n;
  }
  [[nodiscard]] std::size_t nsm_job_depth() const {
    std::size_t n = 0;
    for (const auto& lane : lanes_) n += lane.nsm_q->job.size_approx();
    return n;
  }
  [[nodiscard]] std::size_t nsm_out_depth() const {
    std::size_t n = 0;
    for (const auto& lane : lanes_) {
      n += lane.nsm_q->completion.size_approx() +
           lane.nsm_q->receive.size_approx();
    }
    return n;
  }

 private:
  struct lane {
    // Heap-allocated so lane vectors can be moved without touching the
    // (notionally shared-memory-resident) rings themselves.
    std::unique_ptr<shm::endpoint_queues> vm_q;   // GuestLib <-> CoreEngine
    std::unique_ptr<shm::endpoint_queues> nsm_q;  // CoreEngine <-> ServiceLib
    std::uint64_t vm_to_nsm = 0;
    std::uint64_t nsm_to_vm = 0;
  };
  std::vector<lane> lanes_;
};

}  // namespace nk::core
