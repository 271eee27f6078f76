// The per-endpoint queue triple from Figure 3 of the paper: a job queue
// (requests in), a completion queue (request results out) and a receive
// queue (asynchronous data/accept events out). Both a tenant VM and an NSM
// own one set; CoreEngine shuttles nqes between the two sets.
//
// Each queue is one FIFO ring. The paper (§3.2) suggests a second ring so
// connection events bypass queued data events; no workload here builds the
// data backlog that would need it (EXPERIMENTS A3).
#pragma once

#include <cstddef>

#include "shm/nqe.hpp"
#include "shm/spsc_ring.hpp"

namespace nk::shm {

struct queue_config {
  std::size_t depth = 4096;  // slots per ring
};

class nqe_queue {
 public:
  explicit nqe_queue(const queue_config& cfg = {}) : ring_{cfg.depth} {}

  [[nodiscard]] bool push(const nqe& e) { return ring_.try_push(e); }
  [[nodiscard]] bool pop(nqe& out) { return ring_.try_pop(out); }

  [[nodiscard]] std::size_t size_approx() const { return ring_.size_approx(); }
  [[nodiscard]] bool empty_approx() const { return size_approx() == 0; }

  // Usable slots (rounded up from queue_config::depth).
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }

  // Free slots. Producers use this to decide whether to keep generating
  // work; it is a conservative (consumer-lagged) bound.
  [[nodiscard]] std::size_t space_approx() const { return ring_.free_approx(); }

 private:
  spsc_ring<nqe> ring_;
};

// One endpoint's view of the shared-memory control region.
struct endpoint_queues {
  explicit endpoint_queues(const queue_config& cfg = {})
      : job{cfg}, completion{cfg}, receive{cfg} {}

  nqe_queue job;
  nqe_queue completion;
  nqe_queue receive;
};

}  // namespace nk::shm
