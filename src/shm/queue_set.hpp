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
  std::size_t depth = 4096;  // slots per ring (rounded up to a power of two)
};

// One endpoint's view of the shared-memory control region.
struct endpoint_queues {
  explicit endpoint_queues(const queue_config& cfg = {})
      : job{cfg.depth}, completion{cfg.depth}, receive{cfg.depth} {}

  spsc_ring<nqe> job;
  spsc_ring<nqe> completion;
  spsc_ring<nqe> receive;
};

}  // namespace nk::shm
