// Push-or-stage in front of one fixed-depth nqe ring (DESIGN.md §8): the
// FIFO stage every producer keeps in private memory because shared rings
// cannot grow. It does no accounting and knows no layer; the caller counts,
// traces, frees chunks and rings doorbells from the push_result.
#pragma once

#include <cstddef>
#include <deque>
#include <limits>

#include "shm/nqe.hpp"
#include "shm/spsc_ring.hpp"

namespace nk::shm {

enum class push_result { ring, staged, dropped };

class staged_lane {
 public:
  static constexpr std::size_t no_cap = std::numeric_limits<std::size_t>::max();

  // `ring` is not owned; channel rings are heap-allocated, so it stays put.
  explicit staged_lane(spsc_ring<nqe>& ring) : ring_{&ring} {}

  // Onto the ring only while nothing is staged (a push never overtakes the
  // stage). Dropped only when the stage already holds `cap` or more and the
  // op is pure data (droppable_on_overflow); otherwise staged.
  [[nodiscard]] push_result push(const nqe& e, std::size_t cap) {
    if (stage_.empty() && ring_->try_push(e)) return push_result::ring;
    if (stage_.size() >= cap && droppable_on_overflow(e.op)) {
      return push_result::dropped;
    }
    stage_.push_back(e);
    return push_result::staged;
  }

  // Re-pushes staged nqes in order until the ring is full; returns the count.
  std::size_t flush() {
    std::size_t n = 0;
    while (!stage_.empty() && ring_->try_push(stage_.front())) {
      stage_.pop_front();
      ++n;
    }
    return n;
  }

  [[nodiscard]] std::size_t size() const { return stage_.size(); }
  [[nodiscard]] bool empty() const { return stage_.empty(); }

  // Teardown: hands every staged nqe, oldest first, to `discard`.
  template <typename Discard>
  void scrub(Discard&& discard) {
    for (const nqe& e : stage_) discard(e);
    stage_.clear();
  }

 private:
  spsc_ring<nqe>* ring_;
  std::deque<nqe> stage_;
};

}  // namespace nk::shm
