// The drop-tail packet queue in front of every link transmitter, with an
// optional DCTCP-style instantaneous ECN marking threshold. Counts drops
// and marks for experiment reporting.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "net/packet.hpp"

namespace nk::phys {

struct queue_stats {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t ecn_marked = 0;
};

struct droptail_config {
  std::size_t capacity_bytes = 512 * 1024;
  // DCTCP marking threshold K: ECT packets arriving to a queue deeper than
  // this are CE-marked. 0 disables marking.
  std::size_t ecn_threshold_bytes = 0;
};

class droptail_queue {
 public:
  explicit droptail_queue(const droptail_config& cfg = {}) : cfg_{cfg} {}

  // Accepts or drops `p` (possibly marking ECN). True iff accepted.
  [[nodiscard]] bool offer(net::packet& p);

  [[nodiscard]] std::optional<net::packet> take();

  [[nodiscard]] std::size_t byte_count() const { return bytes_; }
  [[nodiscard]] const queue_stats& stats() const { return stats_; }

 private:
  droptail_config cfg_;
  std::deque<net::packet> fifo_;
  std::size_t bytes_ = 0;
  queue_stats stats_;
};

}  // namespace nk::phys
