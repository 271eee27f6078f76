#include "phys/queue.hpp"

namespace nk::phys {
namespace {

bool is_ect(const net::packet& p) {
  return p.ip.ecn == net::ecn_codepoint::ect0 ||
         p.ip.ecn == net::ecn_codepoint::ect1;
}

}  // namespace

bool droptail_queue::offer(net::packet& p) {
  const std::size_t size = p.wire_size();
  if (bytes_ + size > cfg_.capacity_bytes) {
    ++stats_.dropped;
    return false;
  }
  if (cfg_.ecn_threshold_bytes > 0 && bytes_ > cfg_.ecn_threshold_bytes &&
      is_ect(p)) {
    p.ip.ecn = net::ecn_codepoint::ce;
    ++stats_.ecn_marked;
  }
  bytes_ += size;
  fifo_.push_back(std::move(p));
  ++stats_.enqueued;
  return true;
}

std::optional<net::packet> droptail_queue::take() {
  if (fifo_.empty()) return std::nullopt;
  net::packet p = std::move(fifo_.front());
  fifo_.pop_front();
  bytes_ -= p.wire_size();
  return p;
}

}  // namespace nk::phys
