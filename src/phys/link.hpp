// Unidirectional link: serialization at a fixed rate, a queue in front of
// the transmitter, propagation delay, and an optional Bernoulli loss gate
// (used to emulate the lossy WAN path of Figure 5). A packet's TCP Small
// Queues ticket is released when its serialization ends, so a later link
// on the path sees it without one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "phys/queue.hpp"
#include "sim/simulator.hpp"

namespace nk::phys {

struct link_config {
  data_rate rate = data_rate::gbps(40);
  sim_time propagation_delay = microseconds(1);
  double loss_rate = 0.0;  // independent per-packet loss probability
  droptail_config queue{};
};

struct link_stats {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_lost = 0;  // loss-gate losses (not queue drops)
};

class link {
 public:
  link(sim::simulator& s, const link_config& cfg);

  link(const link&) = delete;
  link& operator=(const link&) = delete;

  using sink = std::function<void(net::packet)>;
  void set_sink(sink receiver) { sink_ = std::move(receiver); }

  // Hands the packet to the transmitter; may be queued or dropped.
  void send(net::packet p);

  [[nodiscard]] const link_config& config() const { return cfg_; }
  [[nodiscard]] const link_stats& stats() const { return stats_; }
  [[nodiscard]] const queue_stats& queue_statistics() const {
    return queue_.stats();
  }
  [[nodiscard]] std::size_t queue_bytes() const { return queue_.byte_count(); }

  void set_loss_rate(double p) { cfg_.loss_rate = p; }

  // Exposes transmitter and queue state to a metrics registry as callback
  // gauges under `<prefix>_...`. The registry must not outlive this link.
  void register_metrics(obs::metrics_registry& reg, const std::string& prefix);

 private:
  void begin_transmission(net::packet p);
  void transmission_done();

  sim::simulator& sim_;
  link_config cfg_;
  droptail_queue queue_;
  sink sink_;
  bool transmitting_ = false;
  net::tx_ticket serializing_;  // the ticket of the packet on the transmitter
  link_stats stats_;
};

// Two links joined back-to-back, as a full-duplex cable.
class duplex_link {
 public:
  duplex_link(sim::simulator& s, const link_config& cfg)
      : forward_{s, cfg}, backward_{s, cfg} {}
  duplex_link(sim::simulator& s, const link_config& fwd,
              const link_config& bwd)
      : forward_{s, fwd}, backward_{s, bwd} {}

  [[nodiscard]] link& forward() { return forward_; }
  [[nodiscard]] link& backward() { return backward_; }

 private:
  link forward_;
  link backward_;
};

}  // namespace nk::phys
