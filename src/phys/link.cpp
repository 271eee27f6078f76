#include "phys/link.hpp"

#include "obs/profiler.hpp"

#include <utility>

namespace nk::phys {

link::link(sim::simulator& s, const link_config& cfg,
           std::unique_ptr<packet_queue> queue)
    : sim_{s}, cfg_{cfg}, queue_{std::move(queue)} {
  if (!queue_) queue_ = std::make_unique<droptail_queue>(cfg.queue);
}

void link::send(net::packet p) {
  if (transmitting_) {
    (void)queue_->offer(p);  // queue accounts the drop if it refuses
    return;
  }
  begin_transmission(std::move(p));
}

void link::begin_transmission(net::packet p) {
  NK_PROF("link", "transmit");
  transmitting_ = true;
  const std::size_t size = p.wire_size();
  ++stats_.packets_sent;
  stats_.bytes_sent += size;

  const sim_time tx = cfg_.rate.transmission_time(size);
  const bool lost = cfg_.loss_rate > 0.0 && sim_.random().chance(cfg_.loss_rate);
  if (lost) {
    ++stats_.packets_lost;
    sim_.schedule(tx, [this] { transmission_done(); });
    return;
  }

  sim_.schedule(tx + cfg_.propagation_delay,
                [this, p = std::move(p)]() mutable {
                  ++stats_.packets_delivered;
                  if (sink_) sink_(std::move(p));
                });
  sim_.schedule(tx, [this] { transmission_done(); });
}

void link::transmission_done() {
  transmitting_ = false;
  if (auto next = queue_->take()) begin_transmission(std::move(*next));
}

void link::register_metrics(obs::metrics_registry& reg,
                            const std::string& prefix) {
  reg.register_gauge_fn(prefix + "_packets_sent",
                        [this] { return double(stats_.packets_sent); });
  reg.register_gauge_fn(prefix + "_bytes_sent",
                        [this] { return double(stats_.bytes_sent); });
  reg.register_gauge_fn(prefix + "_packets_delivered",
                        [this] { return double(stats_.packets_delivered); });
  reg.register_gauge_fn(prefix + "_packets_lost",
                        [this] { return double(stats_.packets_lost); });
  reg.register_gauge_fn(prefix + "_queue_bytes",
                        [this] { return double(queue_->byte_count()); });
  reg.register_gauge_fn(
      prefix + "_queue_enqueued",
      [this] { return double(queue_->stats().enqueued); });
  reg.register_gauge_fn(prefix + "_queue_dropped",
                        [this] { return double(queue_->stats().dropped); });
  reg.register_gauge_fn(
      prefix + "_queue_ecn_marked",
      [this] { return double(queue_->stats().ecn_marked); });
}

}  // namespace nk::phys
