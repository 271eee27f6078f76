// Flow-level workload generation: Poisson arrivals with empirical flow-size
// mixes from the datacenter measurement literature, and a sink that records
// per-flow completion times by size class.
//
// This is the workload vocabulary of the papers NetKernel's related work
// leans on (PIAS, pHost, DCTCP): most flows are mice, most bytes are in
// elephants, and the metric that matters is flow completion time (FCT) per
// size class. NSaaS turns the transport under such workloads into a
// provider-side knob.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "apps/socket_api.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace nk::apps {

enum class flow_mix {
  websearch,   // DCTCP paper: 10 KB .. 30 MB, ~30% of bytes in mice
  datamining,  // VL2: 80% of flows < 10 KB, tail beyond 100 MB
  uniform,     // 1 .. 64 KB uniform (debugging/testing)
};

[[nodiscard]] std::string_view to_string(flow_mix mix);

// Draws a flow size in bytes from the chosen mix.
[[nodiscard]] std::uint64_t sample_flow_size(flow_mix mix, rng& random);

// Size classes used for FCT reporting.
enum class size_class { mice, medium, elephants };
[[nodiscard]] constexpr size_class classify(std::uint64_t bytes) {
  if (bytes < 100 * 1024) return size_class::mice;
  if (bytes < 10 * 1024 * 1024) return size_class::medium;
  return size_class::elephants;
}
[[nodiscard]] std::string_view to_string(size_class c);

struct flowgen_config {
  flow_mix mix = flow_mix::websearch;
  int flows = 100;              // total flows to launch
  double arrivals_per_sec = 2000;  // Poisson arrival rate
  std::uint64_t seed = 1;
  std::uint64_t max_flow_bytes = 8 * 1024 * 1024;  // truncate the tail
};

// Receiver: accepts flows on `port`; a flow completes when its FIN arrives.
// FCT is measured accept -> EOF (the receiver-observable completion).
class flow_sink {
 public:
  flow_sink(socket_api& api, std::uint16_t port);
  void start();

  [[nodiscard]] int completed() const { return completed_; }
  [[nodiscard]] const sample_set& fct_us(size_class c) const {
    return fct_us_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  struct flow_state {
    sim_time accepted_at{};
    std::uint64_t bytes = 0;
  };
  void drain(app_socket s);

  socket_api& api_;
  std::uint16_t port_;
  app_socket listener_ = 0;
  std::unordered_map<app_socket, flow_state> flows_;
  sample_set fct_us_[3];
  int completed_ = 0;
  std::uint64_t total_bytes_ = 0;

 public:
  // The sink needs the simulated clock for timestamps; set before start().
  sim::simulator* sim = nullptr;
};

// Sender: launches flows by the Poisson process; each flow opens a
// connection, writes its sampled size, then closes.
class flow_generator {
 public:
  flow_generator(socket_api& api, sim::simulator& s, net::socket_addr dest,
                 const flowgen_config& cfg);
  void start();

  [[nodiscard]] int launched() const { return launched_; }
  [[nodiscard]] int finished_sending() const { return finished_; }
  [[nodiscard]] std::uint64_t bytes_offered() const { return offered_; }

 private:
  struct active_flow {
    std::uint64_t size = 0;
    std::uint64_t sent = 0;
  };
  void schedule_next_arrival();
  void launch_flow();
  void pump(app_socket s);

  socket_api& api_;
  sim::simulator& sim_;
  net::socket_addr dest_;
  flowgen_config cfg_;
  rng rng_;
  std::unordered_map<app_socket, active_flow> active_;
  int launched_ = 0;
  int finished_ = 0;
  std::uint64_t offered_ = 0;
};

}  // namespace nk::apps
