// Event-driven workload applications, written once against apps::socket_api
// and therefore runnable unchanged on the legacy path and on NetKernel:
//
//   * bulk_sink / bulk_sender — iperf-style throughput flows (Figures 4, 5)
//     with optional end-to-end payload integrity validation;
//   * echo_server / rpc_client — request/response latency probes
//     (notification-mode and NSM-form ablations);
//   * churn_client — short-lived connection generator (priority-queue /
//     HoL-blocking ablation).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "apps/socket_api.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace nk::apps {

// --- bulk transfer ---------------------------------------------------------------

class bulk_sink {
 public:
  // Listens on `port`; drains every accepted flow. With `validate`, checks
  // that each flow's bytes equal buffer::pattern at the flow's own offset.
  bulk_sink(socket_api& api, std::uint16_t port, bool validate = false);

  void start();

  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::size_t flows_seen() const { return flows_.size(); }
  [[nodiscard]] std::size_t flows_finished() const { return finished_; }
  [[nodiscard]] bool pattern_ok() const { return pattern_ok_; }
  [[nodiscard]] std::uint64_t flow_bytes(std::size_t i) const;

 private:
  struct flow {
    app_socket sock = 0;
    std::uint64_t bytes = 0;
  };
  void drain(app_socket s);

  socket_api& api_;
  std::uint16_t port_;
  bool validate_;
  app_socket listener_ = 0;
  std::vector<flow> flows_;
  std::unordered_map<app_socket, std::size_t> index_;
  std::uint64_t total_bytes_ = 0;
  std::size_t finished_ = 0;
  bool pattern_ok_ = true;
};

struct bulk_sender_config {
  int flows = 1;
  std::uint64_t bytes_per_flow = 0;  // 0 = unbounded (run until sim stops)
  std::size_t write_size = 64 * 1024;
  bool patterned = true;  // send the validating byte pattern
  // Optional per-flow congestion-control override (deploys "another stack"
  // on the same API).
  std::optional<tcp::cc_algorithm> cc{};
};

class bulk_sender {
 public:
  bulk_sender(socket_api& api, net::socket_addr dest,
              const bulk_sender_config& cfg);

  void start();

  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] int flows_done() const { return done_; }

 private:
  struct flow {
    app_socket sock = 0;
    std::uint64_t sent = 0;
    bool connected = false;
    bool closed = false;
    // Pattern bytes from stream offset `window_start` on, sliced for writes.
    buffer window;
    std::uint64_t window_start = 0;
  };
  void pump(std::size_t idx);
  // The flow's next `len` pattern bytes (from offset `sent`).
  buffer pattern_at(flow& f, std::size_t len);

  socket_api& api_;
  net::socket_addr dest_;
  bulk_sender_config cfg_;
  std::vector<flow> flows_;
  std::unordered_map<app_socket, std::size_t> index_;
  std::uint64_t bytes_sent_ = 0;
  int done_ = 0;
};

// --- request/response -----------------------------------------------------------------

class echo_server {
 public:
  echo_server(socket_api& api, std::uint16_t port);
  void start();
  [[nodiscard]] std::uint64_t bytes_echoed() const { return echoed_; }

 private:
  void pump(app_socket s);

  socket_api& api_;
  std::uint16_t port_;
  app_socket listener_ = 0;
  std::uint64_t echoed_ = 0;
};

struct rpc_client_config {
  std::size_t request_size = 512;
  int requests = 100;             // 0 = unbounded
  sim_time think_time{};          // pause between response and next request
};

class rpc_client {
 public:
  rpc_client(socket_api& api, sim::simulator& s, net::socket_addr dest,
             const rpc_client_config& cfg);

  void start();

  [[nodiscard]] const sample_set& latencies_us() const { return latency_us_; }
  [[nodiscard]] int completed() const { return completed_; }
  [[nodiscard]] bool finished() const {
    return cfg_.requests > 0 && completed_ >= cfg_.requests;
  }

 private:
  void send_request();
  void on_readable();

  socket_api& api_;
  sim::simulator& sim_;
  net::socket_addr dest_;
  rpc_client_config cfg_;
  app_socket sock_ = 0;
  sim_time sent_at_{};
  std::size_t received_ = 0;
  int completed_ = 0;
  sample_set latency_us_;
};

// --- partition/aggregate incast ---------------------------------------------------------

struct incast_config {
  int fanout = 16;                 // workers per query
  std::size_t response_size = 64 * 1024;  // per-worker answer
  int queries = 20;                // sequential rounds
  sim_time think_time = microseconds(100);
};

// The partition/aggregate pattern that motivates DCTCP: an aggregator
// queries `fanout` workers at once; each answers with a fixed-size
// response; the round completes when every byte arrived. The per-query
// completion time (the "incast FCT") is the latency-critical metric.
//
// Workers are bulk responders attached to one api (the worker host);
// the aggregator lives on another api. All responses collide at the
// aggregator's ingress — the incast bottleneck.
class incast_aggregator {
 public:
  incast_aggregator(socket_api& api, sim::simulator& s,
                    net::socket_addr worker_service,
                    const incast_config& cfg);

  void start();

  [[nodiscard]] const sample_set& query_us() const { return query_us_; }
  [[nodiscard]] int completed() const { return completed_; }
  [[nodiscard]] bool finished() const { return completed_ >= cfg_.queries; }

 private:
  void launch_query();
  void on_worker_data(std::size_t idx);

  socket_api& api_;
  sim::simulator& sim_;
  net::socket_addr workers_;
  incast_config cfg_;

  std::vector<app_socket> conns_;
  std::vector<std::uint64_t> received_;
  sim_time query_start_{};
  int responses_done_ = 0;
  int completed_ = 0;
  bool connected_all_ = false;
  int connected_count_ = 0;
  sample_set query_us_;
};

// Worker side: accepts connections; on receiving a 1-byte query, responds
// with `response_size` bytes.
class incast_worker_service {
 public:
  incast_worker_service(socket_api& api, std::uint16_t port,
                        std::size_t response_size);
  void start();
  [[nodiscard]] int queries_served() const { return served_; }

 private:
  socket_api& api_;
  std::uint16_t port_;
  std::size_t response_size_;
  app_socket listener_ = 0;
  int served_ = 0;
};

// --- short-connection churn -----------------------------------------------------------

struct churn_config {
  int connections = 100;          // total short connections to run
  std::size_t message_size = 256;
};

// Opens a connection, exchanges one small message with an echo server,
// closes, repeats. Completion time of each connection (connect -> response)
// is the HoL-sensitive metric of ablation A3.
class churn_client {
 public:
  churn_client(socket_api& api, sim::simulator& s, net::socket_addr dest,
               const churn_config& cfg);

  void start();

  [[nodiscard]] const sample_set& completion_us() const { return completion_us_; }
  [[nodiscard]] int completed() const { return completed_; }
  [[nodiscard]] bool finished() const { return completed_ >= cfg_.connections; }

 private:
  void open_next();

  socket_api& api_;
  sim::simulator& sim_;
  net::socket_addr dest_;
  churn_config cfg_;
  app_socket sock_ = 0;
  sim_time started_at_{};
  std::size_t received_ = 0;
  int completed_ = 0;
  sample_set completion_us_;
};

}  // namespace nk::apps
