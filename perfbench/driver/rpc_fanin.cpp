// rpc_fanin: eight client VMs multiplexed onto one client-side NSM, four
// clients each — a closed loop of 32 clients sending 64 B echo RPCs to one
// server VM behind its own NSM. No payload bulk, so per-nqe and per-op
// cost dominates. One op is one RPC; its latency runs from the request's
// send() call to the last response byte read, and every response byte is
// checked against the request's pattern. Each client thinks for a
// seed-drawn 0-1 us before its next request, so request times do not all
// fall on the pumps' 1 us polling grid.
#include <array>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "sim_harness.hpp"

namespace nkb {

namespace {

namespace apps = nk::apps;
using apps::app_event;
using apps::app_socket;
using nk::sim_time;

constexpr std::uint16_t port = 7000;
constexpr int client_vms = 8;
constexpr int clients_per_vm = 4;
constexpr int client_count = client_vms * clients_per_vm;
constexpr std::size_t request_size = 64;
// The self-test corrupts this echo (1-based) when asked to.
constexpr std::uint64_t corrupted_echo = 1000;

// Byte `i` of request `seq` of client `c`: every request differs, so a
// response that echoes the wrong request or a stale one is caught too.
std::byte pattern_byte(std::uint32_t c, std::uint64_t seq, std::size_t i) {
  return static_cast<std::byte>((c * 131u + seq * 7u + i * 13u) & 0xffu);
}

class rpc_fanin final : public sim_workload {
 public:
  rpc_fanin(const run_params& p, const build_ctx& ctx)
      : spans_{ctx.spans},
        corrupt_{p.corrupt_echo},
        bed_{make_testbed(p, ctx)},
        draw_{p.seed * 0x9e3779b97f4a7c15ULL + 2} {
    nk::core::nsm_config nsm_cfg;
    nsm_cfg.tcp = apps::datacenter_tcp(nk::tcp::cc_algorithm::cubic);
    nsm_cfg.cc = nk::tcp::cc_algorithm::cubic;
    nk::virt::vm_config vm_cfg;
    vm_cfg.vcpus = 2;
    nsm_cfg.name = "nsm-clients";
    nk::core::nsm* client_nsm = nullptr;
    for (int v = 0; v < client_vms; ++v) {
      vm_cfg.name = "client-vm" + std::to_string(v);
      tenants_.push_back(add_tenant(*bed_, apps::side::a, vm_cfg, nsm_cfg,
                                    client_nsm, ctx));
      client_nsm = tenants_.back().module;
    }
    vm_cfg.vcpus = 4;
    vm_cfg.name = "server-vm";
    nsm_cfg.name = "nsm-server";
    server_ = add_tenant(*bed_, apps::side::b, vm_cfg, nsm_cfg, nullptr, ctx);
    start_server();

    const nk::net::socket_addr dest{server_.module->config().address, port};
    for (std::uint32_t c = 0; c < client_count; ++c) {
      client& cl = clients_[c];
      cl.api = tenants_[c / clients_per_vm].api.get();
      // Seed-drawn start offsets decide how the 32 loops interleave.
      cl.start_offset = nk::nanoseconds(static_cast<std::int64_t>(draw_.next_below(20'000)));
      cl.sock = traced(spans_, span_name::api_open, c, [&] { return cl.api->open(); }).value();
      cl.api->on_event(cl.sock, [this, c](app_socket, app_event type, nk::errc) {
        client& me = clients_[c];
        if (type == app_event::connected) {
          me.connected = true;
        } else if (type == app_event::readable) {
          on_response(c);
        } else if (type == app_event::error) {
          ++errors_;
        }
      });
      if (!traced(spans_, span_name::api_connect, c,
                  [&] { return cl.api->connect(cl.sock, dest); })) {
        ++errors_;
      }
    }
  }

  apps::testbed& bed() override { return *bed_; }

  bool ready() const override {
    for (const auto& c : clients_) {
      if (!c.connected) return false;
    }
    return accepted_ == client_count;
  }

  void start_load() override {
    load_on_ = true;
    for (std::uint32_t c = 0; c < client_count; ++c) {
      bed_->sim().schedule(clients_[c].start_offset, [this, c] { send_request(c); });
    }
  }
  void set_window(bool open) override {
    window_ = open;
    if (open) {
      for (auto& c : clients_) c.window_completed = 0;
    } else {
      for (const auto& c : clients_) idle_clients_ += c.window_completed == 0 ? 1 : 0;
    }
  }
  void stop_load() override { load_on_ = false; }
  bool drained() const override {
    for (const auto& c : clients_) {
      if (c.in_flight) return false;
    }
    return true;
  }

  double ops_completed() const override { return static_cast<double>(completed_); }
  std::uint64_t bytes_delivered() const override {
    return completed_ * 2 * request_size;  // request + response payload
  }
  std::uint64_t flows_opened() const override { return client_count; }
  std::vector<double>& latencies_us() override { return latency_us_; }

  std::uint64_t attempted() const override { return sent_ + client_count; }
  std::uint64_t failed() const override {
    std::uint64_t n = errors_ + idle_clients_;
    for (const auto& c : clients_) n += c.in_flight ? 1 : 0;
    return n;
  }

  void check(check_log& log) const override {
    log.expect(mismatched_ == 0, std::to_string(mismatched_) +
                                     " echoed bytes differ from the request");
    log.expect(echoed_ == received_,
               "server echoed " + std::to_string(echoed_) + " B, clients read " +
                   std::to_string(received_) + " B");
  }

  std::string params_json() const override {
    return "{\"client_vms\":8,\"clients_per_vm\":4,\"client_nsms\":1,"
           "\"request_bytes\":64,\"loop\":\"closed\",\"start_jitter_us\":20,\"think_ns\":[0,1000],"
           "\"warmup_ms\":5}";
  }

 private:
  struct client {
    apps::socket_api* api = nullptr;
    app_socket sock = 0;
    bool connected = false;
    bool in_flight = false;
    std::uint64_t seq = 0;
    std::size_t got = 0;
    sim_time sent_at{};
    sim_time start_offset{};
    std::uint64_t window_completed = 0;
  };
  struct echo_conn {
    std::deque<nk::buffer> pending;  // echoes the send path refused so far
  };

  void send_request(std::uint32_t c) {
    client& cl = clients_[c];
    if (!load_on_ || cl.in_flight) return;
    std::array<std::byte, request_size> req{};
    for (std::size_t i = 0; i < request_size; ++i) req[i] = pattern_byte(c, cl.seq, i);
    cl.in_flight = true;
    cl.got = 0;
    cl.sent_at = bed_->sim().now();
    ++sent_;
    const std::uint64_t id = (std::uint64_t{c} << 32) | (cl.seq & 0xffffffffu);
    auto r = traced(spans_, span_name::api_send, id, [&] {
      return cl.api->send(cl.sock, nk::buffer::copy_of(req.data(), req.size()));
    });
    if (!r || r.value() != request_size) ++errors_;
  }

  void on_response(std::uint32_t c) {
    client& cl = clients_[c];
    while (cl.in_flight) {
      const std::uint64_t id = (std::uint64_t{c} << 32) | (cl.seq & 0xffffffffu);
      auto r = traced(spans_, span_name::api_recv, id,
                      [&] { return cl.api->recv(cl.sock, request_size - cl.got); });
      if (!r) return;
      const auto bytes = r.value().bytes();
      for (std::size_t k = 0; k < bytes.size(); ++k) {
        if (bytes[k] != pattern_byte(c, cl.seq, cl.got + k)) ++mismatched_;
      }
      cl.got += bytes.size();
      received_ += bytes.size();
      if (cl.got < request_size) continue;
      if (window_) {
        latency_us_.push_back(
            static_cast<double>((bed_->sim().now() - cl.sent_at).count()) / 1e3);
        ++cl.window_completed;
      }
      ++completed_;
      ++cl.seq;
      cl.in_flight = false;
      const auto think = nk::nanoseconds(static_cast<std::int64_t>(draw_.next_below(1000)));
      bed_->sim().schedule(think, [this, c] { send_request(c); });
      return;
    }
  }

  void start_server() {
    apps::socket_api& api = *server_.api;
    listener_ = traced(spans_, span_name::api_open, 0, [&] { return api.open(); }).value();
    (void)traced(spans_, span_name::api_bind, 0, [&] { return api.bind(listener_, port); });
    (void)traced(spans_, span_name::api_listen, 0, [&] { return api.listen(listener_, 1024); });
    api.on_event(listener_, [this](app_socket, app_event type, nk::errc) {
      if (type != app_event::accept_ready) return;
      while (true) {
        auto r = traced(spans_, span_name::api_accept, 0,
                        [&] { return server_.api->accept(listener_); });
        if (!r) break;
        const app_socket s = r.value();
        ++accepted_;
        conns_[s] = echo_conn{};
        server_.api->on_event(s, [this](app_socket sock, app_event t, nk::errc) {
          if (t == app_event::readable || t == app_event::writable) echo(sock);
        });
        echo(s);
      }
    });
  }

  void echo(app_socket s) {
    auto it = conns_.find(s);
    if (it == conns_.end()) return;
    echo_conn& conn = it->second;
    apps::socket_api& api = *server_.api;
    while (true) {
      auto r = traced(spans_, span_name::api_recv, s, [&] { return api.recv(s, 64 * 1024); });
      if (!r) break;
      nk::buffer data = std::move(r).value();
      echoed_ += data.size();
      if (corrupt_ && ++echoes_ == corrupted_echo) {
        std::vector<std::byte> copy(data.bytes().begin(), data.bytes().end());
        copy[0] ^= std::byte{0x5a};
        data = nk::buffer::copy_of(copy.data(), copy.size());
      }
      conn.pending.push_back(std::move(data));
    }
    while (!conn.pending.empty()) {
      nk::buffer& head = conn.pending.front();
      auto w = traced(spans_, span_name::api_send, s, [&] { return api.send(s, head); });
      if (!w) return;  // would_block: resume on writable
      if (w.value() < head.size()) {
        head = head.suffix_from(w.value());
        return;
      }
      conn.pending.pop_front();
    }
  }

  span_recorder* spans_;
  bool corrupt_;
  std::unique_ptr<apps::testbed> bed_;
  nk::rng draw_;  // start offsets and think times
  std::vector<apps::nk_tenant> tenants_;
  apps::nk_tenant server_;
  std::array<client, client_count> clients_{};
  std::unordered_map<app_socket, echo_conn> conns_;
  app_socket listener_ = 0;
  int accepted_ = 0;
  bool load_on_ = false;
  bool window_ = false;
  std::uint64_t sent_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t idle_clients_ = 0;
  std::uint64_t mismatched_ = 0;
  std::uint64_t echoed_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t echoes_ = 0;
  std::vector<double> latency_us_;
};

}  // namespace

std::unique_ptr<sim_workload> make_rpc_fanin(const run_params& p,
                                             const build_ctx& ctx) {
  return std::make_unique<rpc_fanin>(p, ctx);
}

}  // namespace nkb
