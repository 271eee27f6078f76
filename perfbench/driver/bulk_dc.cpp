// bulk_dc: the Figure 4 shape. Two NetKernel VMs (4 vCPU) on the 40 GbE
// testbed behind CUBIC NSMs; two flow-controlled bulk flows of 64 KB
// writes. One op is 64 KB of payload delivered; its latency is the time
// from the send() call that accepted a write to the receiver reading the
// write's last byte. The sender spends a seed-drawn 0-1 us before each
// write (application work), so write times do not all fall on the pumps'
// 1 us polling grid.
#include <cstring>
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

constexpr std::uint16_t port = 5001;
constexpr std::size_t write_size = 64 * 1024;
constexpr std::size_t recv_quantum = 256 * 1024;
constexpr int flow_count = 2;
constexpr std::size_t header_bytes = sizeof(std::uint64_t);  // flow index

class bulk_dc final : public sim_workload {
 public:
  bulk_dc(const run_params& p, const build_ctx& ctx)
      : spans_{ctx.spans},
        bed_{make_testbed(p, ctx)},
        zeros_{nk::buffer::zeroed(write_size)},
        draw_{p.seed * 0x9e3779b97f4a7c15ULL + 1} {
    nk::core::nsm_config nsm_cfg;
    nsm_cfg.tcp = apps::datacenter_tcp(nk::tcp::cc_algorithm::cubic);
    nsm_cfg.cc = nk::tcp::cc_algorithm::cubic;
    nk::virt::vm_config vm_cfg;
    vm_cfg.vcpus = 4;
    vm_cfg.name = "tx-vm";
    nsm_cfg.name = "nsm-tx";
    tx_ = add_tenant(*bed_, apps::side::a, vm_cfg, nsm_cfg, nullptr, ctx);
    vm_cfg.name = "rx-vm";
    nsm_cfg.name = "nsm-rx";
    rx_ = add_tenant(*bed_, apps::side::b, vm_cfg, nsm_cfg, nullptr, ctx);

    start_sink();
    // The second flow connects after a seed-drawn stagger, so flows of
    // different seeds interleave differently.
    const nk::net::socket_addr dest{rx_.module->config().address, port};
    for (int i = 0; i < flow_count; ++i) {
      const sim_time at = i == 0 ? sim_time::zero()
                                 : nk::nanoseconds(static_cast<std::int64_t>(
                                       draw_.next_below(50'000)));
      bed_->sim().schedule(at, [this, i, dest] { open_flow(i, dest); });
    }
  }

  apps::testbed& bed() override { return *bed_; }

  bool ready() const override {
    int up = 0;
    for (const auto& f : tx_flows_) up += f.connected ? 1 : 0;
    return up == flow_count && accepted_ == flow_count;
  }

  void start_load() override {
    load_on_ = true;
    for (int i = 0; i < flow_count; ++i) kick(i);
  }
  void set_window(bool open) override { window_ = open; }
  void stop_load() override {
    load_on_ = false;
    // Every accepted byte is already in the pipeline; close orders the FIN
    // behind it.
    for (int i = 0; i < flow_count; ++i) {
      tx_flow& f = tx_flows_[i];
      if (!f.closed && f.sock != 0) {
        f.closed = true;
        (void)traced(spans_, span_name::api_close, f.sock,
                     [&] { return tx_.api->close(f.sock); });
      }
    }
  }
  bool drained() const override {
    int done = 0;
    for (const auto& [sock, r] : rx_flows_) done += r.eof ? 1 : 0;
    return done == flow_count;
  }

  double ops_completed() const override {
    return static_cast<double>(delivered_) / static_cast<double>(write_size);
  }
  std::uint64_t bytes_delivered() const override { return delivered_; }
  std::uint64_t flows_opened() const override { return flow_count; }
  std::vector<double>& latencies_us() override { return latency_us_; }

  std::uint64_t attempted() const override { return writes_ + flow_count; }
  std::uint64_t failed() const override {
    std::uint64_t n = errors_;
    for (const auto& f : tx_flows_) n += f.writes.size();  // never delivered
    for (const auto& [sock, r] : rx_flows_) n += r.eof ? 0 : 1;
    return n + (flow_count - static_cast<std::uint64_t>(rx_flows_.size()));
  }

  void check(check_log& log) const override {
    for (const auto& [sock, r] : rx_flows_) {
      log.expect(r.index >= 0, "bulk flow without a valid header");
      if (r.index < 0) continue;
      const tx_flow& f = tx_flows_[static_cast<std::size_t>(r.index)];
      log.expect(f.accepted == r.bytes,
                 "bulk flow " + std::to_string(r.index) + ": sent " +
                     std::to_string(f.accepted) + " B, received " +
                     std::to_string(r.bytes) + " B after drain");
    }
  }

  std::string params_json() const override {
    return "{\"flows\":2,\"write_bytes\":65536,\"cc\":\"cubic\","
           "\"link_gbps\":40,\"vm_vcpus\":4,\"think_ns\":[0,1000],"
           "\"warmup_ms\":100}";
  }

 private:
  struct tx_flow {
    app_socket sock = 0;
    std::uint64_t accepted = 0;
    bool connected = false;
    bool closed = false;
    bool thinking = false;  // between writes
    // Writes accepted but not yet read by the receiver: <end offset, call time>.
    std::deque<std::pair<std::uint64_t, sim_time>> writes;
  };
  struct rx_flow {
    int index = -1;  // learned from the flow's 8-byte header
    std::uint64_t bytes = 0;
    std::uint8_t header[header_bytes]{};
    bool eof = false;
  };

  void open_flow(int i, nk::net::socket_addr dest) {
    tx_flow& f = tx_flows_[i];
    auto s = traced(spans_, span_name::api_open, i, [&] { return tx_.api->open(); });
    if (!s) {
      ++errors_;
      return;
    }
    f.sock = s.value();
    tx_.api->on_event(f.sock, [this, i](app_socket, app_event type, nk::errc) {
      tx_flow& fl = tx_flows_[i];
      if (type == app_event::connected) {
        fl.connected = true;
        kick(i);
      } else if (type == app_event::writable) {
        kick(i);
      } else if (type == app_event::error) {
        ++errors_;
      }
    });
    if (!traced(spans_, span_name::api_connect, i,
                [&] { return tx_.api->connect(f.sock, dest); })) {
      ++errors_;
    }
  }

  // Every write is issued a think time after the flow became writable
  // (connected, writable event, or the previous write accepted whole).
  void kick(int i) {
    tx_flow& f = tx_flows_[i];
    if (f.thinking) return;
    f.thinking = true;
    const auto think = nk::nanoseconds(static_cast<std::int64_t>(draw_.next_below(1000)));
    bed_->sim().schedule(think, [this, i] {
      tx_flows_[i].thinking = false;
      write(i);
    });
  }

  // Issues one write; would_block and partial writes resume on writable.
  void write(int i) {
    tx_flow& f = tx_flows_[i];
    if (!load_on_ || !f.connected || f.closed) return;
    nk::buffer data = zeros_;
    if (f.accepted == 0) {
      std::vector<std::byte> first(write_size);
      const auto index = static_cast<std::uint64_t>(i);
      std::memcpy(first.data(), &index, header_bytes);
      data = nk::buffer::copy_of(first.data(), first.size());
    }
    const std::uint64_t req = (std::uint64_t(i) << 32) | (writes_ & 0xffffffffu);
    auto r = traced(spans_, span_name::api_send, req,
                    [&] { return tx_.api->send(f.sock, data); });
    if (!r) return;
    f.accepted += r.value();
    f.writes.emplace_back(f.accepted, bed_->sim().now());
    ++writes_;
    if (r.value() == write_size) kick(i);
  }

  void start_sink() {
    apps::socket_api& api = *rx_.api;
    listener_ = traced(spans_, span_name::api_open, 0, [&] { return api.open(); }).value();
    (void)traced(spans_, span_name::api_bind, 0, [&] { return api.bind(listener_, port); });
    (void)traced(spans_, span_name::api_listen, 0, [&] { return api.listen(listener_, 128); });
    rx_.api->on_event(listener_, [this](app_socket, app_event type, nk::errc) {
      if (type != app_event::accept_ready) return;
      while (true) {
        auto r = traced(spans_, span_name::api_accept, 0,
                        [&] { return rx_.api->accept(listener_); });
        if (!r) break;
        const app_socket s = r.value();
        ++accepted_;
        rx_flows_[s] = rx_flow{};
        rx_.api->on_event(s, [this](app_socket sock, app_event t, nk::errc) {
          if (t == app_event::readable) drain(sock);
        });
        drain(s);
      }
    });
  }

  void drain(app_socket s) {
    auto it = rx_flows_.find(s);
    if (it == rx_flows_.end() || it->second.eof) return;
    rx_flow& r = it->second;
    while (true) {
      auto got = traced(spans_, span_name::api_recv, s,
                        [&] { return rx_.api->recv(s, recv_quantum); });
      if (!got) {
        if (got.error() == nk::errc::closed) {
          r.eof = true;
          (void)traced(spans_, span_name::api_close, s,
                       [&] { return rx_.api->close(s); });
        }
        return;
      }
      const auto bytes = got.value().bytes();
      for (std::size_t k = 0; k < bytes.size() && r.bytes + k < header_bytes; ++k) {
        r.header[r.bytes + k] = static_cast<std::uint8_t>(bytes[k]);
      }
      r.bytes += bytes.size();
      delivered_ += bytes.size();
      if (r.index < 0 && r.bytes >= header_bytes) {
        std::uint64_t index = 0;
        std::memcpy(&index, r.header, header_bytes);
        r.index = index < flow_count ? static_cast<int>(index) : -2;
      }
      if (r.index >= 0) retire_writes(tx_flows_[static_cast<std::size_t>(r.index)], r.bytes);
    }
  }

  void retire_writes(tx_flow& f, std::uint64_t received) {
    const sim_time now = bed_->sim().now();
    while (!f.writes.empty() && f.writes.front().first <= received) {
      if (window_) {
        latency_us_.push_back(
            static_cast<double>((now - f.writes.front().second).count()) / 1e3);
      }
      f.writes.pop_front();
    }
  }

  span_recorder* spans_;
  std::unique_ptr<apps::testbed> bed_;
  apps::nk_tenant tx_;
  apps::nk_tenant rx_;
  nk::buffer zeros_;
  nk::rng draw_;  // flow stagger and think times
  tx_flow tx_flows_[flow_count];
  std::unordered_map<app_socket, rx_flow> rx_flows_;
  app_socket listener_ = 0;
  int accepted_ = 0;
  bool load_on_ = false;
  bool window_ = false;
  std::uint64_t delivered_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t errors_ = 0;
  std::vector<double> latency_us_;
};

}  // namespace

std::unique_ptr<sim_workload> make_bulk_dc(const run_params& p,
                                           const build_ctx& ctx) {
  return std::make_unique<bulk_dc>(p, ctx);
}

}  // namespace nkb
