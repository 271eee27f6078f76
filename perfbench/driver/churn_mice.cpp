// churn_mice: one VM pair; an open-loop Poisson stream of 20 k flows per
// modeled second with sizes drawn from the data-mining mix (truncated at
// 1 MB). Each flow connects, sends its bytes and closes. The schedule and
// sizes are generated here from the seed (sizes stratified over the CDF);
// a flow's completion time runs from its *scheduled* arrival to the
// receiver reading EOF, so connection set-up and any generator lag count. One op is one flow; latency samples
// are the mice (< 100 KB) that arrived inside the window.
#include <algorithm>
#include <cmath>
#include <cstring>
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

constexpr std::uint16_t port = 9000;
constexpr double arrivals_per_s = 20'000.0;
constexpr std::uint64_t max_flow_bytes = 1024 * 1024;
constexpr std::uint64_t mice_bytes = 100 * 1024;
constexpr std::size_t write_size = 64 * 1024;
constexpr std::size_t recv_quantum = 256 * 1024;
constexpr std::size_t header_bytes = sizeof(std::uint64_t);  // flow id

// Data-mining flow-size CDF (VL2 measurement, as used by pFabric and
// DCTCP-era simulations): flow size in 1460-byte packets -> cumulative
// probability. Linear interpolation between points.
struct cdf_point {
  double packets;
  double p;
};
constexpr cdf_point datamining[] = {
    {1, 0.0},     {1, 0.5},      {2, 0.6},       {3, 0.7},     {7, 0.8},
    {267, 0.9},   {2107, 0.95},  {66667, 0.99},  {666667, 1.0},
};

// Flow size for CDF quantile u in [0, 1).
std::uint64_t size_at(double u) {
  double packets = datamining[std::size(datamining) - 1].packets;
  for (std::size_t i = 1; i < std::size(datamining); ++i) {
    const cdf_point& lo = datamining[i - 1];
    const cdf_point& hi = datamining[i];
    if (u <= hi.p) {
      const double span = hi.p - lo.p;
      packets = span <= 0.0 ? hi.packets
                            : lo.packets + (u - lo.p) / span * (hi.packets - lo.packets);
      break;
    }
  }
  const auto bytes = static_cast<std::uint64_t>(std::llround(packets * 1460.0));
  return std::clamp<std::uint64_t>(bytes, header_bytes, max_flow_bytes);
}

// Stratified draws: every block of `strata` consecutive flows takes exactly
// one quantile from each 1/strata slice of the CDF, in seed-shuffled order.
// The mix of any run (its elephants above all) then matches the CDF, and
// seeds differ in order and arrival times rather than in offered load.
constexpr std::size_t strata = 100;

class size_sampler {
 public:
  explicit size_sampler(nk::rng& r) : r_{r} {}
  std::uint64_t next() {
    if (next_ == order_.size()) {
      order_.resize(strata);
      for (std::size_t i = 0; i < strata; ++i) order_[i] = i;
      for (std::size_t i = strata - 1; i > 0; --i) {
        std::swap(order_[i], order_[r_.next_below(i + 1)]);
      }
      next_ = 0;
    }
    const double u = (static_cast<double>(order_[next_++]) + r_.next_double()) /
                     static_cast<double>(strata);
    return size_at(u);
  }

 private:
  nk::rng& r_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
};

class churn_mice final : public sim_workload {
 public:
  churn_mice(const run_params& p, const build_ctx& ctx)
      : spans_{ctx.spans},
        bed_{make_testbed(p, ctx)},
        zeros_{nk::buffer::zeroed(write_size)} {
    nk::core::nsm_config nsm_cfg;
    nsm_cfg.tcp = apps::datacenter_tcp(nk::tcp::cc_algorithm::cubic);
    nsm_cfg.cc = nk::tcp::cc_algorithm::cubic;
    nk::virt::vm_config vm_cfg;
    vm_cfg.vcpus = 4;
    vm_cfg.name = "client-vm";
    nsm_cfg.name = "nsm-client";
    client_ = add_tenant(*bed_, apps::side::a, vm_cfg, nsm_cfg, nullptr, ctx);
    vm_cfg.name = "server-vm";
    nsm_cfg.name = "nsm-server";
    server_ = add_tenant(*bed_, apps::side::b, vm_cfg, nsm_cfg, nullptr, ctx);
    dest_ = {server_.module->config().address, port};
    start_sink();

    // The whole schedule is generated before the run: Poisson arrivals
    // over the load horizon, one size per flow.
    nk::rng draw{p.seed * 0x9e3779b97f4a7c15ULL + 3};
    size_sampler sizes{draw};
    double t_ns = 0.0;
    while (true) {
      t_ns += draw.exponential(1e9 / arrivals_per_s);
      if (t_ns >= static_cast<double>(ctx.load_horizon.count())) break;
      flow f;
      f.offset = nk::nanoseconds(static_cast<std::int64_t>(t_ns));
      f.size = sizes.next();
      flows_.push_back(f);
      offered_bytes_ += f.size;
    }

    // One probe connection proves the listener is up before any flow.
    apps::socket_api& api = *client_.api;
    probe_ = traced(spans_, span_name::api_open, 0, [&] { return api.open(); }).value();
    api.on_event(probe_, [this](app_socket sock, app_event type, nk::errc) {
      if (type == app_event::connected) {
        probe_up_ = true;
        (void)traced(spans_, span_name::api_close, 0,
                     [&] { return client_.api->close(sock); });
      } else if (type == app_event::error) {
        ++probe_errors_;
      }
    });
    if (!traced(spans_, span_name::api_connect, 0,
                [&] { return api.connect(probe_, dest_); })) {
      ++probe_errors_;
    }
  }

  apps::testbed& bed() override { return *bed_; }
  bool ready() const override { return probe_up_; }

  void start_load() override {
    load_on_ = true;
    load_start_ = bed_->sim().now();
    schedule_next();
  }
  void set_window(bool open) override { window_ = open; }
  void stop_load() override { load_on_ = false; }
  bool drained() const override {
    return completed_ + failed_flows_ >= started_;
  }

  double ops_completed() const override { return static_cast<double>(completed_); }
  std::uint64_t bytes_delivered() const override { return delivered_; }
  std::uint64_t flows_opened() const override { return started_ + 1; }
  std::vector<double>& latencies_us() override { return latency_us_; }

  std::uint64_t attempted() const override { return started_; }
  std::uint64_t failed() const override {
    return probe_errors_ + (started_ - completed_);
  }

  void check(check_log& log) const override {
    log.expect(size_mismatch_ == 0, std::to_string(size_mismatch_) +
                                        " flows received a byte count other than sent");
    log.expect(bad_header_ == 0,
               std::to_string(bad_header_) + " flows arrived with a corrupt header");
  }

  std::string params_json() const override {
    return "{\"arrivals_per_s\":20000,\"loop\":\"open\",\"size_mix\":\"datamining\","
           "\"max_flow_bytes\":1048576,\"size_strata\":100,"
           "\"mice_below_bytes\":102400,"
           "\"flows_scheduled\":" + std::to_string(flows_.size()) +
           ",\"offered_bytes\":" + std::to_string(offered_bytes_) +
           ",\"warmup_ms\":20}";
  }

 private:
  struct flow {
    sim_time offset{};  // scheduled arrival, from start_load()
    std::uint64_t size = 0;
    app_socket sock = 0;
    std::uint64_t sent = 0;
    bool in_window = false;
    bool failed = false;
  };
  struct rx_flow {
    std::uint64_t bytes = 0;
    std::uint8_t header[header_bytes]{};
  };

  void schedule_next() {
    if (!load_on_ || next_ >= flows_.size()) return;
    bed_->sim().schedule_at(load_start_ + flows_[next_].offset, [this] {
      if (!load_on_) return;
      start_flow(next_++);
      schedule_next();
    });
  }

  void start_flow(std::size_t id) {
    flow& f = flows_[id];
    f.in_window = window_;
    ++started_;
    auto s = traced(spans_, span_name::api_open, id, [&] { return client_.api->open(); });
    if (!s) {
      fail_flow(id);
      return;
    }
    f.sock = s.value();
    client_.api->on_event(f.sock, [this, id](app_socket, app_event type, nk::errc) {
      if (type == app_event::connected || type == app_event::writable) {
        pump(id);
      } else if (type == app_event::error) {
        fail_flow(id);
      }
    });
    if (!traced(spans_, span_name::api_connect, id,
                [&] { return client_.api->connect(f.sock, dest_); })) {
      fail_flow(id);
    }
  }

  // A connect error or reset: the flow will never complete.
  void fail_flow(std::size_t id) {
    flow& f = flows_[id];
    if (f.failed) return;
    f.failed = true;
    ++failed_flows_;
  }

  void pump(std::size_t id) {
    flow& f = flows_[id];
    while (f.sent < f.size) {
      const std::size_t want =
          static_cast<std::size_t>(std::min<std::uint64_t>(write_size, f.size - f.sent));
      nk::buffer data = zeros_.prefix(want);
      if (f.sent == 0) {
        std::vector<std::byte> first(want);
        const std::uint64_t tag = id;
        std::memcpy(first.data(), &tag, header_bytes);
        data = nk::buffer::copy_of(first.data(), first.size());
      }
      auto r = traced(spans_, span_name::api_send, id,
                      [&] { return client_.api->send(f.sock, data); });
      if (!r) return;  // would_block: resume on writable
      f.sent += r.value();
      if (r.value() < want) return;
    }
    (void)traced(spans_, span_name::api_close, id,
                 [&] { return client_.api->close(f.sock); });
  }

  void start_sink() {
    apps::socket_api& api = *server_.api;
    listener_ = traced(spans_, span_name::api_open, 0, [&] { return api.open(); }).value();
    (void)traced(spans_, span_name::api_bind, 0, [&] { return api.bind(listener_, port); });
    (void)traced(spans_, span_name::api_listen, 0, [&] { return api.listen(listener_, 4096); });
    api.on_event(listener_, [this](app_socket, app_event type, nk::errc) {
      if (type != app_event::accept_ready) return;
      while (true) {
        auto r = traced(spans_, span_name::api_accept, 0,
                        [&] { return server_.api->accept(listener_); });
        if (!r) break;
        const app_socket s = r.value();
        rx_[s] = rx_flow{};
        server_.api->on_event(s, [this](app_socket sock, app_event t, nk::errc) {
          if (t == app_event::readable) drain(sock);
        });
        drain(s);
      }
    });
  }

  void drain(app_socket s) {
    auto it = rx_.find(s);
    if (it == rx_.end()) return;
    rx_flow& r = it->second;
    while (true) {
      auto got = traced(spans_, span_name::api_recv, s,
                        [&] { return server_.api->recv(s, recv_quantum); });
      if (!got) {
        if (got.error() == nk::errc::closed) finish(s, r);
        return;
      }
      const auto bytes = got.value().bytes();
      for (std::size_t k = 0; k < bytes.size() && r.bytes + k < header_bytes; ++k) {
        r.header[r.bytes + k] = static_cast<std::uint8_t>(bytes[k]);
      }
      r.bytes += bytes.size();
      delivered_ += bytes.size();
    }
  }

  void finish(app_socket s, const rx_flow& r) {
    std::uint64_t id = 0;
    std::memcpy(&id, r.header, header_bytes);
    if (r.bytes == 0) {
      // The set-up probe: connected and closed without data.
    } else if (r.bytes < header_bytes || id >= flows_.size()) {
      ++bad_header_;
    } else {
      const flow& f = flows_[id];
      if (r.bytes != f.size) ++size_mismatch_;
      ++completed_;
      if (f.in_window && f.size < mice_bytes) {
        const sim_time fct = bed_->sim().now() - (load_start_ + f.offset);
        latency_us_.push_back(static_cast<double>(fct.count()) / 1e3);
      }
    }
    rx_.erase(s);
    (void)traced(spans_, span_name::api_close, s, [&] { return server_.api->close(s); });
  }

  span_recorder* spans_;
  std::unique_ptr<apps::testbed> bed_;
  apps::nk_tenant client_;
  apps::nk_tenant server_;
  nk::net::socket_addr dest_{};
  nk::buffer zeros_;
  std::vector<flow> flows_;
  std::unordered_map<app_socket, rx_flow> rx_;
  app_socket listener_ = 0;
  app_socket probe_ = 0;
  bool probe_up_ = false;
  bool load_on_ = false;
  bool window_ = false;
  sim_time load_start_{};
  std::size_t next_ = 0;
  std::uint64_t offered_bytes_ = 0;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t failed_flows_ = 0;
  std::uint64_t probe_errors_ = 0;
  std::uint64_t size_mismatch_ = 0;
  std::uint64_t bad_header_ = 0;
  std::vector<double> latency_us_;
};

}  // namespace

std::unique_ptr<sim_workload> make_churn_mice(const run_params& p,
                                              const build_ctx& ctx) {
  return std::make_unique<churn_mice>(p, ctx);
}

}  // namespace nkb
