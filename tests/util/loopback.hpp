// Test harness: two netstacks joined by a duplex link, no virtualization
// layer — the minimal rig for exercising TCP end to end. Optionally a's
// frames first cross an access link (a's NIC to a switch), so the cable's
// forward direction is a switch port rather than a's own NIC queue.
#pragma once

#include <memory>
#include <optional>

#include "phys/link.hpp"
#include "phys/nic.hpp"
#include "sim/simulator.hpp"
#include "stack/netstack.hpp"

namespace nk::test {

struct loopback_params {
  std::uint64_t seed = 1;
  phys::link_config wire{};  // applied to both directions
  double forward_loss = -1.0;  // a->b loss override (< 0: use wire.loss_rate)
  std::optional<phys::link_config> access{};  // a->b hop before the cable
  tcp::tcp_config tcp_a{};
  tcp::tcp_config tcp_b{};
  stack::processing_cost tx_cost_a{};  // charged on cores added to stack a
};

struct loopback {
  explicit loopback(const loopback_params& p = {})
      : sim{p.seed},
        cable{sim, p.wire},
        access{p.access ? std::make_unique<phys::link>(sim, *p.access)
                        : nullptr},
        nic_a{"a"},
        nic_b{"b"},
        a{sim, make_cfg("a", p.tcp_a, p.tx_cost_a),
          net::ipv4_addr::from_octets(10, 0, 0, 1)},
        b{sim, make_cfg("b", p.tcp_b), net::ipv4_addr::from_octets(10, 0, 0, 2)} {
    if (p.forward_loss >= 0.0) cable.forward().set_loss_rate(p.forward_loss);
    phys::attach_duplex(nic_a, nic_b, cable);
    if (access) {
      nic_a.attach_tx(*access);
      access->set_sink(
          [this](net::packet pkt) { cable.forward().send(std::move(pkt)); });
    }
    a.bind_nic(nic_a);
    b.bind_nic(nic_b);
  }

  static stack::netstack_config make_cfg(const char* name,
                                         const tcp::tcp_config& tcp,
                                         stack::processing_cost tx_cost = {}) {
    stack::netstack_config cfg;
    cfg.name = name;
    cfg.tcp = tcp;
    cfg.tx_cost = tx_cost;
    return cfg;
  }

  [[nodiscard]] net::socket_addr addr_b(std::uint16_t port) const {
    return {net::ipv4_addr::from_octets(10, 0, 0, 2), port};
  }
  [[nodiscard]] net::socket_addr addr_a(std::uint16_t port) const {
    return {net::ipv4_addr::from_octets(10, 0, 0, 1), port};
  }

  void run_for(sim_time d) { sim.run_until(sim.now() + d); }

  sim::simulator sim;
  phys::duplex_link cable;
  std::unique_ptr<phys::link> access;  // null without params.access
  phys::nic nic_a;
  phys::nic nic_b;
  stack::netstack a;
  stack::netstack b;
};

// Fast LAN defaults: 10 Gb/s, 50 us RTT.
inline loopback_params lan_params(std::uint64_t seed = 1) {
  loopback_params p;
  p.seed = seed;
  p.wire.rate = data_rate::gbps(10);
  p.wire.propagation_delay = microseconds(25);
  tcp::tcp_config t;
  t.rto.min_rto = milliseconds(5);
  t.delayed_ack_timeout = milliseconds(1);
  p.tcp_a = t;
  p.tcp_b = t;
  return p;
}

}  // namespace nk::test
