// Network device endpoint a network stack binds to: a `nic` hands
// transmitted packets to a configurable egress (a phys::link, a vSwitch
// port, ...) and received packets to its handler. Physical NICs, tenant
// vNICs and SR-IOV virtual functions are all nics.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "net/packet.hpp"
#include "phys/link.hpp"

namespace nk::phys {

struct nic_stats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
};

class nic {
 public:
  explicit nic(std::string name) : name_{std::move(name)} {}

  using tx_sink = std::function<void(net::packet)>;
  using rx_handler = std::function<void(net::packet)>;

  // Egress wiring: a raw sink, or a link for convenience.
  void attach_tx(tx_sink out) { tx_ = std::move(out); }
  void attach_tx(link& out) {
    tx_ = [&out](net::packet p) { out.send(std::move(p)); };
  }

  void transmit(net::packet p) {
    ++stats_.tx_packets;
    stats_.tx_bytes += p.wire_size();
    if (tx_) tx_(std::move(p));
  }

  void set_receive_handler(rx_handler handler) {
    rx_handler_ = std::move(handler);
  }

  // Entry point wired as the sink of the inbound link / switch port.
  void receive(net::packet p) {
    ++stats_.rx_packets;
    stats_.rx_bytes += p.wire_size();
    if (rx_handler_) rx_handler_(std::move(p));
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const nic_stats& stats() const { return stats_; }

 private:
  std::string name_;
  tx_sink tx_;
  rx_handler rx_handler_;
  nic_stats stats_;
};

// Wires `a` and `b` together through a duplex link: a.transmit() arrives at
// b's receive handler and vice versa.
inline void attach_duplex(nic& a, nic& b, duplex_link& cable) {
  a.attach_tx(cable.forward());
  cable.forward().set_sink([&b](net::packet p) { b.receive(std::move(p)); });
  b.attach_tx(cable.backward());
  cable.backward().set_sink([&a](net::packet p) { a.receive(std::move(p)); });
}

}  // namespace nk::phys
