// Hypervisor overlay switch (paper Figure 2): routes packets between tenant
// vNICs, NSM vNICs and the physical NIC. Two data paths coexist:
//
//  * software path — the vSwitch process forwards the packet, charging a
//    per-packet cost to a host core (OVS / Hyper-V Switch);
//  * embedded path — an SR-IOV virtual function bypasses the host; the
//    NIC's embedded hardware switch forwards for free.
//
// A hop is free only when *both* endpoints sit on the embedded switch.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "sim/cpu_core.hpp"

namespace nk::virt {

struct vswitch_stats {
  std::uint64_t software_forwards = 0;
  std::uint64_t embedded_forwards = 0;
  std::uint64_t no_route = 0;
};

class vswitch {
 public:
  // Host CPU one software-path forward costs, whatever the packet size.
  static constexpr sim_time forward_cost = nanoseconds(250);

  explicit vswitch(std::string name) : name_{std::move(name)} {}

  using egress = std::function<void(net::packet)>;

  // Adds a port. `bypass` = SR-IOV VF on the embedded switch.
  int add_port(egress out, bool bypass);
  // Unplugs a port: packets still bound for it are dropped, and every
  // route that names it goes (a route another port took over stays).
  void remove_port(int port);

  // The uplink to the pNIC (hardware side; counts as bypass).
  void set_uplink(egress out) { uplink_ = std::move(out); }

  void set_route(net::ipv4_addr dst, int port) { routes_[dst] = port; }

  // The core software-path forwards are charged to.
  void set_core(sim::cpu_core* core) { core_ = core; }

  // `from_port` is the ingress port index, or uplink_port for the pNIC.
  static constexpr int uplink_port = -1;
  void ingress(int from_port, net::packet p);

  [[nodiscard]] const vswitch_stats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct port {
    egress out;
    bool bypass = false;
  };

  void deliver(net::packet p, int to_port);
  [[nodiscard]] bool is_bypass(int port_index) const;

  std::string name_;
  std::vector<port> ports_;
  egress uplink_;
  std::unordered_map<net::ipv4_addr, int> routes_;
  sim::cpu_core* core_ = nullptr;
  vswitch_stats stats_;
};

}  // namespace nk::virt
