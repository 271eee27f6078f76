#include "virt/vswitch.hpp"

#include <utility>

#include "obs/profiler.hpp"

namespace nk::virt {

int vswitch::add_port(egress out, bool bypass) {
  ports_.push_back(port{std::move(out), bypass});
  return static_cast<int>(ports_.size()) - 1;
}

void vswitch::remove_port(int port) {
  ports_[static_cast<std::size_t>(port)].out = nullptr;
  std::erase_if(routes_, [port](const auto& r) { return r.second == port; });
}

bool vswitch::is_bypass(int port_index) const {
  if (port_index == uplink_port) return true;  // pNIC is the hardware side
  return ports_[static_cast<std::size_t>(port_index)].bypass;
}

void vswitch::ingress(int from_port, net::packet p) {
  NK_PROF("vswitch", "forward");
  int to_port = uplink_port;
  if (auto it = routes_.find(p.ip.dst); it != routes_.end()) {
    to_port = it->second;
  } else if (from_port == uplink_port) {
    // Arrived from the wire for an address we do not host.
    ++stats_.no_route;
    return;
  }

  const bool hardware_hop = is_bypass(from_port) && is_bypass(to_port);
  if (hardware_hop || core_ == nullptr) {
    ++stats_.embedded_forwards;
    deliver(std::move(p), to_port);
    return;
  }

  ++stats_.software_forwards;
  core_->execute(forward_cost, [this, p = std::move(p), to_port]() mutable {
    deliver(std::move(p), to_port);
  });
}

void vswitch::deliver(net::packet p, int to_port) {
  if (to_port == uplink_port) {
    if (uplink_) uplink_(std::move(p));
    return;
  }
  auto& out = ports_[static_cast<std::size_t>(to_port)].out;
  if (out) out(std::move(p));  // a removed port drops it
}

}  // namespace nk::virt
