#include "virt/hypervisor.hpp"

#include <stdexcept>

namespace nk::virt {

hypervisor::hypervisor(sim::simulator& s, const host_config& cfg)
    : sim_{s},
      cfg_{cfg},
      vswitch_{cfg.name + "/vswitch"},
      pnic_{cfg.name + "/pnic"} {
  // The vSwitch software path runs on core 0.
  vswitch_.set_core(&allocate_core());
  // Wire pNIC <-> vSwitch.
  vswitch_.set_uplink([this](net::packet p) { pnic_.transmit(std::move(p)); });
  pnic_.set_receive_handler([this](net::packet p) {
    vswitch_.ingress(vswitch::uplink_port, std::move(p));
  });
}

sim::cpu_core& hypervisor::allocate_core() {
  cores_.push_back(std::make_unique<sim::cpu_core>(
      sim_, cfg_.name + "/core" + std::to_string(cores_.size())));
  return *cores_.back();
}

int hypervisor::attach_nic(phys::nic& dev, net::ipv4_addr addr,
                              bool sriov) {
  const int port = vswitch_.add_port(
      [&dev](net::packet p) { dev.receive(std::move(p)); }, sriov);
  vswitch_.set_route(addr, port);
  // Device egress enters the vSwitch at its own port.
  dev.attach_tx([this, port](net::packet p) {
    vswitch_.ingress(port, std::move(p));
  });
  return port;
}

machine& hypervisor::create_vm(const vm_config& cfg) {
  if (cfg.vcpus < 1) {
    throw std::invalid_argument("vm " + cfg.name + ": vcpus must be >= 1");
  }
  std::vector<sim::cpu_core*> vcpus;
  for (int i = 0; i < cfg.vcpus; ++i) {
    vcpus.push_back(&allocate_core());
  }
  auto vm =
      std::make_unique<machine>(sim_, next_vm_id_++, cfg, std::move(vcpus));
  machine& ref = *vm;
  attach_nic(ref.vnic(), cfg.address, /*sriov=*/false);
  vms_.push_back(std::move(vm));
  return ref;
}

machine* hypervisor::vm_by_id(vm_id id) {
  for (auto& vm : vms_) {
    if (vm->id() == id) return vm.get();
  }
  return nullptr;
}

phys::duplex_link& hypervisor::connect_hosts(hypervisor& a, hypervisor& b,
                                             const phys::link_config& cfg) {
  auto cable = std::make_unique<phys::duplex_link>(a.sim_, cfg);
  phys::duplex_link& ref = *cable;
  phys::attach_duplex(a.pnic(), b.pnic(), ref);
  a.cables_.push_back(std::move(cable));
  return ref;
}

}  // namespace nk::virt
