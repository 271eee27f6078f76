// A physical host: a pool of CPU cores, a vSwitch with software and
// embedded (SR-IOV) paths, a physical NIC, and the VMs it hosts. Two hosts
// are joined by connect_hosts() through a duplex link — the "testbed" of
// the paper's §4, or the WAN path of Figure 5.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "phys/link.hpp"
#include "phys/nic.hpp"
#include "sim/cpu_core.hpp"
#include "sim/simulator.hpp"
#include "virt/machine.hpp"
#include "virt/vswitch.hpp"

namespace nk::virt {

struct host_config {
  std::string name = "host";
};

class hypervisor {
 public:
  hypervisor(sim::simulator& s, const host_config& cfg);

  hypervisor(const hypervisor&) = delete;
  hypervisor& operator=(const hypervisor&) = delete;

  [[nodiscard]] sim::simulator& simulator() { return sim_; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] vswitch& overlay_switch() { return vswitch_; }
  [[nodiscard]] phys::nic& pnic() { return pnic_; }

  // Hands out a dedicated core, `<host>/core<N>`. Core 0 is the vSwitch's;
  // the pool grows on demand, so every consumer of modeled CPU gets a real
  // core and no cycle runs free.
  [[nodiscard]] sim::cpu_core& allocate_core();

  // Creates a VM with cfg.vcpus dedicated cores, wires its vNIC to a
  // software port of the vSwitch, and routes its address. Throws
  // std::invalid_argument when cfg.vcpus < 1.
  machine& create_vm(const vm_config& cfg);

  [[nodiscard]] machine* vm_by_id(vm_id id);
  [[nodiscard]] const std::vector<std::unique_ptr<machine>>& vms() const {
    return vms_;
  }

  // Registers a nic on the vSwitch: a software port, or an embedded (SR-IOV
  // VF) port when `sriov` — an NSM's vNIC.
  int attach_nic(phys::nic& dev, net::ipv4_addr addr, bool sriov);
  // Unplugs the nic on `port` (returned by attach_nic) before it dies.
  void detach_nic(int port) { vswitch_.remove_port(port); }

  // Unique shared-memory region keys (IVSHMEM broker role).
  [[nodiscard]] std::uint32_t next_region_key() { return next_region_key_++; }

  // Joins two hosts through a duplex link owned by host `a`.
  static phys::duplex_link& connect_hosts(hypervisor& a, hypervisor& b,
                                          const phys::link_config& cfg);

 private:
  sim::simulator& sim_;
  host_config cfg_;
  std::vector<std::unique_ptr<sim::cpu_core>> cores_;
  vswitch vswitch_;
  phys::nic pnic_;
  std::vector<std::unique_ptr<machine>> vms_;
  std::vector<std::unique_ptr<phys::duplex_link>> cables_;
  vm_id next_vm_id_ = 1;
  std::uint32_t next_region_key_ = 1;
};

}  // namespace nk::virt
