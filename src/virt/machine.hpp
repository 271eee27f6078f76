// A tenant virtual machine: guest-OS personality, vCPU cores, a vNIC on a
// software port of the hypervisor's vSwitch, and — when legacy networking is
// enabled — an in-guest network stack (the Figure 1a baseline). A
// NetKernel-attached VM may run without any in-guest stack: its networking
// is served by an NSM through GuestLib (Figure 1b).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "phys/nic.hpp"
#include "sim/cpu_core.hpp"
#include "stack/netstack.hpp"
#include "virt/guest_os.hpp"

namespace nk::virt {

using vm_id = std::uint16_t;

struct vm_config {
  std::string name = "vm";
  guest_os os = guest_os::linux_kernel;
  net::ipv4_addr address{};
  int vcpus = 2;                 // dedicated host cores; must be >= 1
  bool legacy_networking = true; // instantiate the in-guest stack
  // In-guest stack parameters (ignored when legacy_networking is false).
  stack::netstack_config guest_stack{};
  // Congestion control of the in-guest stack. Unset = the OS default
  // (native_cc). Setting an algorithm the guest kernel does not ship
  // (natively_available == false) makes machine construction throw — that
  // is the deployment barrier NetKernel exists to remove.
  std::optional<tcp::cc_algorithm> guest_cc{};
};

class hypervisor;

class machine {
 public:
  machine(sim::simulator& s, vm_id id, const vm_config& cfg,
          std::vector<sim::cpu_core*> vcpus);

  machine(const machine&) = delete;
  machine& operator=(const machine&) = delete;

  [[nodiscard]] vm_id id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] guest_os os() const { return cfg_.os; }
  [[nodiscard]] net::ipv4_addr address() const { return cfg_.address; }

  [[nodiscard]] phys::nic& vnic() { return vnic_; }

  // vCPU cores (GuestLib work and the legacy stack run here).
  [[nodiscard]] const std::vector<sim::cpu_core*>& vcpus() const {
    return vcpus_;
  }

  // In-guest stack; nullptr when the VM is NetKernel-only.
  [[nodiscard]] stack::netstack* guest_stack() { return guest_stack_.get(); }

  // The tenant half of a NetKernel attachment (GuestLib and the shared
  // memory it maps), owned like any in-guest library: it outlives a detach
  // and goes with the VM or the next half. Returns the previous half.
  std::shared_ptr<void> set_guest_half(std::shared_ptr<void> half) {
    return std::exchange(guest_half_, std::move(half));
  }

 private:
  vm_id id_;
  vm_config cfg_;
  phys::nic vnic_;
  std::vector<sim::cpu_core*> vcpus_;
  std::unique_ptr<stack::netstack> guest_stack_;
  std::shared_ptr<void> guest_half_;  // last: GuestLib refers to this VM
};

}  // namespace nk::virt
