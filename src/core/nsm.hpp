// Network Stack Module (NSM): the provider-operated entity that hosts a
// network stack on behalf of tenant VMs (paper §3.1).
//
// The paper's prototype realizes NSMs as KVM VMs (1 core, 1 GB RAM, an
// SR-IOV VF of the X710); §5 discusses containers and hypervisor modules as
// alternative forms with different overhead/isolation trade-offs. The form
// here selects an overhead profile (A10 times each form's failover boot).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "phys/nic.hpp"
#include "sim/cpu_core.hpp"
#include "stack/netstack.hpp"
#include "stack/transport.hpp"
#include "tcp/cc/congestion_controller.hpp"
#include "virt/hypervisor.hpp"

namespace nk::core {

using nsm_id = std::uint16_t;

enum class nsm_form { vm, container, hypervisor_module };

[[nodiscard]] constexpr std::string_view to_string(nsm_form f) {
  switch (f) {
    case nsm_form::vm: return "vm";
    case nsm_form::container: return "container";
    case nsm_form::hypervisor_module: return "hypervisor_module";
  }
  return "unknown";
}

struct form_profile {
  sim_time per_op_overhead{};      // extra ServiceLib dispatch latency
  sim_time per_packet_overhead{};  // extra per-packet stack cost
  sim_time startup_time{};         // boot latency before serving
  std::uint64_t memory_bytes = 0;  // resident footprint (accounting)
};

// VM: full guest kernel, vEXIT-ish costs, strong isolation. Container:
// shared-kernel process. Hypervisor module: function calls in the host,
// weakest isolation (paper §5 "NSM form").
// Costs assume the prototype's polling design (no VM exits on the data
// path); the VM form still pays vAPIC/EPT-style per-packet overheads.
[[nodiscard]] constexpr form_profile profile_of(nsm_form f) {
  switch (f) {
    case nsm_form::vm:
      return {nanoseconds(120), nanoseconds(30), milliseconds(900),
              1024ull * 1024 * 1024};
    case nsm_form::container:
      return {nanoseconds(60), nanoseconds(15), milliseconds(60),
              256ull * 1024 * 1024};
    case nsm_form::hypervisor_module:
      return {nanoseconds(20), nanoseconds(5), milliseconds(1),
              64ull * 1024 * 1024};
  }
  return {};
}

struct nsm_config {
  std::string name = "nsm";
  nsm_form form = nsm_form::vm;
  // The protocol this NSM serves: "tcp" or "nkq". Any other name throws
  // std::invalid_argument at NSM creation.
  std::string transport = "tcp";
  tcp::cc_algorithm cc = tcp::cc_algorithm::cubic;
  tcp::tcp_config tcp{};  // `cc` above is applied onto this
  int cores = 1;          // dedicated host cores, >= 1 (prototype: 1)
  net::ipv4_addr address{};
  // Provider-optimized stack: lighter per-byte processing than the legacy
  // guest kernel stack (the efficiency argument of §2.1).
  stack::processing_cost tx_cost{nanoseconds(100), 0.05};
  stack::processing_cost rx_cost{nanoseconds(100), 0.05};
};

class nsm {
 public:
  nsm(virt::hypervisor& host, nsm_id id, const nsm_config& cfg);
  // Unplugs the vNIC; the stack and transport cancel their own timers.
  ~nsm();

  nsm(const nsm&) = delete;
  nsm& operator=(const nsm&) = delete;

  [[nodiscard]] nsm_id id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] nsm_form form() const { return cfg_.form; }
  [[nodiscard]] const form_profile& profile() const { return profile_; }
  [[nodiscard]] const nsm_config& config() const { return cfg_; }
  [[nodiscard]] tcp::cc_algorithm cc() const { return cfg_.tcp.cc; }

  [[nodiscard]] stack::netstack& stack() { return *stack_; }
  // The protocol implementation ServiceLib drives. For transport="tcp" it
  // is stack() itself; a tenant-defined protocol (nkq) keeps its own
  // connection state on top of the stack's UDP plane.
  [[nodiscard]] stack::transport& transport() {
    return nkq_ ? *nkq_ : *stack_;
  }
  [[nodiscard]] phys::nic& vnic() { return vnic_; }
  // The dispatch core ServiceLib charges; the stack spreads its packet
  // work over all of cores().
  [[nodiscard]] sim::cpu_core& core() { return *cores_.front(); }
  [[nodiscard]] const std::vector<sim::cpu_core*>& cores() const {
    return cores_;
  }

  // Simulated time at which the NSM finished booting.
  [[nodiscard]] sim_time ready_at() const { return ready_at_; }

 private:
  virt::hypervisor& host_;
  nsm_id id_;
  nsm_config cfg_;
  form_profile profile_;
  phys::nic vnic_;
  std::vector<sim::cpu_core*> cores_;
  std::unique_ptr<stack::netstack> stack_;
  std::unique_ptr<stack::transport> nkq_;  // null for transport="tcp"
  int port_ = 0;  // the vNIC's vSwitch port
  sim_time ready_at_{};
};

}  // namespace nk::core
