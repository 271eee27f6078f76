#include "virt/machine.hpp"

#include <stdexcept>

namespace nk::virt {

machine::machine(sim::simulator& s, vm_id id, const vm_config& cfg,
                 std::vector<sim::cpu_core*> vcpus)
    : id_{id}, cfg_{cfg}, vnic_{cfg.name + "/vnic"}, vcpus_{std::move(vcpus)} {
  if (cfg_.legacy_networking) {
    auto stack_cfg = cfg_.guest_stack;
    if (stack_cfg.name == "stack") stack_cfg.name = cfg_.name + "/guest-stack";
    // The in-guest stack runs the OS's native congestion control unless the
    // tenant picked one — and then only if that guest kernel ships it. This
    // is the stack/kernel coupling the paper sets out to break.
    const tcp::cc_algorithm cc = cfg_.guest_cc.value_or(native_cc(cfg_.os));
    if (!natively_available(cfg_.os, cc)) {
      throw std::invalid_argument(
          std::string{to_string(cc)} + " is not available in a " +
          std::string{to_string(cfg_.os)} +
          " guest kernel; use a NetKernel NSM to get it");
    }
    stack_cfg.tcp.cc = cc;
    guest_stack_ =
        std::make_unique<stack::netstack>(s, stack_cfg, cfg_.address);
    guest_stack_->bind_nic(vnic_);
    for (auto* core : vcpus_) guest_stack_->add_core(*core);
  }
}

}  // namespace nk::virt
