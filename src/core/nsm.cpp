#include "core/nsm.hpp"

#include <stdexcept>

#include "nkq/transport.hpp"

namespace nk::core {

nsm::nsm(virt::hypervisor& host, nsm_id id, const nsm_config& cfg)
    : host_{host},
      id_{id},
      cfg_{cfg},
      profile_{profile_of(cfg.form)},
      vnic_{cfg.name + "/vnic"} {
  cfg_.tcp.cc = cfg.cc;
  ready_at_ = host.simulator().now() + profile_.startup_time;

  if (cfg.cores < 1) {
    throw std::invalid_argument("nsm " + cfg.name + ": cores must be >= 1");
  }
  for (int i = 0; i < cfg.cores; ++i) cores_.push_back(&host.allocate_core());

  stack::netstack_config scfg;
  scfg.name = cfg.name + "/stack";
  scfg.tcp = cfg_.tcp;
  scfg.tx_cost = cfg.tx_cost;
  scfg.rx_cost = cfg.rx_cost;
  // The form's per-packet overhead rides on both directions.
  scfg.tx_cost.per_packet += profile_.per_packet_overhead;
  scfg.rx_cost.per_packet += profile_.per_packet_overhead;

  stack_ = std::make_unique<stack::netstack>(host.simulator(), scfg,
                                             cfg.address);
  stack_->bind_nic(vnic_);
  for (auto* core : cores_) stack_->add_core(*core);

  // The tenant-selected protocol. A bad name is a tenant configuration
  // error: it throws here, at provisioning time, never at serving time.
  if (cfg_.transport == "nkq") {
    nkq_ = std::make_unique<nkq::nkq_transport>(*stack_);
  } else if (cfg_.transport != "tcp") {
    throw std::invalid_argument("unknown transport '" + cfg_.transport +
                                "' (known: nkq, tcp)");
  }

  // The vNIC is a VF of the pNIC: host-bypass forwarding.
  port_ = host.attach_nic(vnic_, cfg.address, /*sriov=*/true);
}

nsm::~nsm() { host_.detach_nic(port_); }

}  // namespace nk::core
