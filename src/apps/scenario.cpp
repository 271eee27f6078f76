#include "apps/scenario.hpp"

namespace nk::apps {

tcp::tcp_config datacenter_tcp(tcp::cc_algorithm cc) {
  tcp::tcp_config cfg;
  cfg.cc = cc;
  cfg.mss = 8930;  // jumbo frames (9000-byte MTU), standard for 40 GbE
  cfg.send_buffer = 4 * 1024 * 1024;
  cfg.recv_buffer = 4 * 1024 * 1024;
  cfg.delayed_ack_timeout = microseconds(500);
  cfg.rto.min_rto = milliseconds(5);
  return cfg;
}

tcp::tcp_config wan_tcp(tcp::cc_algorithm cc) {
  tcp::tcp_config cfg;
  cfg.cc = cc;
  cfg.mss = 1448;
  // >= BDP (12 Mb/s x 350 ms = 525 KB) so the window never binds.
  cfg.send_buffer = 4 * 1024 * 1024;
  cfg.recv_buffer = 4 * 1024 * 1024;
  cfg.delayed_ack_timeout = milliseconds(40);
  cfg.rto.min_rto = milliseconds(200);
  return cfg;
}

stack::processing_cost legacy_stack_cost() {
  return stack::processing_cost{nanoseconds(300), 0.17};
}

testbed_params datacenter_params(std::uint64_t seed) {
  testbed_params p;
  p.seed = seed;
  p.wire.rate = data_rate::gbps(40);
  p.wire.propagation_delay = microseconds(5);
  p.wire.loss_rate = 0.0;
  p.wire.queue.capacity_bytes = 2 * 1024 * 1024;
  p.host_a.name = "host-a";
  p.host_b.name = "host-b";
  return p;
}

testbed_params wan_params(std::uint64_t seed, double loss_rate) {
  testbed_params p;
  p.seed = seed;
  p.wire.rate = data_rate::mbps(12);
  p.wire.propagation_delay = milliseconds(175);  // 350 ms RTT
  p.wire.loss_rate = loss_rate;
  // A shallow-ish WAN uplink buffer (~250 ms at 12 Mb/s).
  p.wire.queue.capacity_bytes = 384 * 1024;
  p.host_a.name = "server-bj";
  p.host_b.name = "client-ca";
  return p;
}

testbed::testbed(const testbed_params& params) : sim_{params.seed} {
  host_a_ = std::make_unique<virt::hypervisor>(sim_, params.host_a);
  host_b_ = std::make_unique<virt::hypervisor>(sim_, params.host_b);
  wire_ = &virt::hypervisor::connect_hosts(*host_a_, *host_b_, params.wire);
  ce_a_ = std::make_unique<core::core_engine>(*host_a_, params.netkernel);
  ce_b_ = std::make_unique<core::core_engine>(*host_b_, params.netkernel);
  // Each engine sees the wire from its own side: "egress" is the direction
  // that carries this host's transmissions.
  wire_->forward().register_metrics(ce_a_->metrics(), "wire_egress");
  wire_->backward().register_metrics(ce_a_->metrics(), "wire_ingress");
  wire_->backward().register_metrics(ce_b_->metrics(), "wire_egress");
  wire_->forward().register_metrics(ce_b_->metrics(), "wire_ingress");
  prof_ = std::make_unique<obs::profiler>(sim_);
}

net::ipv4_addr testbed::next_address(side s) {
  if (s == side::a) {
    return net::ipv4_addr::from_octets(10, 0, 1, next_host_octet_a_++);
  }
  return net::ipv4_addr::from_octets(10, 0, 2, next_host_octet_b_++);
}

legacy_tenant testbed::add_legacy_vm(side s, virt::vm_config cfg) {
  if (cfg.address.is_unspecified()) cfg.address = next_address(s);
  cfg.legacy_networking = true;
  if (cfg.guest_stack.tx_cost.ns_per_byte == 0.0) {
    cfg.guest_stack.tx_cost = legacy_stack_cost();
    cfg.guest_stack.rx_cost = legacy_stack_cost();
  }
  legacy_tenant tenant;
  tenant.vm = &host(s).create_vm(cfg);
  tenant.api =
      std::make_unique<native_socket_api>(*tenant.vm->guest_stack());
  return tenant;
}

nk_tenant testbed::add_netkernel_vm(side s, virt::vm_config vm_cfg,
                                    core::nsm_config nsm_cfg) {
  if (nsm_cfg.address.is_unspecified()) nsm_cfg.address = next_address(s);
  core::nsm& module = netkernel(s).create_nsm(nsm_cfg);
  return attach_netkernel_vm(s, std::move(vm_cfg), module);
}

nk_tenant testbed::attach_netkernel_vm(side s, virt::vm_config vm_cfg,
                                       core::nsm& module) {
  // A NetKernel VM needs no in-guest stack and, with the NSM owning the
  // network identity, no routed address of its own.
  vm_cfg.legacy_networking = false;
  if (vm_cfg.address.is_unspecified()) vm_cfg.address = next_address(s);

  nk_tenant tenant;
  tenant.vm = &host(s).create_vm(vm_cfg);
  tenant.module = &module;
  tenant.glib = &netkernel(s).attach_vm(*tenant.vm, module);
  tenant.api = std::make_unique<netkernel_socket_api>(*tenant.glib);
  return tenant;
}

}  // namespace nk::apps
