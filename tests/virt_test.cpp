// Virtualization-layer tests: guest personalities, vSwitch paths, host
// resources, VM wiring.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "core/nsm.hpp"
#include "virt/guest_os.hpp"
#include "virt/hypervisor.hpp"
#include "virt/machine.hpp"
#include "virt/vswitch.hpp"

namespace nk::virt {
namespace {

TEST(guest_os, native_congestion_control) {
  EXPECT_EQ(native_cc(guest_os::linux_kernel), tcp::cc_algorithm::cubic);
  EXPECT_EQ(native_cc(guest_os::windows_server), tcp::cc_algorithm::compound);
  EXPECT_EQ(native_cc(guest_os::freebsd), tcp::cc_algorithm::newreno);
}

TEST(guest_os, bbr_only_ships_on_linux) {
  EXPECT_TRUE(natively_available(guest_os::linux_kernel,
                                 tcp::cc_algorithm::bbr));
  EXPECT_FALSE(natively_available(guest_os::windows_server,
                                  tcp::cc_algorithm::bbr));
  EXPECT_FALSE(natively_available(guest_os::freebsd, tcp::cc_algorithm::bbr));
}

TEST(machine, windows_guest_cannot_mount_bbr_natively) {
  sim::simulator s;
  hypervisor host{s, host_config{.name = "h"}};
  vm_config cfg;
  cfg.name = "win";
  cfg.os = guest_os::windows_server;
  cfg.address = net::ipv4_addr::from_octets(10, 0, 0, 1);
  cfg.guest_cc = tcp::cc_algorithm::bbr;
  // This is the deployment barrier of §1: no NetKernel, no BBR on Windows.
  EXPECT_THROW((void)host.create_vm(cfg), std::invalid_argument);
}

TEST(machine, guest_stack_defaults_to_os_native_cc) {
  sim::simulator s;
  hypervisor host{s, host_config{.name = "h"}};
  vm_config cfg;
  cfg.name = "win";
  cfg.os = guest_os::windows_server;
  cfg.address = net::ipv4_addr::from_octets(10, 0, 0, 1);
  machine& vm = host.create_vm(cfg);
  ASSERT_NE(vm.guest_stack(), nullptr);
  // Open a socket and check its controller name.
  auto listener = vm.guest_stack()->listen(80);
  ASSERT_TRUE(listener.ok());
  // The config flows into new connections; verify via a connect tcb.
  auto conn = vm.guest_stack()->connect(
      {net::ipv4_addr::from_octets(10, 0, 0, 2), 80});
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(vm.guest_stack()->tcb_of(conn.value())->cc().name(), "compound");
}

TEST(machine, netkernel_only_vm_has_no_guest_stack) {
  sim::simulator s;
  hypervisor host{s, host_config{.name = "h"}};
  vm_config cfg;
  cfg.name = "nk";
  cfg.address = net::ipv4_addr::from_octets(10, 0, 0, 1);
  cfg.legacy_networking = false;
  machine& vm = host.create_vm(cfg);
  EXPECT_EQ(vm.guest_stack(), nullptr);
}

TEST(hypervisor, core_pool_grows_on_demand) {
  sim::simulator s;
  hypervisor host{s, host_config{.name = "h"}};
  // Core 0 is the vSwitch's; every allocation after it is a fresh core.
  std::set<const sim::cpu_core*> seen;
  for (int i = 1; i <= 40; ++i) {
    const sim::cpu_core& core = host.allocate_core();
    EXPECT_EQ(core.name(), "h/core" + std::to_string(i));
    EXPECT_TRUE(seen.insert(&core).second);
  }
  EXPECT_EQ(seen.size(), 40u);
}

TEST(hypervisor, vm_without_vcpus_is_rejected) {
  sim::simulator s;
  hypervisor host{s, host_config{.name = "h"}};
  vm_config cfg;
  cfg.legacy_networking = false;
  cfg.vcpus = 0;
  EXPECT_THROW((void)host.create_vm(cfg), std::invalid_argument);
  EXPECT_TRUE(host.vms().empty());
}

TEST(hypervisor, vm_ids_are_unique) {
  sim::simulator s;
  hypervisor host{s, host_config{.name = "h"}};
  vm_config cfg;
  cfg.legacy_networking = false;
  cfg.address = net::ipv4_addr::from_octets(10, 0, 0, 1);
  machine& a = host.create_vm(cfg);
  cfg.address = net::ipv4_addr::from_octets(10, 0, 0, 2);
  machine& b = host.create_vm(cfg);
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(host.vm_by_id(a.id()), &a);
  EXPECT_EQ(host.vm_by_id(b.id()), &b);
}

TEST(vswitch, software_hop_charges_core) {
  sim::simulator s;
  sim::cpu_core core{s, "sw"};
  vswitch sw{"sw"};
  sw.set_core(&core);
  int delivered = 0;
  const int port = sw.add_port([&](net::packet) { ++delivered; }, false);
  const auto dst = net::ipv4_addr::from_octets(10, 0, 0, 1);
  sw.set_route(dst, port);

  net::packet p;
  p.ip.dst = dst;
  sw.ingress(vswitch::uplink_port, p);
  s.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(sw.stats().software_forwards, 1u);
  EXPECT_EQ(core.busy_time(), vswitch::forward_cost);
}

TEST(vswitch, sriov_to_uplink_bypasses_host) {
  sim::simulator s;
  sim::cpu_core core{s, "sw"};
  vswitch sw{"sw"};
  sw.set_core(&core);
  net::packet out;
  bool sent = false;
  sw.set_uplink([&](net::packet p) {
    out = std::move(p);
    sent = true;
  });
  const int vf = sw.add_port([](net::packet) {}, true);  // SR-IOV VF
  (void)vf;

  net::packet p;
  p.ip.dst = net::ipv4_addr::from_octets(99, 0, 0, 1);  // remote
  sw.ingress(0, p);  // from the VF port
  s.run();
  EXPECT_TRUE(sent);
  EXPECT_EQ(sw.stats().embedded_forwards, 1u);
  EXPECT_EQ(core.busy_time(), sim_time::zero());  // no host CPU spent
}

TEST(vswitch, unknown_destination_from_wire_is_dropped) {
  sim::simulator s;
  vswitch sw{"sw"};
  net::packet p;
  p.ip.dst = net::ipv4_addr::from_octets(1, 2, 3, 4);
  sw.ingress(vswitch::uplink_port, p);
  EXPECT_EQ(sw.stats().no_route, 1u);
}

TEST(hypervisor, two_hosts_route_vm_to_vm) {
  sim::simulator s;
  hypervisor ha{s, host_config{.name = "ha"}};
  hypervisor hb{s, host_config{.name = "hb"}};
  phys::link_config wire;
  wire.rate = data_rate::gbps(10);
  wire.propagation_delay = microseconds(10);
  hypervisor::connect_hosts(ha, hb, wire);

  vm_config ca;
  ca.name = "vma";
  ca.address = net::ipv4_addr::from_octets(10, 0, 1, 1);
  machine& vma = ha.create_vm(ca);
  vm_config cb;
  cb.name = "vmb";
  cb.address = net::ipv4_addr::from_octets(10, 0, 2, 1);
  machine& vmb = hb.create_vm(cb);

  // End-to-end TCP through vNIC -> vSwitch -> pNIC -> wire -> ... -> vNIC.
  ASSERT_TRUE(vmb.guest_stack()->listen(5001).ok());
  auto conn = vma.guest_stack()->connect({cb.address, 5001});
  ASSERT_TRUE(conn.ok());
  s.run_until(milliseconds(50));
  ASSERT_NE(vma.guest_stack()->tcb_of(conn.value()), nullptr);
  EXPECT_EQ(vma.guest_stack()->tcb_of(conn.value())->state(),
            tcp::tcp_state::established);
}

TEST(nsm_forms, profiles_are_ordered_by_weight) {
  using core::nsm_form;
  using core::profile_of;
  const auto vm = profile_of(nsm_form::vm);
  const auto ct = profile_of(nsm_form::container);
  const auto hv = profile_of(nsm_form::hypervisor_module);
  EXPECT_GT(vm.per_op_overhead, ct.per_op_overhead);
  EXPECT_GT(ct.per_op_overhead, hv.per_op_overhead);
  EXPECT_GT(vm.startup_time, ct.startup_time);
  EXPECT_GT(vm.memory_bytes, hv.memory_bytes);
}

TEST(nsm_forms, nsm_without_cores_is_rejected) {
  sim::simulator s;
  hypervisor host{s, host_config{.name = "h"}};
  core::nsm_config cfg;
  cfg.address = net::ipv4_addr::from_octets(10, 0, 0, 9);
  cfg.cores = 0;
  EXPECT_THROW(core::nsm(host, 1, cfg), std::invalid_argument);
  cfg.cores = 2;
  const core::nsm module{host, 1, cfg};
  ASSERT_EQ(module.cores().size(), 2u);
  EXPECT_EQ(module.cores()[0]->name(), "h/core1");
  EXPECT_EQ(module.cores()[1]->name(), "h/core2");
}

}  // namespace
}  // namespace nk::virt
