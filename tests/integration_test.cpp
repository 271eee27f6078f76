// Cross-module integration tests on the full testbed: legacy vs NetKernel
// paths under the same workloads, RPC, churn, and the Figure 5 WAN ordering
// (sanity-level; the bench regenerates the full figure).
#include <gtest/gtest.h>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"

namespace nk {
namespace {

using apps::side;
using apps::testbed;

TEST(legacy_path, bulk_transfer_with_integrity) {
  testbed bed{apps::datacenter_params(11)};
  virt::vm_config cfg;
  cfg.name = "a";
  cfg.guest_stack.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  auto a = bed.add_legacy_vm(side::a, cfg);
  cfg.name = "b";
  auto b = bed.add_legacy_vm(side::b, cfg);

  apps::bulk_sink sink{*b.api, 5001, true};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 2;
  scfg.bytes_per_flow = 4 * 1024 * 1024;
  apps::bulk_sender sender{*a.api, {b.vm->address(), 5001}, scfg};
  sender.start();

  bed.run_for(seconds(3));
  EXPECT_EQ(sink.total_bytes(), 8u * 1024 * 1024);
  EXPECT_TRUE(sink.pattern_ok());
  EXPECT_EQ(sink.flows_seen(), 2u);
}

TEST(legacy_path, rpc_latency_is_low_on_datacenter_link) {
  testbed bed{apps::datacenter_params(12)};
  virt::vm_config cfg;
  cfg.name = "client";
  cfg.guest_stack.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  auto client = bed.add_legacy_vm(side::a, cfg);
  cfg.name = "server";
  auto server = bed.add_legacy_vm(side::b, cfg);

  apps::echo_server echo{*server.api, 5002};
  echo.start();
  apps::rpc_client_config rcfg;
  rcfg.request_size = 512;
  rcfg.requests = 200;
  apps::rpc_client rpc{*client.api, bed.sim(), {server.vm->address(), 5002},
                       rcfg};
  rpc.start();

  bed.run_for(seconds(2));
  EXPECT_EQ(rpc.completed(), 200);
  // RTT is 10 us + stack costs; median RPC latency must be < 1 ms.
  EXPECT_LT(rpc.latencies_us().median(), 1000.0);
}

TEST(netkernel_path, rpc_works_through_the_nsm) {
  testbed bed{apps::datacenter_params(13)};
  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "client";
  auto client = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "server";
  nsm_cfg.name = "nsm-b";
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::echo_server echo{*server.api, 5002};
  echo.start();
  apps::rpc_client_config rcfg;
  rcfg.request_size = 512;
  rcfg.requests = 100;
  apps::rpc_client rpc{*client.api, bed.sim(),
                       {server.module->config().address, 5002}, rcfg};
  rpc.start();

  bed.run_for(seconds(5));
  EXPECT_EQ(rpc.completed(), 100);
  EXPECT_LT(rpc.latencies_us().median(), 2000.0);
}

TEST(netkernel_path, churn_short_connections_complete) {
  testbed bed{apps::datacenter_params(14)};
  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "client";
  auto client = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "server";
  nsm_cfg.name = "nsm-b";
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::echo_server echo{*server.api, 5003};
  echo.start();
  apps::churn_config ccfg;
  ccfg.connections = 50;
  ccfg.message_size = 256;
  apps::churn_client churn{*client.api, bed.sim(),
                           {server.module->config().address, 5003}, ccfg};
  churn.start();

  bed.run_for(seconds(10));
  EXPECT_EQ(churn.completed(), 50);
  EXPECT_GT(churn.completion_us().median(), 0.0);
}

TEST(cross_path, legacy_and_netkernel_tenants_interoperate) {
  // A legacy VM talks to a NetKernel-served VM: the wire protocol is just
  // TCP, so the architectures must interoperate transparently.
  testbed bed{apps::datacenter_params(15)};
  virt::vm_config cfg;
  cfg.name = "legacy";
  cfg.guest_stack.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  auto legacy = bed.add_legacy_vm(side::a, cfg);

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::bbr);
  nsm_cfg.cc = tcp::cc_algorithm::bbr;
  virt::vm_config vm_cfg;
  vm_cfg.name = "nk";
  auto nk = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*nk.api, 5001, true};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 1;
  scfg.bytes_per_flow = 1024 * 1024;
  apps::bulk_sender sender{*legacy.api,
                           {nk.module->config().address, 5001}, scfg};
  sender.start();

  bed.run_for(seconds(3));
  EXPECT_EQ(sink.total_bytes(), 1024u * 1024);
  EXPECT_TRUE(sink.pattern_ok());
}

// Figure 5 sanity: on the lossy high-BDP WAN, BBR > C-TCP > Cubic. The
// bench regenerates the full figure; this asserts only the ordering.
TEST(wan_ordering, bbr_beats_ctcp_beats_cubic) {
  auto measure_seed = [](tcp::cc_algorithm cc, std::uint64_t seed) -> double {
    testbed bed{apps::wan_params(seed)};
    virt::vm_config cfg;
    cfg.name = "sender";
    cfg.os = virt::guest_os::linux_kernel;
    cfg.guest_stack.tcp = apps::wan_tcp(cc);
    cfg.guest_cc = cc;
    auto sender_vm = bed.add_legacy_vm(side::a, cfg);
    cfg.name = "receiver";
    cfg.guest_cc = tcp::cc_algorithm::cubic;
    auto receiver_vm = bed.add_legacy_vm(side::b, cfg);

    apps::bulk_sink sink{*receiver_vm.api, 5001, false};
    sink.start();
    apps::bulk_sender_config scfg;
    scfg.flows = 1;
    scfg.bytes_per_flow = 0;
    apps::bulk_sender sender{*sender_vm.api,
                             {receiver_vm.vm->address(), 5001}, scfg};
    sender.start();

    // Skip 10 s of startup, then average 20 s of steady state (the paper
    // reports a 10 s steady-state average).
    bed.run_for(seconds(10));
    const std::uint64_t at_warmup = sink.total_bytes();
    bed.run_for(seconds(20));
    return rate_of(sink.total_bytes() - at_warmup, seconds(20)).bps() / 1e6;
  };
  // One 20 s Cubic run on this path lands anywhere in 1.5–8.8 Mb/s with the
  // seed (sd ~2 Mb/s over 20 seeds), so each stack is the mean of six.
  auto measure = [&](tcp::cc_algorithm cc) -> double {
    constexpr int runs = 6;
    double sum = 0.0;
    for (int k = 0; k < runs; ++k) {
      sum += measure_seed(cc, 1000 + static_cast<int>(cc) + 10 * k);
    }
    return sum / runs;
  };

  const double bbr = measure(tcp::cc_algorithm::bbr);
  const double ctcp = measure(tcp::cc_algorithm::compound);
  const double cubic = measure(tcp::cc_algorithm::cubic);

  EXPECT_GT(bbr, ctcp) << "bbr=" << bbr << " ctcp=" << ctcp;
  EXPECT_GT(ctcp, cubic) << "ctcp=" << ctcp << " cubic=" << cubic;
  EXPECT_GT(bbr, 8.0);    // near the 12 Mb/s line rate
  EXPECT_LT(cubic, 6.0);  // collapsed under random loss
}

TEST(fig4_sanity, nsm_throughput_comparable_to_native) {
  auto measure = [](bool netkernel) -> double {
    testbed bed{apps::datacenter_params(netkernel ? 21 : 22)};
    std::unique_ptr<apps::socket_api> tx_api;
    std::unique_ptr<apps::socket_api> rx_api;
    net::ipv4_addr dst{};

    if (netkernel) {
      core::nsm_config nsm_cfg;
      nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
      virt::vm_config vm_cfg;
      vm_cfg.name = "tx";
      auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
      vm_cfg.name = "rx";
      nsm_cfg.name = "nsm-rx";
      auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
      dst = rx.module->config().address;
      tx_api = std::move(tx.api);
      rx_api = std::move(rx.api);
    } else {
      virt::vm_config cfg;
      cfg.guest_stack.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
      cfg.name = "tx";
      auto tx = bed.add_legacy_vm(side::a, cfg);
      cfg.name = "rx";
      auto rx = bed.add_legacy_vm(side::b, cfg);
      dst = rx.vm->address();
      tx_api = std::move(tx.api);
      rx_api = std::move(rx.api);
    }

    apps::bulk_sink sink{*rx_api, 5001, false};
    sink.start();
    apps::bulk_sender_config scfg;
    scfg.flows = 2;
    scfg.bytes_per_flow = 0;
    scfg.patterned = false;
    apps::bulk_sender sender{*tx_api, {dst, 5001}, scfg};
    sender.start();
    bed.run_for(milliseconds(300));
    return rate_of(sink.total_bytes(), milliseconds(300)).bps() / 1e9;
  };

  const double native = measure(false);
  const double nsm = measure(true);
  // Both within the same ballpark (paper: "virtually same throughput").
  EXPECT_GT(native, 15.0);
  EXPECT_GT(nsm, 15.0);
}

}  // namespace
}  // namespace nk
