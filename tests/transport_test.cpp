// Transport-plugin framework (DESIGN.md §15): the TCP adapter, config
// errors, and the transport-tagged flow table.
#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "stack/transport.hpp"

namespace {

using namespace nk;
using apps::side;

TEST(transport_registry, create_tcp_builds_a_working_adapter) {
  sim::simulator s;
  stack::netstack_config ncfg;
  stack::netstack net{s, ncfg, net::ipv4_addr{0x0a000001}};
  stack::tcp_transport t{net};
  EXPECT_EQ(t.kind(), "tcp");
  auto ls = t.listen(80, tcp::tcp_config{});
  ASSERT_TRUE(ls.ok());
  EXPECT_EQ(t.accept(ls.value()).error(), errc::would_block);
}

// A tenant typo in nsm_config::transport must surface at provisioning time
// as a configuration error — never a crash while serving.
TEST(transport_config, unknown_transport_fails_nsm_creation) {
  apps::testbed bed{apps::datacenter_params(7)};
  core::nsm_config cfg;
  cfg.name = "nsm-bogus";
  cfg.transport = "bogus-proto";
  EXPECT_THROW((void)bed.netkernel(side::a).create_nsm(cfg),
               std::invalid_argument);
}

// flow_table rows carry the serving transport's registry name, and the
// generalized nk_flow_info reports it too.
TEST(transport_flow_table, rows_are_tagged_with_transport_name) {
  apps::testbed bed{apps::datacenter_params(11)};
  const auto cc = tcp::cc_algorithm::cubic;

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(cc);
  nsm_cfg.cc = cc;
  virt::vm_config vm_cfg;

  vm_cfg.name = "tcp-tx";
  nsm_cfg.name = "nsm-tcp-tx";
  nsm_cfg.transport = "tcp";
  auto ttx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "tcp-rx";
  nsm_cfg.name = "nsm-tcp-rx";
  auto trx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  vm_cfg.name = "nkq-tx";
  nsm_cfg.name = "nsm-nkq-tx";
  nsm_cfg.transport = "nkq";
  auto qtx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "nkq-rx";
  nsm_cfg.name = "nsm-nkq-rx";
  auto qrx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  EXPECT_EQ(qtx.module->transport().kind(), "nkq");
  EXPECT_EQ(ttx.module->transport().kind(), "tcp");

  apps::bulk_sink tcp_sink{*trx.api, 5001, false};
  tcp_sink.start();
  apps::bulk_sink nkq_sink{*qrx.api, 5002, false};
  nkq_sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 1;
  scfg.bytes_per_flow = 0;  // keep both flows alive for the snapshot
  apps::bulk_sender tcp_tx{
      *ttx.api, {trx.module->config().address, 5001}, scfg};
  apps::bulk_sender nkq_tx{
      *qtx.api, {qrx.module->config().address, 5002}, scfg};
  tcp_tx.start();
  nkq_tx.start();
  bed.run_for(milliseconds(50));

  bool saw_tcp = false;
  bool saw_nkq = false;
  for (const auto& row : bed.netkernel(side::a).flow_table()) {
    EXPECT_EQ(row.transport, row.info.transport);
    if (row.transport == "tcp") saw_tcp = true;
    if (row.transport == "nkq") {
      saw_nkq = true;
      EXPECT_EQ(row.info.cc, "cubic") << "nkq flows report the tenant's CC";
    }
  }
  EXPECT_TRUE(saw_tcp);
  EXPECT_TRUE(saw_nkq);
}

}  // namespace
