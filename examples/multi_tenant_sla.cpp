// Provider-side story (§2.1, §5): one NSM multiplexed across tenants, each
// with a different SLA — a rate-capped economy tenant, an uncapped premium
// tenant — plus per-NSM usage metering and an invoice under each of the
// paper's candidate pricing models.
//
//   ./build/examples/multi_tenant_sla
#include <cstdio>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "core/accounting.hpp"

using namespace nk;
using apps::side;

int main() {
  apps::testbed bed{apps::datacenter_params(3)};

  // One shared NSM serves both tenants (multiplexing).
  core::nsm_config nsm_cfg;
  nsm_cfg.name = "shared-nsm";
  nsm_cfg.cores = 2;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);

  virt::vm_config vm_cfg;
  vm_cfg.name = "premium-vm";
  auto premium = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "economy-vm";
  auto economy = bed.attach_netkernel_vm(side::a, vm_cfg, *premium.module);

  // SLAs: economy capped at 2 Gb/s; premium uncapped with a 5 Gb/s
  // guarantee the provider wants to verify.
  auto& sla = bed.netkernel(side::a).sla();
  sla.set_tenant(economy.vm->id(),
                 core::sla_spec{.rate_cap = data_rate::gbps(2),
                                .burst_bytes = 512 * 1024});
  sla.set_tenant(premium.vm->id(),
                 core::sla_spec{.rate_guarantee = data_rate::gbps(5)});

  // Server host.
  core::nsm_config server_cfg = nsm_cfg;
  server_cfg.name = "server-nsm";
  vm_cfg.name = "server-vm";
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, server_cfg);
  apps::bulk_sink sink{*server.api, 5001, false};
  sink.start();

  // Both tenants run bulk uploads.
  apps::bulk_sender_config scfg;
  scfg.flows = 1;
  scfg.bytes_per_flow = 0;
  scfg.patterned = false;
  apps::bulk_sender premium_tx{*premium.api,
                               {server.module->config().address, 5001}, scfg};
  apps::bulk_sender economy_tx{*economy.api,
                               {server.module->config().address, 5001}, scfg};
  premium_tx.start();
  economy_tx.start();

  bed.run_for(milliseconds(500));

  // Per-tenant volumes come from the SLA manager's metering (the sink's
  // flow order depends on accept timing, not tenant identity).
  const double premium_gbps =
      rate_of(sla.usage_of(premium.vm->id()).bytes_sent, bed.sim().now())
          .bps() /
      1e9;
  const double economy_gbps =
      rate_of(sla.usage_of(economy.vm->id()).bytes_sent, bed.sim().now())
          .bps() /
      1e9;

  std::printf("tenant throughput over 500 ms on one shared NSM:\n");
  std::printf("  premium (uncapped, 5 Gb/s guarantee): %6.2f Gb/s  "
              "guarantee %s\n",
              premium_gbps,
              sla.guarantee_met(premium.vm->id(), bed.sim().now()) ? "MET"
                                                                   : "MISSED");
  std::printf("  economy (2 Gb/s cap):                 %6.2f Gb/s  "
              "(throttled %llu times)\n\n",
              economy_gbps,
              static_cast<unsigned long long>(
                  sla.usage_of(economy.vm->id()).throttle_events));

  // Meter the shared NSM and price it under each model (§5).
  const auto usage = core::measure(bed.netkernel(side::a), *premium.module,
                                   bed.sim().now(), /*guaranteed_gbps=*/5.0);
  std::printf("shared NSM invoice candidates (%s form):\n",
              std::string{to_string(premium.module->form())}.c_str());
  for (const auto model :
       {core::pricing_model::per_instance, core::pricing_model::per_core,
        core::pricing_model::usage_based, core::pricing_model::sla_based}) {
    std::printf("  %s\n", core::invoice_line(model, usage).c_str());
  }
  return 0;
}
