// Ablation A4 (paper §2.1): "They can also exploit the multiplexing gains
// by serving multiple tenant VMs with the same network stack module."
//
// N tenant VMs attach to ONE NSM and run bulk flows to a sink host.
// Reported: aggregate throughput, per-tenant fairness (min/max), and the
// NSM's core utilization — the provider-side efficiency the paper argues
// for (compare N tenants on one shared module vs one module each).
//
// --smoke asserts the claim: one module's cores carry the link at line
// rate for every N, as N dedicated modules do. Line rate is the 40 GbE
// link's payload share, 8930 B of MSS per 9000 B frame (39.69 Gb/s); the
// bound, 39 Gb/s, leaves the runs' slow-start ramp from t = 0. Fairness is
// printed but not asserted: with no core saturated, it is set by the CUBIC
// flows' start phase at the shared queue (EXPERIMENTS A4). It writes
// ablate_multiplexing.json and exits 1 when a row falls below the bound.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"

namespace {

using namespace nk;
using apps::side;

struct row {
  double gbps = 0.0;
  double fairness = 0.0;  // min/max per-tenant bytes
  double nsm_cores_busy = 0.0;
};

row run(int tenants, bool shared_nsm) {
  apps::testbed bed{apps::datacenter_params(77)};

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.cores = 2;

  // Server side: one NSM-backed sink VM.
  virt::vm_config vm_cfg;
  vm_cfg.name = "server-vm";
  core::nsm_config server_cfg = nsm_cfg;
  server_cfg.name = "nsm-server";
  server_cfg.cores = 3;
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, server_cfg);
  apps::bulk_sink sink{*server.api, 5001, false};
  sink.start();

  // Tenant side.
  std::vector<apps::nk_tenant> vms;
  std::vector<std::unique_ptr<apps::bulk_sender>> senders;
  for (int i = 0; i < tenants; ++i) {
    vm_cfg.name = "tenant-" + std::to_string(i);
    if (i == 0 || !shared_nsm) {
      core::nsm_config cfg = nsm_cfg;
      cfg.name = "nsm-" + std::to_string(i);
      vms.push_back(bed.add_netkernel_vm(side::a, vm_cfg, cfg));
    } else {
      vms.push_back(
          bed.attach_netkernel_vm(side::a, vm_cfg, *vms.front().module));
    }
    apps::bulk_sender_config scfg;
    scfg.flows = 1;
    scfg.bytes_per_flow = 0;
    scfg.patterned = false;
    senders.push_back(std::make_unique<apps::bulk_sender>(
        *vms.back().api, net::socket_addr{server.module->config().address,
                                          5001},
        scfg));
    senders.back()->start();
  }

  bed.run_for(milliseconds(400));

  std::uint64_t min_flow = ~0ull;
  std::uint64_t max_flow = 0;
  for (std::size_t i = 0; i < sink.flows_seen(); ++i) {
    min_flow = std::min(min_flow, sink.flow_bytes(i));
    max_flow = std::max(max_flow, sink.flow_bytes(i));
  }
  double nsm_cores_busy = 0;
  int nsm_count = shared_nsm ? 1 : tenants;
  for (int i = 0; i < nsm_count; ++i) {
    for (auto* core : vms[static_cast<std::size_t>(shared_nsm ? 0 : i)]
                          .module->cores()) {
      nsm_cores_busy += core->utilization();
    }
    if (shared_nsm) break;
  }

  row r;
  r.gbps = rate_of(sink.total_bytes(), bed.sim().now()).bps() / 1e9;
  r.fairness = max_flow > 0 ? static_cast<double>(min_flow) /
                                  static_cast<double>(max_flow)
                            : 0.0;
  r.nsm_cores_busy = nsm_cores_busy;
  std::printf("%-3d %-8s %10.2f Gb/s   %6.2f    %8.2f cores\n", tenants,
              shared_nsm ? "shared" : "per-vm", r.gbps, r.fairness,
              nsm_cores_busy);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf(
      "Ablation A4: one NSM serving N tenant VMs (paper §2.1 multiplexing)\n\n");
  std::printf("%-3s %-8s %15s %10s %15s\n", "N", "NSM", "aggregate",
              "fairness", "NSM cpu busy");
  std::map<int, row> shared;
  std::map<int, row> per_vm;
  for (const int tenants : {1, 2, 4, 8}) {
    shared[tenants] = run(tenants, /*shared_nsm=*/true);
  }
  std::printf("\n(vs dedicated NSM per tenant)\n");
  for (const int tenants : {2, 4}) {
    per_vm[tenants] = run(tenants, /*shared_nsm=*/false);
  }
  if (!smoke) return 0;

  bool ok = true;
  for (const auto* rows : {&shared, &per_vm}) {
    for (const auto& [tenants, r] : *rows) ok = ok && r.gbps >= 39.0;
  }
  std::ofstream jout{"ablate_multiplexing.json"};
  jout << "{\n  \"rows\": [";
  const char* sep = "\n";
  for (const auto& [label, rows] :
       {std::pair{"shared", &shared}, std::pair{"per-vm", &per_vm}}) {
    for (const auto& [tenants, r] : *rows) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "%s    {\"n\": %d, \"nsm\": \"%s\", "
                    "\"aggregate_gbps\": %.3f, \"fairness\": %.4f, "
                    "\"nsm_cores_busy\": %.4f}",
                    sep, tenants, label, r.gbps, r.fairness, r.nsm_cores_busy);
      jout << buf;
      sep = ",\n";
    }
  }
  jout << "\n  ],\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";
  std::printf("\nsnapshot: ablate_multiplexing.json\n");
  if (!ok) {
    std::printf("FAIL: aggregate below 39 Gb/s\n");
    return 1;
  }
  return 0;
}
