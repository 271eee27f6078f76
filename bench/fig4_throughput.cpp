// Figure 4 — "Throughput of TCP Cubic and NetKernel TCP Cubic NSM."
//
// Paper setup: two Xeon servers, Intel X710 40 GbE, QEMU/KVM; the NSM runs
// the ported Linux 4.9 TCP/IP stack (Cubic), 8 KB huge-page chunks. Result:
// the CUBIC NSM matches native in-guest Cubic, and both hit line rate
// (~37 Gb/s) with two or more flows.
//
// Reproduction: same two-host topology on the simulator; "native" runs the
// stack inside the guest VM (Figure 1a), "NSM" moves it behind NetKernel
// (Figure 1b). Throughput is steady-state goodput at the receiver.
//
// --smoke runs the NSM column only, writes no files, and exits 1 unless it
// reaches 39 Gb/s at 1, 2 and 3 flows: a single flow must keep the link
// full through the guest's send credit, which ServiceLib holds at the
// not-sent low-water mark.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"

namespace {

using namespace nk;
using apps::side;

// Registry snapshots from the NetKernel runs, one JSON object per
// configuration, archived next to the stdout table.
std::ostringstream g_snapshots;
bool g_first_snapshot = true;

double measure_gbps(bool netkernel, int flows, std::uint64_t seed) {
  apps::testbed bed{apps::datacenter_params(seed)};
  std::unique_ptr<apps::socket_api> tx_api;
  std::unique_ptr<apps::socket_api> rx_api;
  net::ipv4_addr dst{};

  if (netkernel) {
    core::nsm_config nsm_cfg;
    nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
    nsm_cfg.cc = tcp::cc_algorithm::cubic;
    virt::vm_config vm_cfg;
    vm_cfg.vcpus = 4;
    vm_cfg.name = "tx-vm";
    auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
    vm_cfg.name = "rx-vm";
    nsm_cfg.name = "nsm-rx";
    auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
    dst = rx.module->config().address;
    tx_api = std::move(tx.api);
    rx_api = std::move(rx.api);
  } else {
    virt::vm_config cfg;
    cfg.vcpus = 4;
    cfg.guest_stack.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
    cfg.name = "tx-vm";
    auto tx = bed.add_legacy_vm(side::a, cfg);
    cfg.name = "rx-vm";
    auto rx = bed.add_legacy_vm(side::b, cfg);
    dst = rx.vm->address();
    tx_api = std::move(tx.api);
    rx_api = std::move(rx.api);
  }

  apps::bulk_sink sink{*rx_api, 5001, /*validate=*/false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = flows;
  scfg.bytes_per_flow = 0;  // run for the duration
  scfg.patterned = false;
  apps::bulk_sender sender{*tx_api, {dst, 5001}, scfg};
  sender.start();

  // 100 ms warm-up, then 400 ms steady-state measurement window.
  bed.run_for(milliseconds(100));
  const std::uint64_t at_warmup = sink.total_bytes();
  bed.run_for(milliseconds(400));
  const double gbps =
      rate_of(sink.total_bytes() - at_warmup, milliseconds(400)).bps() / 1e9;

  // Archive the sender-side engine's registry (queue depths, nqe counters,
  // stack gauges) with the measured goodput alongside it.
  if (netkernel) {
    core::core_engine& ce = bed.netkernel(side::a);
    ce.metrics().get_gauge("fig4_goodput_gbps").set(gbps);
    if (!g_first_snapshot) g_snapshots << ',';
    g_first_snapshot = false;
    // Diagnosis hook: the provider-wide flow table rides along with the
    // registry snapshot, so one fig4 run shows the stack state (srtt,
    // cwnd, buffer occupancy) behind each throughput number.
    g_snapshots << "{\"flows\":" << flows << ",\"seed\":" << seed
                << ",\"flow_table\":[";
    bool first_row = true;
    for (const auto& row : ce.flow_table()) {
      if (!first_row) g_snapshots << ',';
      first_row = false;
      g_snapshots << "{\"vm\":" << row.vm << ",\"fd\":" << row.fd
                  << ",\"nsm\":" << row.nsm << ",\"cid\":" << row.cid
                  << ",\"info\":" << row.info.to_json() << '}';
    }
    g_snapshots << "],\"metrics\":" << ce.metrics().to_json() << '}';
  }
  return gbps;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    std::printf("Figure 4 smoke: CUBIC NSM throughput, 40 GbE testbed\n\n");
    std::printf("%-8s %-18s\n", "flows", "CUBIC NSM");
    bool ok = true;
    for (int flows = 1; flows <= 3; ++flows) {
      const double nsm = measure_gbps(true, flows, 200 + flows);
      std::printf("%-8d %8.2f Gb/s\n", flows, nsm);
      ok = ok && nsm >= 39.0;
    }
    if (!ok) {
      std::printf("FAIL: the NSM is below 39 Gb/s at some flow count\n");
      return 1;
    }
    return 0;
  }
  std::printf(
      "Figure 4 reproduction: bulk TCP throughput, Cubic, 40 GbE testbed\n"
      "paper: NSM ~= native; line rate (~37 Gb/s) with >= 2 flows\n\n");
  std::printf("%-8s %-18s %-18s\n", "flows", "Linux (CUBIC)", "CUBIC NSM");
  std::ostringstream bench;
  bench << '{';
  bool first_metric = true;
  for (int flows = 1; flows <= 3; ++flows) {
    const double native = measure_gbps(false, flows, 100 + flows);
    const double nsm = measure_gbps(true, flows, 200 + flows);
    std::printf("%-8d %8.2f Gb/s %12.2f Gb/s\n", flows, native, nsm);
    for (const auto& [label, gbps] :
         {std::pair<const char*, double>{"native", native},
          std::pair<const char*, double>{"nsm", nsm}}) {
      if (!first_metric) bench << ',';
      first_metric = false;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", gbps);
      bench << "\"fig4_" << label << '_' << flows
            << "flows_gbps\":{\"value\":" << buf << ",\"units\":\"Gb/s\"}";
    }
  }
  bench << '}';
  std::ofstream out{"fig4_metrics.json"};
  out << "{\"figure\":\"fig4_throughput\",\"runs\":[" << g_snapshots.str()
      << "]}";
  // Repo-root benchmark summary schema: metric name -> {value, units}.
  std::ofstream summary{"BENCH_fig4.json"};
  summary << bench.str();
  std::printf(
      "\nper-run registry snapshots: fig4_metrics.json\n"
      "benchmark summary: BENCH_fig4.json\n");
  return 0;
}
