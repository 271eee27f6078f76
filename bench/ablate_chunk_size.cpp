// Ablation A5: huge-page chunk size. Figure 4's caption fixes "the chunk
// size for the huge page operations is 8 KB"; Table 1 shows per-chunk copy
// latency growing with size while per-chunk overheads amortize. Sweep the
// chunk size and report NetKernel bulk throughput — the trade between
// per-nqe overhead (small chunks) and copy latency (large chunks).
//
// --smoke asserts the claim as orderings. Per-chunk work (an nqe per hop,
// a dispatch, a stack send) amortizes over larger chunks, so below line
// rate throughput rises with the chunk; from 8 KB on (the prototype's
// choice) the link, not the chunk, sets it, so those rows are held to line
// rate (>= 39 Gb/s) rather than to each other; and 512 B chunks stay below
// half of it. It writes ablate_chunk_size.json and exits 1 when an ordering
// fails.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"

namespace {

using namespace nk;
using apps::side;

constexpr sim_time warmup = milliseconds(100);
constexpr sim_time window = milliseconds(300);

double run(std::size_t chunk_size) {
  auto params = apps::datacenter_params(5);
  params.netkernel.channel.hugepages.chunk_size = chunk_size;
  apps::testbed bed{params};

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "tx-vm";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "rx-vm";
  nsm_cfg.name = "nsm-rx";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*rx.api, 5001, false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 2;
  scfg.bytes_per_flow = 0;
  scfg.patterned = false;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 5001},
                           scfg};
  sender.start();

  bed.run_for(warmup);
  const std::uint64_t at_warmup = sink.total_bytes();
  bed.run_for(window);
  return rate_of(sink.total_bytes() - at_warmup, window).bps() / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf(
      "Ablation A5: huge-page chunk size vs NetKernel bulk throughput\n"
      "(paper prototype: 8 KB chunks, 2 MB pages)\n\n");
  std::printf("%-12s %-14s\n", "chunk", "throughput");
  std::vector<std::pair<std::size_t, double>> rows;
  for (const std::size_t size :
       {512u, 2048u, 4096u, 8192u, 16384u, 65536u}) {
    rows.emplace_back(size, run(size));
    std::printf("%-12zu %8.3f Gb/s\n", size, rows.back().second);
  }
  if (!smoke) return 0;

  const double line_rate = 40.0;
  // The 40 GbE link carries 8930 B of MSS per 9000 B frame: 39.69 Gb/s of
  // payload. Two rows at that rate differ only by the sink's counting
  // phase at the window's edges (whole receive chunks behind a pipeline
  // whose backlog varies), not by the chunk size, so they are not ordered.
  const double at_line_rate = 39.0;
  bool ok = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i - 1].second < at_line_rate) {
      ok = ok && rows[i].second > rows[i - 1].second;
    }
  }
  for (const auto& [size, gbps] : rows) {
    if (size >= 8192) ok = ok && gbps >= at_line_rate;
    if (size == 512) ok = ok && gbps < line_rate / 2;
  }
  std::ofstream jout{"ablate_chunk_size.json"};
  jout << "{\n  \"rows\": [";
  const char* sep = "\n";
  for (const auto& [size, gbps] : rows) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s    {\"chunk\": %zu, \"gbps\": %.6f}",
                  sep, size, gbps);
    jout << buf;
    sep = ",\n";
  }
  jout << "\n  ],\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";
  std::printf("\nsnapshot: ablate_chunk_size.json\n");
  if (!ok) {
    std::printf(
        "FAIL: throughput did not rise with the chunk below line rate, a "
        "chunk of 8 KB or more below 39 Gb/s, or 512 B at half of line rate "
        "or more\n");
    return 1;
  }
  return 0;
}
