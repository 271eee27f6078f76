// Ablation A1 (paper §5, "Resource efficiency and optimization"): the
// prototype polls the queues "for fast prototyping"; batched soft
// interrupts would save CPU at some latency cost.
//
// Two measurements per mode:
//   * RPC latency with an otherwise idle NSM — the notification delay is
//     on the critical path four times per RPC (req out, data in, each
//     direction of the echo), so it shows directly;
//   * simulator events per completed RPC — the busy-work proxy (polling
//     wakes every drain loop on a timer whether or not work exists;
//     batched interrupts wake once per doorbell coalescing window).
//
// --smoke asserts the trade-off as orderings: polling at 1 us answers
// faster than batched interrupts at 2 us, batched interrupts at 2 us cost
// at least 10x fewer events per RPC, and the p50 rises with the poll
// interval and with the interrupt delay. Exits 1 otherwise.
#include <cstdio>
#include <cstring>
#include <vector>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"

namespace {

using namespace nk;
using apps::side;

struct outcome {
  double median_us = 0;
  double p99_us = 0;
  double events_per_rpc = 0;
};

outcome run(const core::notify_config& ncfg, std::uint64_t seed) {
  auto params = apps::datacenter_params(seed);
  params.netkernel.notification = ncfg;
  apps::testbed bed{params};

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "client-vm";
  auto client = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "server-vm";
  nsm_cfg.name = "nsm-b";
  auto server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::echo_server echo{*server.api, 5002};
  echo.start();
  apps::rpc_client_config rcfg;
  rcfg.request_size = 512;
  rcfg.requests = 2000;
  apps::rpc_client rpc{*client.api, bed.sim(),
                       {server.module->config().address, 5002}, rcfg};
  rpc.start();

  bed.run_for(seconds(2));
  outcome out;
  out.median_us = rpc.latencies_us().median();
  out.p99_us = rpc.latencies_us().percentile(99);
  // Total simulator events per completed RPC is a stable busy-work proxy
  // across modes (poll ticks dominate it under polling).
  out.events_per_rpc = static_cast<double>(bed.sim().events_processed()) /
                       std::max(1, rpc.completed());
  return out;
}

}  // namespace

// p50 strictly rises along the sweep.
bool p50_rises(const std::vector<outcome>& rows) {
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].median_us <= rows[i - 1].median_us) return false;
  }
  return true;
}

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf(
      "Ablation A1: queue notification mode (paper §5 efficiency "
      "discussion)\nidle-path RPC, 512 B echo, NetKernel both ends\n\n");
  std::printf("%-28s %12s %12s %18s\n", "mode", "rpc p50", "rpc p99",
              "sim events/rpc");

  core::notify_config cfg;
  cfg.kind = core::notify_config::mode::polling;
  std::vector<outcome> polling;
  for (const auto poll_us : {1, 5, 20}) {
    cfg.poll_interval = microseconds(poll_us);
    polling.push_back(run(cfg, 42));
    const outcome& o = polling.back();
    std::printf("polling @%-3dus               %9.1f us %9.1f us %14.0f\n",
                poll_us, o.median_us, o.p99_us, o.events_per_rpc);
  }
  cfg.kind = core::notify_config::mode::batched_interrupt;
  std::vector<outcome> batched;
  for (const auto delay_us : {2, 10, 50}) {
    cfg.interrupt_delay = microseconds(delay_us);
    batched.push_back(run(cfg, 42));
    const outcome& o = batched.back();
    std::printf("batched interrupt @%-3dus      %9.1f us %9.1f us %14.0f\n",
                delay_us, o.median_us, o.p99_us, o.events_per_rpc);
  }
  std::printf(
      "\n(lower events/rpc = less busy-work: batching wakes only on\n"
      " doorbells; polling pays wake-ups forever, even when idle)\n");
  if (!smoke) return 0;

  const bool ok = polling[0].median_us < batched[0].median_us &&
                  batched[0].events_per_rpc * 10.0 <=
                      polling[0].events_per_rpc &&
                  p50_rises(polling) && p50_rises(batched);
  if (!ok) {
    std::printf(
        "FAIL: polling @1us not faster than batched @2us, batched @2us not "
        "10x cheaper in events/rpc, or p50 not rising with the poll "
        "interval and the interrupt delay\n");
    return 1;
  }
  return 0;
}
