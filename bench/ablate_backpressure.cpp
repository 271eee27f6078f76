// Ablation A9: queue-depth sensitivity of the backpressure machinery.
//
// The incast workload synchronizes worker responses into one aggregator, so
// the NSM->VM direction bursts hard. With deep rings (the 4096 default) the
// overflow stages stay idle; shrinking the rings to 64 and then 8 slots
// forces every layer — ServiceLib out-rings, CoreEngine staging, GuestLib
// job deferral — to absorb the burst instead. The invariant under test:
// whatever the depth, no huge-page chunk leaks and no nqe vanishes without
// being counted (deferred-and-delivered, or dropped and traced). None of
// the three depths reaches the overflow cap, so a fourth run shrinks
// overflow_limit to 2 at depth 8 and adds a UDP burst that overruns a
// receive ring, to make the cap drop pure data. Exits 1 when any run leaks
// a chunk or loses an nqe unaccounted, or when a depth run completes fewer
// than all of its queries (the cap run may: a dropped ev_data loses app
// bytes by policy).
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"

namespace {

using namespace nk;
using apps::side;

constexpr int queries = 20;

struct outcome {
  int completed = 0;
  double p99_us = 0;
  double deferred = 0;     // staged anywhere in the pipeline, both hosts
  double dropped = 0;      // discarded at the overflow cap, both hosts
  double unroutable = 0;   // arrived for a torn-down mapping, both hosts
  double rejected = 0;     // refused by the admission firewall, both hosts
  double traced_drops = 0; // what the tracer saw vanish, both hosts
  double untraced = 0;     // discards of never-traced nqes, both hosts
  std::size_t chunks_total = 0;
  std::size_t chunks_free = 0;
};

// `cap` = 0 keeps the default overflow_limit; any other value also adds
// the UDP burst.
outcome run(std::size_t depth, std::uint64_t seed, std::size_t cap = 0) {
  auto params = apps::datacenter_params(seed);
  if (cap != 0) params.netkernel.overflow_limit = cap;
  params.wire.rate = data_rate::gbps(10);
  params.wire.queue.capacity_bytes = 512 * 1024;
  params.netkernel.channel.queues.depth = depth;
  // Trace every nqe so the accounting cross-check below is exact.
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.max_active = 1 << 16;
  params.netkernel.trace.max_spans = 1 << 17;
  apps::testbed bed{params};

  core::nsm_config nsm_cfg;
  nsm_cfg.cc = tcp::cc_algorithm::dctcp;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::dctcp);
  nsm_cfg.cores = 2;

  virt::vm_config vm_cfg;
  vm_cfg.name = "workers-vm";
  nsm_cfg.name = "nsm-workers";
  auto workers = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "aggregator-vm";
  nsm_cfg.name = "nsm-agg";
  auto agg = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::incast_config icfg;
  icfg.fanout = 16;
  icfg.response_size = 32 * 1024;
  icfg.queries = queries;
  apps::incast_worker_service service{*workers.api, 7000, icfg.response_size};
  service.start();
  apps::incast_aggregator aggregator{
      *agg.api, bed.sim(), {workers.module->config().address, 7000}, icfg};
  aggregator.start();

  // Cap run only. The sink's app leaves a 128-datagram burst unread until
  // 3 ms, so it holds its 32-chunk quota and the rest piles up in the
  // socket. Each resumed read then commits up to 32 ev_udp_data into the
  // depth-8 receive ring: the surplus drops at ServiceLib's cap.
  std::optional<apps::nk_tenant> udp_sink;
  std::uint32_t sink_fd = 0;
  bool sink_reading = false;
  auto drain_sink = [&] {
    while (udp_sink->glib->nk_udp_recv_from(sink_fd).ok()) {
    }
  };
  if (cap != 0) {
    core::nsm_config sink_nsm;
    sink_nsm.name = "nsm-udp-sink";
    vm_cfg.name = "udp-sink-vm";
    udp_sink = bed.add_netkernel_vm(side::b, vm_cfg, sink_nsm);
    bed.netkernel(side::b).sla().set_tenant(
        udp_sink->vm->id(), core::sla_spec{.chunk_quota = 32});
    sink_fd = udp_sink->glib->nk_udp_open(7003).value();
    udp_sink->glib->set_event_handler(
        [&](std::uint32_t fd, stack::socket_event_type t, errc) {
          if (fd == sink_fd && t == stack::socket_event_type::readable &&
              sink_reading) {
            drain_sink();
          }
        });
    const net::socket_addr dest{udp_sink->module->config().address, 7003};
    bed.sim().schedule(milliseconds(1), [&, dest] {
      const auto fd = workers.glib->nk_udp_open().value();
      for (int i = 0; i < 128; ++i) {
        (void)workers.glib->nk_udp_send_to(fd, dest, buffer::pattern(64, i));
      }
    });
    bed.sim().schedule(milliseconds(3), [&] {
      sink_reading = true;
      drain_sink();
    });
  }

  bed.run_for(seconds(5));

  outcome out;
  out.completed = aggregator.completed();
  out.p99_us = aggregator.query_us().percentile(99);
  for (auto* ce : {&bed.netkernel(side::a), &bed.netkernel(side::b)}) {
    const auto& m = ce->metrics();
    out.deferred += m.value_of("engine_nqes_deferred").value_or(0.0);
    out.dropped += m.value_of("engine_nqes_dropped").value_or(0.0);
    out.unroutable += m.value_of("engine_unroutable_nqes").value_or(0.0);
    out.rejected += m.value_of("engine_nqes_rejected").value_or(0.0);
    out.traced_drops += m.value_of("nqe_traces_dropped").value_or(0.0);
    out.untraced += m.value_of("engine_discards_untraced").value_or(0.0);
    for (const auto vm : ce->attached_vms()) {
      auto* ch = ce->channel_of(vm);
      out.chunks_total += ch->pool.chunk_count();
      out.chunks_free += ch->pool.chunks_free();
    }
  }
  return out;
}

}  // namespace

int main() {
  std::printf(
      "Ablation A9: incast (fanout 16 x 32 KB) across nqe ring depths\n"
      "(every nqe traced; leaked = chunks not back in the pool,\n"
      " unaccounted = losses invisible to the tracer — both must be 0)\n\n");
  std::printf("%-8s %10s %12s %10s %10s %12s %8s %12s\n", "depth", "queries",
              "query p99", "deferred", "dropped", "unroutable", "leaked",
              "unaccounted");

  std::string json = "[\n";
  bool first = true;
  bool ok = true;
  for (const std::size_t depth : {8, 64, 4096}) {
    const outcome o = run(depth, 900 + depth);
    const auto leaked =
        static_cast<long long>(o.chunks_total) -
        static_cast<long long>(o.chunks_free);
    const double unaccounted =
        o.unroutable + o.dropped + o.rejected - o.traced_drops - o.untraced;
    std::printf("%-8zu %10d %9.0f us %10.0f %10.0f %12.0f %8lld %12.0f\n",
                depth, o.completed, o.p99_us, o.deferred, o.dropped,
                o.unroutable, leaked, unaccounted);
    if (leaked != 0 || unaccounted != 0 || o.completed < queries) {
      std::printf("FAIL at depth %zu: %lld leaked, %.0f unaccounted, "
                  "%d/%d queries\n",
                  depth, leaked, unaccounted, o.completed, queries);
      ok = false;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  {\"depth\": %zu, \"completed\": %d, \"p99_us\": %.1f, "
                  "\"deferred\": %.0f, \"dropped\": %.0f, "
                  "\"unroutable\": %.0f, \"traced_drops\": %.0f, "
                  "\"chunks_total\": %zu, \"chunks_free\": %zu, "
                  "\"leaked\": %lld, \"unaccounted_drops\": %.0f}",
                  depth, o.completed, o.p99_us, o.deferred, o.dropped,
                  o.unroutable, o.traced_drops, o.chunks_total, o.chunks_free,
                  leaked, unaccounted);
    json += first ? "" : ",\n";
    json += buf;
    first = false;
  }
  json += "\n]\n";

  const outcome o = run(8, 908, 2);
  const auto leaked = static_cast<long long>(o.chunks_total) -
                      static_cast<long long>(o.chunks_free);
  const double unaccounted =
      o.unroutable + o.dropped + o.rejected - o.traced_drops - o.untraced;
  std::printf("%-8s %10d %9.0f us %10.0f %10.0f %12.0f %8lld %12.0f\n",
              "8/cap2", o.completed, o.p99_us, o.deferred, o.dropped,
              o.unroutable, leaked, unaccounted);
  if (leaked != 0 || unaccounted != 0 || o.dropped == 0) {
    std::printf("FAIL at cap 2: %lld leaked, %.0f unaccounted, %.0f dropped\n",
                leaked, unaccounted, o.dropped);
    ok = false;
  }

  std::ofstream out{"ablate_backpressure.json"};
  out << json;
  std::printf("\nper-depth snapshots: ablate_backpressure.json\n");
  return ok ? 0 : 1;
}
