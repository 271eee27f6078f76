// Ablation A15: tenant-defined protocol NSMs (DESIGN.md §15).
//
// Three phases against the transport-plugin framework:
//
//   A. Goodput on a lossy WAN (12 Mb/s, 350 ms RTT, 0.2% loss): a tenant
//      whose NSM runs the builtin TCP (Cubic) versus a tenant whose NSM
//      runs "nkq" — the UDP-based reliable transport with QUIC-like
//      streams and BBR — on the same path, same seed. The tenant-defined
//      protocol must beat the kernel default on this path, with every
//      payload byte pattern-validated end to end.
//
//   B. 0-RTT resumption: connect/close/reconnect against the same nkq
//      server. The first handshake pays a full RTT for address
//      validation; the reconnect presents the cached token and must
//      complete in at most half the cold latency, with the server-side
//      transport counting a resumed handshake.
//
//   C. Quota isolation: a TCP tenant's mice flows (the victim) share a
//      host with an nkq bulk hog whose ServiceLib enforces a per-tenant
//      cycle budget. The hog must trip tenant_quota_exceeded (monitor
//      alert + flight-recorder snapshot + vmN gauges) while the victim's
//      mice p99 FCT stays within 10% of its hog-free baseline. Quota
//      exhaustion is backpressure, never loss: leaks stay zero and the
//      per-shard accounting identity stays exact on every engine.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "apps/flowgen.hpp"
#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "core/monitor.hpp"
#include "nkq/transport.hpp"

namespace {

using namespace nk;
using apps::side;

constexpr double kWanLoss = 0.002;

core::nsm_config make_nsm(const char* name, const std::string& transport,
                          tcp::cc_algorithm cc, const tcp::tcp_config& tcp) {
  core::nsm_config cfg;
  cfg.name = name;
  cfg.transport = transport;
  cfg.cc = cc;
  cfg.tcp = tcp;
  return cfg;
}

// --- phase A: goodput on the lossy WAN ------------------------------------------

struct goodput_result {
  double mbps = 0;
  bool pattern_ok = false;
};

goodput_result measure_goodput(const std::string& transport,
                               tcp::cc_algorithm cc, std::uint64_t seed,
                               bool smoke) {
  apps::testbed bed{apps::wan_params(seed, kWanLoss)};

  virt::vm_config vm_cfg;
  vm_cfg.name = "sender-vm";
  auto tx = bed.add_netkernel_vm(
      side::a, vm_cfg, make_nsm("nsm-tx", transport, cc, apps::wan_tcp(cc)));
  vm_cfg.name = "receiver-vm";
  auto rx = bed.add_netkernel_vm(
      side::b, vm_cfg, make_nsm("nsm-rx", transport, cc, apps::wan_tcp(cc)));

  apps::bulk_sink sink{*rx.api, 5001, /*validate=*/true};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 1;
  scfg.bytes_per_flow = 0;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 5001}, scfg};
  sender.start();

  const sim_time warmup = smoke ? seconds(6) : seconds(15);
  const sim_time window = smoke ? seconds(4) : seconds(10);
  bed.run_for(warmup);
  const std::uint64_t at_warmup = sink.total_bytes();
  bed.run_for(window);

  goodput_result out;
  out.mbps = rate_of(sink.total_bytes() - at_warmup, window).bps() / 1e6;
  out.pattern_ok = sink.pattern_ok();
  return out;
}

// --- phase B: 0-RTT resumption ----------------------------------------------------

struct resume_result {
  double cold_ms = 0;
  double resumed_ms = 0;
  std::uint64_t handshakes_cold = 0;
  std::uint64_t handshakes_resumed = 0;
  std::uint64_t zero_rtt_connects = 0;
};

double connect_ms(apps::testbed& bed, apps::socket_api& api,
                  net::socket_addr dest) {
  auto sock = api.open();
  if (!sock.ok()) return -1;
  const apps::app_socket s = sock.value();
  bool connected = false;
  sim_time done{};
  api.on_event(s, [&](apps::app_socket, apps::app_event t, errc) {
    if (t == stack::socket_event_type::connected && !connected) {
      connected = true;
      done = bed.sim().now();
    }
  });
  const sim_time start = bed.sim().now();
  (void)api.connect(s, dest);
  for (int i = 0; i < 3000 && !connected; ++i) bed.run_for(milliseconds(1));
  (void)api.close(s);
  api.drop_handler(s);
  bed.run_for(milliseconds(100));  // drain the close exchange
  if (!connected) return -1;
  return static_cast<double>((done - start).count()) / 1e6;
}

resume_result measure_resumption(std::uint64_t seed) {
  apps::testbed bed{apps::wan_params(seed, kWanLoss)};
  const auto cc = tcp::cc_algorithm::bbr;

  virt::vm_config vm_cfg;
  vm_cfg.name = "client-vm";
  auto cl = bed.add_netkernel_vm(
      side::a, vm_cfg, make_nsm("nsm-client", "nkq", cc, apps::wan_tcp(cc)));
  vm_cfg.name = "server-vm";
  auto sv = bed.add_netkernel_vm(
      side::b, vm_cfg, make_nsm("nsm-server", "nkq", cc, apps::wan_tcp(cc)));

  apps::bulk_sink sink{*sv.api, 6001, false};
  sink.start();
  const net::socket_addr dest{sv.module->config().address, 6001};

  resume_result out;
  out.cold_ms = connect_ms(bed, *cl.api, dest);
  out.resumed_ms = connect_ms(bed, *cl.api, dest);
  // The 0-RTT connect completes client-side instantly; let the initial
  // packet cross the 175 ms one-way path so the server books the resumed
  // handshake before we read its counters.
  bed.run_for(milliseconds(800));
  if (auto* nt = dynamic_cast<nkq::nkq_transport*>(&sv.module->transport())) {
    out.handshakes_cold = nt->stats().handshakes_cold;
    out.handshakes_resumed = nt->stats().handshakes_resumed;
  }
  if (auto* nt = dynamic_cast<nkq::nkq_transport*>(&cl.module->transport())) {
    out.zero_rtt_connects = nt->stats().zero_rtt_connects;
  }
  return out;
}

// --- phase C: quota isolation ----------------------------------------------------

struct isolation_result {
  double p99_us = 0;
  int flows_done = 0;
  int flows_offered = 0;
  std::uint64_t cycle_throttles = 0;
  std::size_t quota_events = 0;
  bool alerted = false;
  bool snapshot = false;
  double gauge_cycles = 0;
  long long leaked = 0;
  bool accounting_ok = true;
};

isolation_result run_isolation(bool hog_on, std::uint64_t seed, bool smoke) {
  auto params = apps::datacenter_params(seed);
  // Two RSS shards: the victim and the hog ride separate engine lanes, so
  // the only cross-talk left is what the cycle quota is there to cap.
  params.netkernel.shards = 2;
  apps::testbed bed{params};

  const auto cubic = tcp::cc_algorithm::cubic;
  virt::vm_config vm_cfg;
  vm_cfg.name = "victim-vm";
  auto victim = bed.add_netkernel_vm(
      side::a, vm_cfg,
      make_nsm("nsm-victim", "tcp", cubic, apps::datacenter_tcp(cubic)));
  core::nsm_config hog_cfg =
      make_nsm("nsm-hog", "nkq", cubic, apps::datacenter_tcp(cubic));
  // Small send buffer: caps the wire burst a throttled tenant can still
  // line up (the quota meters NSM cycles, not link serialization).
  hog_cfg.tcp.send_buffer = 32 * 1024;
  vm_cfg.name = "hog-vm";
  auto hog = bed.add_netkernel_vm(side::a, vm_cfg, hog_cfg);
  vm_cfg.name = "sink-vm";
  auto rx = bed.add_netkernel_vm(
      side::b, vm_cfg,
      make_nsm("nsm-sink", "tcp", cubic, apps::datacenter_tcp(cubic)));
  vm_cfg.name = "hog-sink-vm";
  auto hog_rx = bed.add_netkernel_vm(
      side::b, vm_cfg,
      make_nsm("nsm-hog-sink", "nkq", cubic, apps::datacenter_tcp(cubic)));
  // Every tenant gets a generous cycle budget (the victim's mice never get
  // near it); the hog's is tight, so its unbounded 64 KB writes trip the
  // quota every period.
  const core::sla_spec generous{.cycle_budget = microseconds(300)};
  auto& sla_a = bed.netkernel(side::a).sla();
  auto& sla_b = bed.netkernel(side::b).sla();
  sla_a.set_tenant(victim.vm->id(), generous);
  sla_a.set_tenant(hog.vm->id(),
                   core::sla_spec{.cycle_budget = microseconds(8)});
  sla_b.set_tenant(rx.vm->id(), generous);
  sla_b.set_tenant(hog_rx.vm->id(), generous);

  apps::flow_sink sink{*rx.api, 7000};
  sink.sim = &bed.sim();
  sink.start();
  apps::flowgen_config fcfg;
  fcfg.mix = apps::flow_mix::uniform;  // 1..64 KB: every flow is a mouse
  fcfg.flows = smoke ? 120 : 400;
  fcfg.arrivals_per_sec = 4000;
  fcfg.seed = seed;
  apps::flow_generator gen{*victim.api, bed.sim(),
                           {rx.module->config().address, 7000}, fcfg};
  gen.start();

  // Finite hog flows: big enough to saturate the quota for the whole
  // victim window, finite so the run reaches quiescence for the leak
  // audit (quota throttling is backpressure — the bytes all arrive, late).
  apps::bulk_sink hog_sink{*hog_rx.api, 7100, false};
  apps::bulk_sender_config hcfg;
  hcfg.flows = 4;
  hcfg.bytes_per_flow = smoke ? (2u << 20) : (8u << 20);
  std::unique_ptr<apps::bulk_sender> hog_tx;
  if (hog_on) {
    hog_sink.start();
    hog_tx = std::make_unique<apps::bulk_sender>(
        *hog.api, net::socket_addr{hog_rx.module->config().address, 7100},
        hcfg);
    hog_tx->start();
  }

  core::core_engine& ce = bed.netkernel(side::a);
  core::monitor_config mcfg;
  mcfg.interval = milliseconds(1);
  core::health_monitor mon{ce, mcfg};
  mon.start();

  for (int i = 0; i < 4000 && sink.completed() < fcfg.flows; ++i) {
    bed.run_for(milliseconds(1));
  }
  // Quiescence: let the throttled hog finish so the leak audit sees every
  // chunk back in its pool (in-flight occupancy is not a leak).
  for (int i = 0;
       i < 60000 && hog_tx && hog_sink.flows_finished() < std::size_t(hcfg.flows);
       ++i) {
    bed.run_for(milliseconds(1));
  }
  bed.run_for(milliseconds(50));

  isolation_result out;
  out.p99_us = sink.fct_us(apps::size_class::mice).p99();
  out.flows_done = sink.completed();
  out.flows_offered = fcfg.flows;
  const virt::vm_id hog_vm = hog.vm->id();
  out.cycle_throttles = ce.sla().usage_of(hog_vm).cycle_throttles;
  for (const auto& ev : ce.sla().quota_log()) {
    if (ev.vm == hog_vm) ++out.quota_events;
  }
  for (const auto& a : mon.alerts()) {
    if (a.kind == core::alert_kind::tenant_quota_exceeded && a.vm == hog_vm) {
      out.alerted = true;
      out.snapshot = out.snapshot || !a.snapshot.empty();
    }
  }
  out.gauge_cycles =
      ce.metrics()
          .value_of("vm" + std::to_string(hog_vm) + "_cycle_budget_used")
          .value_or(-1.0);

  // Leak + per-shard accounting audit across both hosts (quota stalls are
  // backpressure: nothing may leak or vanish untraced).
  std::size_t chunks_total = 0;
  std::size_t chunks_free = 0;
  for (auto* engine : {&bed.netkernel(side::a), &bed.netkernel(side::b)}) {
    for (const auto vm : engine->attached_vms()) {
      auto* ch = engine->channel_of(vm);
      chunks_total += ch->pool.chunk_count();
      chunks_free += ch->pool.chunks_free();
    }
    for (std::size_t s = 0; s < engine->shards(); ++s) {
      const auto& st = engine->shard_stats(s);
      const std::uint64_t lost = st.unroutable_nqes + st.nqes_dropped +
                                 st.stale_nqes + st.rejected_nqes;
      const std::uint64_t traced = engine->shard_traces_dropped(s) +
                                   engine->shard_discards_untraced(s);
      if (lost != traced) {
        out.accounting_ok = false;
        std::fprintf(stderr, "shard %zu: lost=%llu traced=%llu\n", s,
                     static_cast<unsigned long long>(lost),
                     static_cast<unsigned long long>(traced));
      }
    }
  }
  out.leaked = static_cast<long long>(chunks_total) -
               static_cast<long long>(chunks_free);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf(
      "Ablation A15: tenant-defined protocol NSMs\n"
      "(A: tcp vs nkq goodput on a 0.2%%-loss WAN; B: nkq 0-RTT resumption;\n"
      " C: cycle-quota isolation of an nkq hog from a TCP neighbor)\n\n");

  const std::uint64_t seed = 42;

  const goodput_result tcp_g =
      measure_goodput("tcp", tcp::cc_algorithm::cubic, seed, smoke);
  const goodput_result nkq_g =
      measure_goodput("nkq", tcp::cc_algorithm::bbr, seed, smoke);
  std::printf("phase A: goodput on the lossy WAN (12 Mb/s, 350 ms RTT)\n");
  std::printf("  %-24s %8.2f Mb/s  pattern_ok=%s\n", "tcp NSM (cubic)",
              tcp_g.mbps, tcp_g.pattern_ok ? "yes" : "NO");
  std::printf("  %-24s %8.2f Mb/s  pattern_ok=%s\n", "nkq NSM (bbr)",
              nkq_g.mbps, nkq_g.pattern_ok ? "yes" : "NO");

  const resume_result rz = measure_resumption(seed);
  std::printf("\nphase B: nkq connection setup latency\n");
  std::printf("  %-24s %8.2f ms\n", "cold handshake", rz.cold_ms);
  std::printf("  %-24s %8.2f ms\n", "0-RTT resumed", rz.resumed_ms);
  std::printf("  server handshakes: cold=%llu resumed=%llu (client 0-RTT=%llu)\n",
              static_cast<unsigned long long>(rz.handshakes_cold),
              static_cast<unsigned long long>(rz.handshakes_resumed),
              static_cast<unsigned long long>(rz.zero_rtt_connects));

  const isolation_result base = run_isolation(false, seed, smoke);
  const isolation_result hog = run_isolation(true, seed, smoke);
  const double ratio = base.p99_us > 0 ? hog.p99_us / base.p99_us : 0.0;
  std::printf("\nphase C: quota isolation (victim mice p99 FCT)\n");
  std::printf("  %-24s %12s %12s\n", "", "baseline", "with hog");
  std::printf("  %-24s %12.1f %12.1f\n", "mice p99 FCT (us)", base.p99_us,
              hog.p99_us);
  std::printf("  %-24s %12d %12d\n", "flows completed", base.flows_done,
              hog.flows_done);
  std::printf("  hog: cycle_throttles=%llu quota_events=%zu alert=%s "
              "snapshot=%s gauge=%.0f\n",
              static_cast<unsigned long long>(hog.cycle_throttles),
              hog.quota_events, hog.alerted ? "yes" : "no",
              hog.snapshot ? "yes" : "no", hog.gauge_cycles);
  std::printf("  chunks leaked: baseline=%lld hog=%lld\n", base.leaked,
              hog.leaked);
  std::printf("  victim p99 ratio (hog/baseline): %.3f\n", ratio);

  const bool ok =
      // A: the tenant-defined protocol beats the default on this path and
      // delivers every byte intact.
      tcp_g.pattern_ok && nkq_g.pattern_ok && nkq_g.mbps > tcp_g.mbps &&
      // B: resumption measurably cuts reconnect latency.
      rz.cold_ms > 0 && rz.resumed_ms >= 0 &&
      rz.resumed_ms <= rz.cold_ms / 2 && rz.handshakes_cold >= 1 &&
      rz.handshakes_resumed >= 1 && rz.zero_rtt_connects >= 1 &&
      // C: the hog is throttled, observable, and harmless.
      base.flows_done == base.flows_offered &&
      hog.flows_done == hog.flows_offered && hog.cycle_throttles > 0 &&
      hog.quota_events > 0 && hog.alerted && hog.snapshot &&
      base.leaked == 0 && hog.leaked == 0 && base.accounting_ok &&
      hog.accounting_ok && ratio <= 1.10;

  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"seed\": %llu,\n"
      "  \"goodput\": {\"tcp_mbps\": %.3f, \"nkq_mbps\": %.3f,\n"
      "    \"tcp_pattern_ok\": %s, \"nkq_pattern_ok\": %s},\n"
      "  \"resumption\": {\"cold_ms\": %.3f, \"resumed_ms\": %.3f,\n"
      "    \"handshakes_cold\": %llu, \"handshakes_resumed\": %llu,\n"
      "    \"zero_rtt_connects\": %llu},\n"
      "  \"isolation\": {\"baseline_p99_us\": %.3f, \"hog_p99_us\": %.3f,\n"
      "    \"p99_ratio\": %.4f, \"cycle_throttles\": %llu,\n"
      "    \"quota_events\": %zu, \"alerted\": %s, \"snapshot\": %s,\n"
      "    \"leaked\": %lld},\n"
      "  \"pass\": %s\n"
      "}\n",
      static_cast<unsigned long long>(seed), tcp_g.mbps, nkq_g.mbps,
      tcp_g.pattern_ok ? "true" : "false", nkq_g.pattern_ok ? "true" : "false",
      rz.cold_ms, rz.resumed_ms,
      static_cast<unsigned long long>(rz.handshakes_cold),
      static_cast<unsigned long long>(rz.handshakes_resumed),
      static_cast<unsigned long long>(rz.zero_rtt_connects), base.p99_us,
      hog.p99_us, ratio, static_cast<unsigned long long>(hog.cycle_throttles),
      hog.quota_events, hog.alerted ? "true" : "false",
      hog.snapshot ? "true" : "false", hog.leaked, ok ? "true" : "false");
  std::ofstream jout{"ablate_protocols.json"};
  jout << buf;
  std::printf("\nsnapshot: ablate_protocols.json\n");

  if (!ok) {
    std::printf("FAIL: a tenant-defined-protocol invariant was violated\n");
    return 1;
  }
  return 0;
}
