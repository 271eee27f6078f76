// Ablation A10: NSM failure detection and replacement across module forms.
//
// A server-side NSM is killed mid-stream while two bulk flows pour into it.
// The health monitor's watchdog flags the corpse, the supervisor boots a
// replacement of the same form, and the CoreEngine switches the tenant over:
// the listener is replayed from the control-plane journal, established
// connections are aborted with nsm_reset, and every nqe stamped with the dead
// incarnation's epoch is discarded with accounting. A prober VM then opens a
// fresh connection to show the replayed listener really accepts again.
//
// The form under test dominates recovery: a hypervisor-module replacement
// boots in ~1 ms, a container in ~60 ms, a full VM in ~900 ms (paper §5,
// "NSM form"). The invariants hold for all three: zero huge-page chunks
// leaked, and no nqe lost without the tracer seeing it.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "core/monitor.hpp"

namespace {

using namespace nk;
using apps::side;

struct outcome {
  bool failed_over = false;
  bool reconnected = false;
  double detect_ms = -1;     // kill -> nsm_failed alert
  double failover_ms = -1;   // replace_nsm -> switchover done (incl. boot)
  double recovery_ms = -1;   // kill -> fresh connection accepted
  double recovered = 0;      // sockets replayed onto the replacement
  double aborted = 0;        // sockets reset toward the guest
  double stale = 0;          // dead-incarnation nqes discarded, both hosts
  double dropped = 0;
  double unroutable = 0;
  double rejected = 0;       // refused by the admission firewall
  double traced_drops = 0;
  double untraced_discards = 0;  // discards carrying no live trace id
  std::size_t chunks_total = 0;
  std::size_t chunks_free = 0;
};

outcome run(core::nsm_form form, std::uint64_t seed) {
  auto params = apps::datacenter_params(seed);
  // Trace every nqe so the accounting cross-check below is exact.
  params.netkernel.trace.enabled = true;
  params.netkernel.trace.max_active = 1 << 16;
  params.netkernel.trace.max_spans = 1 << 17;
  apps::testbed bed{params};

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.cc = tcp::cc_algorithm::cubic;

  virt::vm_config vm_cfg;
  vm_cfg.name = "sender-vm";
  nsm_cfg.name = "nsm-tx";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "prober-vm";
  auto prober = bed.attach_netkernel_vm(side::a, vm_cfg, *tx.module);
  vm_cfg.name = "sink-vm";
  nsm_cfg.name = "nsm-rx";
  nsm_cfg.form = form;  // the module that will die and be re-spawned
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*rx.api, 7000, /*validate=*/false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 2;
  scfg.bytes_per_flow = 0;  // open-ended: the kill lands mid-stream
  scfg.patterned = false;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 7000},
                           scfg};
  sender.start();
  bed.run_for(milliseconds(100));

  core::core_engine& ce = bed.netkernel(side::b);
  core::monitor_config mcfg;
  mcfg.interval = milliseconds(1);
  mcfg.failure_deadline = milliseconds(20);
  core::health_monitor mon{ce, mcfg};
  core::nsm_supervisor sup{ce, mon};
  mon.start();

  const sim_time killed_at = bed.sim().now();
  ce.service_of(rx.module->id())->fail();

  outcome out;
  // Detection + replacement boot + switchover; a VM-form module needs the
  // better part of a second to come back.
  auto& failover_hist = ce.metrics().get_histogram("failover_time_ns");
  for (int i = 0; i < 3000 && failover_hist.count() == 0; ++i) {
    bed.run_for(milliseconds(1));
  }
  out.failed_over = sup.failovers() == 1 && failover_hist.count() == 1;

  for (const auto& a : mon.alerts()) {
    if (a.kind == core::alert_kind::nsm_failed) {
      out.detect_ms =
          static_cast<double>((a.at - killed_at).count()) / 1e6;
      break;
    }
  }
  out.failover_ms = static_cast<double>(failover_hist.sum()) / 1e6;

  // The replayed listener must accept brand-new connections. A refused
  // probe retries on a fresh socket, like any reconnecting client.
  if (out.failed_over) {
    // rx.module died at the switchover; its replacement took the address.
    const core::nsm* fresh = ce.nsm_by_id(sup.last_replacement());
    auto& gp = *prober.glib;
    bool connected = false;
    for (int attempt = 0; attempt < 20 && !connected; ++attempt) {
      const auto fd = gp.nk_socket().value();
      bool failed = false;
      gp.set_event_handler([&](std::uint32_t f, stack::socket_event_type t,
                               errc) {
        if (f != fd) return;
        if (t == stack::socket_event_type::connected) connected = true;
        if (t == stack::socket_event_type::error) failed = true;
      });
      (void)gp.nk_connect(fd, {fresh->config().address, 7000});
      for (int i = 0; i < 100 && !connected && !failed; ++i) {
        bed.run_for(milliseconds(1));
      }
      if (!connected) {
        (void)gp.nk_close(fd);
        bed.run_for(milliseconds(10));
      }
    }
    out.reconnected = connected;
    if (connected) {
      out.recovery_ms =
          static_cast<double>((bed.sim().now() - killed_at).count()) / 1e6;
    }
  }
  bed.run_for(milliseconds(100));  // let aborts and discards settle

  out.recovered = ce.metrics().value_of("sockets_recovered").value_or(0.0);
  out.aborted = ce.metrics().value_of("sockets_aborted").value_or(0.0);
  for (auto* engine : {&bed.netkernel(side::a), &bed.netkernel(side::b)}) {
    const auto& m = engine->metrics();
    out.stale += m.value_of("engine_stale_nqes").value_or(0.0);
    out.dropped += m.value_of("engine_nqes_dropped").value_or(0.0);
    out.unroutable += m.value_of("engine_unroutable_nqes").value_or(0.0);
    out.rejected += m.value_of("engine_nqes_rejected").value_or(0.0);
    out.traced_drops += m.value_of("nqe_traces_dropped").value_or(0.0);
    out.untraced_discards +=
        m.value_of("engine_discards_untraced").value_or(0.0);
    for (const auto vm : engine->attached_vms()) {
      auto* ch = engine->channel_of(vm);
      out.chunks_total += ch->pool.chunk_count();
      out.chunks_free += ch->pool.chunks_free();
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf(
      "Ablation A10: kill the server NSM mid-stream, auto-replace it\n"
      "(detect = watchdog latency, failover = boot + switchover,\n"
      " recovery = kill -> fresh connection accepted; leaked and\n"
      " unaccounted nqe losses must both be 0)\n\n");
  std::printf("%-18s %10s %12s %12s %6s %6s %8s %8s %12s\n", "form",
              "detect", "failover", "recovery", "recov", "abort", "stale",
              "leaked", "unaccounted");

  std::string json = "[\n";
  bool first = true;
  bool ok = true;
  const std::vector<core::nsm_form> forms =
      smoke ? std::vector<core::nsm_form>{core::nsm_form::hypervisor_module}
            : std::vector<core::nsm_form>{core::nsm_form::hypervisor_module,
                                          core::nsm_form::container,
                                          core::nsm_form::vm};
  for (const core::nsm_form form : forms) {
    const outcome o = run(form, 1000 + static_cast<std::uint64_t>(form));
    const auto leaked = static_cast<long long>(o.chunks_total) -
                        static_cast<long long>(o.chunks_free);
    const double unaccounted = o.unroutable + o.dropped + o.stale +
                               o.rejected - o.traced_drops -
                               o.untraced_discards;
    std::printf("%-18s %7.2f ms %9.2f ms %9.2f ms %6.0f %6.0f %8.0f %8lld %12.0f\n",
                std::string{core::to_string(form)}.c_str(), o.detect_ms,
                o.failover_ms, o.recovery_ms, o.recovered, o.aborted, o.stale,
                leaked, unaccounted);
    ok = ok && o.failed_over && o.reconnected && leaked == 0 &&
         unaccounted == 0 && o.recovered >= 1 && o.aborted >= 1;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  {\"form\": \"%s\", \"failed_over\": %s, "
                  "\"reconnected\": %s, \"detect_ms\": %.3f, "
                  "\"failover_ms\": %.3f, \"recovery_ms\": %.3f, "
                  "\"sockets_recovered\": %.0f, \"sockets_aborted\": %.0f, "
                  "\"stale_nqes\": %.0f, \"leaked\": %lld, "
                  "\"unaccounted_drops\": %.0f}",
                  std::string{core::to_string(form)}.c_str(),
                  o.failed_over ? "true" : "false",
                  o.reconnected ? "true" : "false", o.detect_ms,
                  o.failover_ms, o.recovery_ms, o.recovered, o.aborted,
                  o.stale, leaked, unaccounted);
    json += first ? "" : ",\n";
    json += buf;
    first = false;
  }
  json += "\n]\n";
  std::ofstream out{"ablate_failover.json"};
  out << json;
  std::printf("\nper-form snapshots: ablate_failover.json\n");
  if (!ok) {
    std::printf("FAIL: a recovery invariant was violated\n");
    return 1;
  }
  return 0;
}
