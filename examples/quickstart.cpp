// Quickstart: boot a two-host cloud, attach one tenant VM to a NetKernel
// NSM on each side, and run an echo exchange through the full path:
//
//   app -> GuestLib -> nqe queues -> CoreEngine -> ServiceLib -> NSM stack
//       -> SR-IOV VF -> pNIC -> 40GbE wire -> ... and back.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart
#include <cstdio>
#include <fstream>

#include "apps/scenario.hpp"

using namespace nk;
using apps::side;

int main() {
  // A testbed is two hypervisors joined by a 40 GbE link, each with a
  // NetKernel CoreEngine (apps/scenario.hpp wires it all). Lifecycle
  // tracing is on: every nqe through the pipeline becomes
  // a row in quickstart_trace.json (see the Perfetto hint at the end).
  auto params = apps::datacenter_params(/*seed=*/1);
  params.netkernel.trace.enabled = true;
  apps::testbed bed{params};

  // Provider side: create an NSM running the Cubic TCP stack and attach a
  // tenant VM to it. The VM has NO in-guest network stack.
  core::nsm_config nsm_cfg;
  nsm_cfg.name = "cubic-nsm";
  nsm_cfg.cc = tcp::cc_algorithm::cubic;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);

  virt::vm_config vm_cfg;
  vm_cfg.name = "client-vm";
  apps::nk_tenant client = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "server-vm";
  nsm_cfg.name = "cubic-nsm-b";
  apps::nk_tenant server = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  // --- server application: accept one connection, echo what it reads ------
  core::guest_lib& srv = *server.glib;
  const std::uint32_t listener = srv.nk_socket().value();
  (void)srv.nk_bind(listener, 7777);
  (void)srv.nk_listen(listener);

  std::uint32_t conn = 0;
  srv.set_event_handler([&](std::uint32_t fd, stack::socket_event_type type,
                            errc) {
    if (fd == listener && type == stack::socket_event_type::accept_ready) {
      conn = srv.nk_accept(listener).value();
      std::printf("[server] accepted fd=%u\n", conn);
    } else if (fd == conn && type == stack::socket_event_type::readable) {
      while (auto data = srv.nk_recv(conn, 1 << 20)) {
        std::printf("[server] echoing %zu bytes\n", data.value().size());
        (void)srv.nk_send(conn, std::move(data).value());
      }
    }
  });

  // --- client application: connect, send, print the echo ------------------
  core::guest_lib& cli = *client.glib;
  const std::uint32_t sock = cli.nk_socket().value();
  std::size_t echoed = 0;
  cli.set_event_handler([&](std::uint32_t fd, stack::socket_event_type type,
                            errc) {
    if (fd != sock) return;
    if (type == stack::socket_event_type::connected) {
      std::printf("[client] connected; sending 64 KiB\n");
      (void)cli.nk_send(sock, buffer::pattern(64 * 1024, 0));
    } else if (type == stack::socket_event_type::readable) {
      while (auto data = cli.nk_recv(sock, 1 << 20)) {
        if (!data.value().matches_pattern(echoed)) {
          std::printf("[client] CORRUPTED echo!\n");
        }
        echoed += data.value().size();
      }
    }
  });
  (void)cli.nk_connect(sock, {server.module->config().address, 7777});

  // Run 50 simulated milliseconds — far more than this exchange needs.
  bed.run_for(milliseconds(50));

  std::printf("[client] received %zu / 65536 echoed bytes, intact\n", echoed);
  std::printf("\nNetKernel path statistics:\n");
  std::printf("  client GuestLib ops issued:   %llu\n",
              static_cast<unsigned long long>(cli.stats().ops_issued));
  std::printf("  CoreEngine nqes forwarded:    %llu\n",
              static_cast<unsigned long long>(
                  bed.netkernel(side::a).stats().nqes_forwarded));
  std::printf("  NSM stack segments sent:      %llu\n",
              static_cast<unsigned long long>(
                  client.module->stack().stats().tx_packets));

  // Machine-readable observability dumps from the client-side CoreEngine:
  // per-hop nqe latency histograms + every counter/gauge in Prometheus
  // text format, and the traced spans as Chrome trace events.
  core::core_engine& ce = bed.netkernel(side::a);
  {
    std::ofstream prom{"quickstart_metrics.prom"};
    prom << ce.metrics().to_prom();
  }
  {
    std::ofstream trace{"quickstart_trace.json"};
    trace << ce.tracer().to_chrome_json();
  }
  {
    // Unified diagnosis snapshot: the provider-wide flow table (every
    // connection as <VM, fd> with live stack state) plus the stage-pair
    // critical-path breakdown — one document, one run.
    std::ofstream diag{"quickstart_diagnosis.json"};
    diag << "{\"flows\":[";
    bool first = true;
    for (const auto& row : ce.flow_table()) {
      if (!first) diag << ',';
      first = false;
      diag << "{\"vm\":" << row.vm << ",\"fd\":" << row.fd << ",\"nsm\":"
           << row.nsm << ",\"cid\":" << row.cid << ",\"info\":"
           << row.info.to_json() << '}';
    }
    diag << "],\"critical_path\":" << ce.tracer().critical_path_json() << '}';
  }
  std::printf("\nObservability dumps written:\n");
  std::printf("  quickstart_metrics.prom  (Prometheus text format)\n");
  std::printf("  quickstart_diagnosis.json (flow table + critical path)\n");
  std::printf("  quickstart_trace.json    (open at https://ui.perfetto.dev\n");
  std::printf("                            or chrome://tracing)\n");
  std::printf("  traced nqes: %zu spans across %d pipeline stages\n",
              ce.tracer().completed().size(), obs::nqe_stage_count);
  return echoed == 64 * 1024 ? 0 : 1;
}
