// nk_ss: `ss -ti` from inside the guest, without a kernel (DESIGN.md §16).
//
// With the network stack living provider-side, classic in-guest tooling
// (`ss`, `netstat`, getsockopt(TCP_INFO)) has nothing to introspect — the
// TCP state machine is across the channel. The tenant-facing stat page
// closes that gap: CoreEngine publishes a seqlock-versioned snapshot of the
// owning VM's sockets into a page the guest maps read-only, and everything
// below runs purely guest-side — zero round trips, zero provider help.
//
// The walkthrough:
//   1. two tenants on the same host drive traffic (so the provider's
//      flow table holds BOTH tenants' flows);
//   2. tenant A requests a fresh snapshot (req_stat_refresh) and renders
//      its page `ss`-style: per-socket state, srtt, cwnd, retransmits —
//      only A's sockets ever appear, keyed by A's own fds;
//   3. nk_getsockopt(NK_TCP_INFO) pulls one socket's row the way a
//      libc-shimmed app would;
//   4. nk_stack_stats() answers "is the stack throttling me?": ring
//      depths, would_block counts, quota burn, pool headroom.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/nk_ss
#include <cstdio>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"

using namespace nk;
using apps::side;

namespace {

// Renders one tenant's stat page the way `ss -ti` would.
void render_ss(const char* who, core::guest_lib& glib) {
  shm::stat_snapshot snap;
  if (!glib.nk_stat_snapshot(snap)) {
    std::printf("%s: stat page not yet published\n", who);
    return;
  }
  std::printf(
      "%s  (seq=%llu epoch=%llu sockets=%llu%s)\n", who,
      static_cast<unsigned long long>(snap.vm.publish_seq),
      static_cast<unsigned long long>(snap.vm.epoch),
      static_cast<unsigned long long>(snap.vm.sockets),
      (snap.vm.flags & shm::stat_frozen) != 0 ? " FROZEN" : "");
  std::printf("%-4s %-6s %-12s %-18s %-9s %-9s %-8s %-6s %-12s\n", "fd",
              "proto", "state", "peer", "srtt_us", "minrtt_us", "cwnd", "retx",
              "bytes_out");
  for (std::size_t i = 0; i < snap.vm.sockets && i < snap.rows.size(); ++i) {
    const auto& r = snap.rows[i];
    char peer[24];
    std::snprintf(peer, sizeof(peer), "%u.%u.%u.%u:%u", (r.remote_ip >> 24),
                  (r.remote_ip >> 16) & 0xff, (r.remote_ip >> 8) & 0xff,
                  r.remote_ip & 0xff, r.remote_port);
    std::printf("%-4llu %-6s %-12s %-18s %-9.0f %-9.0f %-8llu %-6llu %-12llu\n",
                static_cast<unsigned long long>(r.fd), r.info.transport,
                r.info.state, peer, static_cast<double>(r.info.srtt_ns) / 1e3,
                static_cast<double>(r.info.min_rtt_ns) / 1e3,
                static_cast<unsigned long long>(r.info.cwnd_bytes),
                static_cast<unsigned long long>(r.info.retransmits),
                static_cast<unsigned long long>(r.info.bytes_out));
  }
}

}  // namespace

int main() {
  // A little loss makes srtt growth and retransmits visible in the rows.
  auto params = apps::datacenter_params(/*seed=*/11);
  params.wire.loss_rate = 0.002;
  apps::testbed bed{params};

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  nsm_cfg.cc = tcp::cc_algorithm::cubic;
  virt::vm_config vm_cfg;

  vm_cfg.name = "tenant-a";
  nsm_cfg.name = "nsm-a";
  auto a = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "tenant-b";
  nsm_cfg.name = "nsm-b";
  auto b = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "sink-vm";
  nsm_cfg.name = "nsm-rx";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*rx.api, 9000, /*validate=*/false};
  sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 2;
  scfg.bytes_per_flow = 0;  // keep flows alive for the snapshot
  scfg.patterned = false;
  apps::bulk_sender tx_a{*a.api, {rx.module->config().address, 9000}, scfg};
  scfg.flows = 1;
  apps::bulk_sender tx_b{*b.api, {rx.module->config().address, 9000}, scfg};
  tx_a.start();
  tx_b.start();
  bed.run_for(milliseconds(300));

  // --- 2. refresh, then render: each tenant sees only its own sockets ------
  (void)a.glib->nk_stat_refresh();
  (void)b.glib->nk_stat_refresh();
  bed.run_for(milliseconds(1));

  std::printf("in-guest ss, tenant A's page (2 flows expected):\n");
  render_ss("tenant-a", *a.glib);
  std::printf("\nin-guest ss, tenant B's page (1 flow expected):\n");
  render_ss("tenant-b", *b.glib);

  const auto host_flows = bed.netkernel(side::a).flow_table().size();
  std::printf(
      "\nprovider flow table on this host holds %zu flows; neither page\n"
      "above shows the other tenant's — redaction is by construction.\n",
      host_flows);

  // --- 3. nk_getsockopt(NK_TCP_INFO), the libc-shim path -------------------
  shm::stat_snapshot snap;
  if (a.glib->nk_stat_snapshot(snap) && snap.vm.sockets > 0) {
    const auto fd = static_cast<std::uint32_t>(snap.rows[0].fd);
    const auto info = a.glib->nk_getsockopt(fd, core::nk_option::tcp_info);
    if (info.ok()) {
      std::printf(
          "\nnk_getsockopt(fd=%u, NK_TCP_INFO): %s/%s cc=%s srtt=%.0f us "
          "rttvar=%.0f us cwnd=%llu ssthresh=%llu inflight=%llu "
          "delivery=%.1f Mbps\n",
          fd, info.value().transport, info.value().state, info.value().cc,
          static_cast<double>(info.value().srtt_ns) / 1e3,
          static_cast<double>(info.value().rttvar_ns) / 1e3,
          static_cast<unsigned long long>(info.value().cwnd_bytes),
          static_cast<unsigned long long>(info.value().ssthresh_bytes),
          static_cast<unsigned long long>(info.value().bytes_in_flight),
          info.value().delivery_rate_bps / 1e6);
    }
  }

  // --- 4. the "is the stack throttling me?" aggregates ----------------------
  if (const auto vm = a.glib->nk_stack_stats(); vm.ok()) {
    std::printf(
        "\nstack stats (tenant A): ring_depth=%llu staged=%llu+%llu "
        "would_block send=%llu recv=%llu cycle_used=%llu chunks=%llu/%llu "
        "free\n",
        static_cast<unsigned long long>(vm.value().job_ring_depth),
        static_cast<unsigned long long>(vm.value().staged_jobs),
        static_cast<unsigned long long>(vm.value().staged_completions),
        static_cast<unsigned long long>(vm.value().send_would_block),
        static_cast<unsigned long long>(vm.value().recv_would_block),
        static_cast<unsigned long long>(vm.value().cycle_budget_used),
        static_cast<unsigned long long>(vm.value().chunk_quota_used),
        static_cast<unsigned long long>(vm.value().pool_chunks_free));
  }

  // Sanity for CI: tenant A's page must hold exactly its two flows and
  // never a row the provider attributes to tenant B.
  if (!a.glib->nk_stat_snapshot(snap)) return 1;
  if (snap.vm.sockets != 2) {
    std::printf("FAIL: tenant A page shows %llu sockets, want 2\n",
                static_cast<unsigned long long>(snap.vm.sockets));
    return 1;
  }
  return 0;
}
