#include "sim_harness.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <string_view>

#include "obs/trace.hpp"
#include "stats.hpp"

namespace nkb {

namespace apps = nk::apps;
namespace core = nk::core;
using nk::sim_time;

namespace {

constexpr int slices = 200;
// Set-up time is dominated by faulting in and zeroing fresh memory (every
// NetKernel VM's 80 MB huge-page pool), whose speed drifts by tens of
// percent with the load other tenants put on the host. A fixed probe of
// the same kind of work, sharing no code with the system, runs just before
// each set-up; set-up time is reported in units of the probe's time, scaled
// to seconds by the probe's nominal time on a quiet 4-vCPU x86-64 host.
constexpr std::size_t probe_bytes = std::size_t{64} << 20;
constexpr int probe_inserts = 20'000;
constexpr double probe_nominal_s = 0.05;
constexpr sim_time ready_step = nk::microseconds(10);
constexpr sim_time ready_cap = nk::milliseconds(200);
constexpr sim_time drain_step = nk::milliseconds(1);
constexpr sim_time drain_cap = nk::milliseconds(2000);
// After the load drained: chunk recycles and receive-window credits still
// crossing the rings settle before the pool check.
constexpr sim_time settle = nk::milliseconds(2);

const std::array<sim_spec, 3> specs = {{
    {"bulk_dc", &make_bulk_dc, nk::milliseconds(100), 45.0,
     "64 KB of payload delivered"},
    {"rpc_fanin", &make_rpc_fanin, nk::milliseconds(5), 13.0,
     "one 64 B echo RPC"},
    {"churn_mice", &make_churn_mice, nk::milliseconds(20), 90.0,
     "one flow (connect, send, close)"},
}};

// Hops of the engine tracer's stage-pair attribution, in pipeline order.
constexpr std::array<nk::obs::nqe_stage, 8> hops = {
    nk::obs::nqe_stage::vm_job_dwell,   nk::obs::nqe_stage::engine_copy_fwd,
    nk::obs::nqe_stage::nsm_job_dwell,  nk::obs::nqe_stage::servicelib_dispatch,
    nk::obs::nqe_stage::stack_accept,   nk::obs::nqe_stage::nsm_out_dwell,
    nk::obs::nqe_stage::engine_copy_rev, nk::obs::nqe_stage::vm_out_dwell,
};

using bucket_array = std::array<std::uint64_t, nk::obs::histogram::bucket_count>;

// Cumulative counters of every layer at one instant.
struct layer_snapshot {
  std::uint64_t events = 0;
  sim_time now{};
  double ops = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t charged_ns = 0;  // modeled busy ns, every core
  std::map<std::string, std::uint64_t, std::less<>> prof;  // stack -> ns
  std::uint64_t nqes_forwarded = 0;
  std::vector<std::uint64_t> shard_busy_ns;  // every engine shard core
  std::vector<std::uint64_t> nsm_busy_ns;    // every NSM core
  std::uint64_t jobs_deferred = 0;
  std::uint64_t send_blocked = 0;
  std::uint64_t queue_stalls = 0;
  std::uint64_t chunk_stalls = 0;
  std::uint64_t link_bytes_fwd = 0;
  std::uint64_t link_bytes_rev = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t link_ecn = 0;
  std::array<bucket_array, hops.size()> hop_buckets{};
};

std::array<core::core_engine*, 2> engines(apps::testbed& bed) {
  return {&bed.netkernel(apps::side::a), &bed.netkernel(apps::side::b)};
}

layer_snapshot snapshot(sim_workload& wl) {
  apps::testbed& bed = wl.bed();
  layer_snapshot s;
  s.events = bed.sim().events_processed();
  s.now = bed.sim().now();
  s.ops = wl.ops_completed();
  s.bytes = wl.bytes_delivered();
  s.charged_ns = bed.profiler().charged_ns();
  for (const auto& node : bed.profiler().top(~std::size_t{0})) {
    s.prof[node.stack] = node.ns;
  }
  for (core::core_engine* ce : engines(bed)) {
    s.nqes_forwarded += ce->stats().nqes_forwarded;
    for (std::size_t sh = 0; sh < ce->shards(); ++sh) {
      const nk::sim::cpu_core* c = ce->shard_core(sh);
      s.shard_busy_ns.push_back(
          c == nullptr ? 0 : static_cast<std::uint64_t>(c->busy_time().count()));
    }
    for (const auto& module : ce->nsms()) {
      for (const nk::sim::cpu_core* c : module->cores()) {
        s.nsm_busy_ns.push_back(static_cast<std::uint64_t>(c->busy_time().count()));
      }
      if (core::service_lib* svc = ce->service_of(module->id())) {
        s.queue_stalls += svc->stats().queue_stalls;
        s.chunk_stalls += svc->stats().chunk_stalls;
      }
    }
    for (const auto vm : ce->attached_vms()) {
      if (const core::guest_lib* g = ce->guestlib_of(vm)) {
        s.jobs_deferred += g->stats().jobs_deferred;
        s.send_blocked += g->stats().send_blocked;
      }
    }
    for (std::size_t h = 0; h < hops.size(); ++h) {
      for (const char* dir : {"fwd", "rev"}) {
        const std::string name = std::string("nqe_attr_") + dir + "_" +
                                 std::string(to_string(hops[h])) + "_ns";
        if (const auto* hist = ce->metrics().find_histogram(name)) {
          for (std::size_t b = 0; b < s.hop_buckets[h].size(); ++b) {
            s.hop_buckets[h][b] += hist->buckets()[b];
          }
        }
      }
    }
  }
  for (nk::phys::link* l : {&bed.wire().forward(), &bed.wire().backward()}) {
    s.link_drops += l->queue_statistics().dropped;
    s.link_ecn += l->queue_statistics().ecn_marked;
  }
  s.link_bytes_fwd = bed.wire().forward().stats().bytes_sent;
  s.link_bytes_rev = bed.wire().backward().stats().bytes_sent;
  return s;
}

// Component a profiler leaf is charged to: its innermost scope
// ("host-a/core3;servicelib:dispatch;netstack:tx" -> "netstack").
std::string_view component_of(std::string_view stack) {
  const auto semi = stack.rfind(';');
  if (semi == std::string_view::npos) return "(unscoped)";
  std::string_view leaf = stack.substr(semi + 1);
  return leaf.substr(0, leaf.find(':'));
}

// Modeled ns charged per component between two snapshots.
std::map<std::string, double, std::less<>> component_ns(
    const layer_snapshot& a, const layer_snapshot& b) {
  std::map<std::string, double, std::less<>> out;
  for (const auto& [stack, ns] : b.prof) {
    const auto it = a.prof.find(stack);
    const std::uint64_t before = it == a.prof.end() ? 0 : it->second;
    out[std::string(component_of(stack))] += static_cast<double>(ns - before);
  }
  return out;
}

double max_util(const std::vector<std::uint64_t>& a,
                const std::vector<std::uint64_t>& b, double window_ns) {
  double best = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    best = std::max(best, static_cast<double>(b[i] - a[i]) / window_ns);
  }
  return best;
}

std::uint64_t sum_delta(const std::vector<std::uint64_t>& a,
                        const std::vector<std::uint64_t>& b) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) total += b[i] - a[i];
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

volatile std::uint64_t probe_sink = 0;

// Wall seconds to fault in and zero `probe_bytes`, then index a sample of
// it in a node-based map.
double memory_probe_s() {
  const std::int64_t t0 = wall_ns();
  const auto mem = std::make_unique<std::byte[]>(probe_bytes);
  std::map<std::uint64_t, std::uint64_t> index;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < probe_inserts; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    index[x] = std::to_integer<std::uint64_t>(mem[x % probe_bytes]);
  }
  probe_sink = probe_sink + index.size();
  return static_cast<double>(wall_ns() - t0) / 1e9;
}

// Samples taken at each slice boundary of a traced pass.
struct slice_samples {
  double backlog_sum_ns = 0.0;
  std::size_t backlog_n = 0;
  std::vector<double> srtt_us;
  // Highest retransmit count seen per flow (<engine, vm, fd>).
  std::map<std::uint64_t, std::uint64_t> retransmits;
};

void sample_slice(apps::testbed& bed, slice_samples& out) {
  double worst = 0.0;
  std::uint64_t side = 0;
  for (core::core_engine* ce : engines(bed)) {
    for (std::size_t sh = 0; sh < ce->shards(); ++sh) {
      if (const nk::sim::cpu_core* c = ce->shard_core(sh)) {
        worst = std::max(worst, static_cast<double>(c->backlog().count()));
      }
    }
    for (const auto& row : ce->flow_table()) {
      if (row.info.srtt_ns > 0) {
        out.srtt_us.push_back(static_cast<double>(row.info.srtt_ns) / 1e3);
      }
      const std::uint64_t key =
          (side << 48) | (std::uint64_t{row.vm} << 32) | row.fd;
      auto& seen = out.retransmits[key];
      seen = std::max(seen, row.info.retransmits);
    }
    ++side;
  }
  out.backlog_sum_ns += worst;
  ++out.backlog_n;
}

bool run_until_ready(sim_workload& wl) {
  apps::testbed& bed = wl.bed();
  const sim_time cap = bed.sim().now() + ready_cap;
  while (!wl.ready()) {
    if (bed.sim().now() >= cap) return false;
    bed.run_for(ready_step);
  }
  return true;
}

// Invariants every healthy run must hold after it quiesced.
void check_pipeline(apps::testbed& bed, check_log& log) {
  for (core::core_engine* ce : engines(bed)) {
    const std::string host = ce == &bed.netkernel(apps::side::a) ? "a" : "b";
    for (std::size_t sh = 0; sh < ce->shards(); ++sh) {
      const core::core_engine_stats& st = ce->shard_stats(sh);
      log.expect(st.unroutable_nqes + st.nqes_dropped + st.stale_nqes +
                         st.rejected_nqes ==
                     ce->shard_traces_dropped(sh) + ce->shard_discards_untraced(sh),
                 "engine " + host + " shard " + std::to_string(sh) +
                     ": drop identity does not balance");
    }
    const core::core_engine_stats st = ce->stats();
    // Reported, not fatal: at the overflow cap the engine discards only
    // droppable nqes (receive-window credits, data events), recycling their
    // chunks, and the payload and drop-identity checks still hold.
    log.warn_unless(st.nqes_dropped == 0,
                    "engine " + host + ": dropped " + std::to_string(st.nqes_dropped) +
                        " nqes at the overflow cap");
    log.expect(st.rejected_nqes == 0, "engine " + host + ": rejected " +
                                          std::to_string(st.rejected_nqes));
    for (const auto& module : ce->nsms()) {
      const core::service_lib* svc = ce->service_of(module->id());
      if (svc == nullptr) continue;
      log.expect(svc->stats().nqes_dropped == 0,
                 "servicelib " + module->name() + ": dropped " +
                     std::to_string(svc->stats().nqes_dropped));
      log.expect(svc->stats().chunk_key_mismatch == 0,
                 "servicelib " + module->name() + ": rejected " +
                     std::to_string(svc->stats().chunk_key_mismatch));
    }
    for (const auto vm : ce->attached_vms()) {
      const core::channel* ch = ce->channel_of(vm);
      if (ch == nullptr) continue;
      log.expect(ch->pool.chunk_count() == ch->pool.chunks_free(),
                 "vm " + std::to_string(vm) + ": " +
                     std::to_string(ch->pool.chunk_count() - ch->pool.chunks_free()) +
                     " huge-page chunks still held after quiesce");
    }
  }
}

}  // namespace

nk::apps::nk_tenant add_tenant(apps::testbed& bed, apps::side s,
                               const nk::virt::vm_config& vm_cfg,
                               const core::nsm_config& nsm_cfg,
                               core::nsm* module, const build_ctx& ctx) {
  const double rss0 = current_rss_mb();
  const std::int64_t t0 = wall_ns();
  apps::nk_tenant t;
  {
    scoped_span span{ctx.spans,
                     module == nullptr ? span_name::add_vm : span_name::attach_vm};
    t = module == nullptr ? bed.add_netkernel_vm(s, vm_cfg, nsm_cfg)
                          : bed.attach_netkernel_vm(s, vm_cfg, *module);
  }
  if (ctx.vm_setup != nullptr) {
    ctx.vm_setup->push_back(vm_setup_sample{
        static_cast<double>(wall_ns() - t0) / 1e6, current_rss_mb() - rss0});
  }
  return t;
}

std::unique_ptr<nk::apps::testbed> make_testbed(const run_params& p,
                                                const build_ctx& ctx) {
  apps::testbed_params params = apps::datacenter_params(p.seed);
  params.netkernel.trace.enabled = ctx.spans != nullptr;
  scoped_span span{ctx.spans, span_name::testbed};
  return std::make_unique<apps::testbed>(params);
}

const sim_spec* find_sim_spec(const std::string& name) {
  for (const auto& s : specs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

pass_result run_sim_pass(const sim_spec& spec, const run_params& p,
                         int setup_reps, span_recorder* spans) {
  pass_result out;
  const auto window = sim_time{static_cast<std::int64_t>(
      p.seconds * spec.model_ms_per_wall_s * 1e6)};
  const sim_time slice = window / slices;
  const sim_time measured = slice * slices;

  std::vector<double> setup_s;   // wall
  std::vector<double> setup_in_probes;
  std::vector<vm_setup_sample> vm_setup;
  std::unique_ptr<sim_workload> wl;
  for (int rep = 0; rep < std::max(1, setup_reps); ++rep) {
    // A testbed's profiler must be gone before the next one installs
    // itself as the process-wide charge listener.
    wl.reset();
    vm_setup.clear();
    const double probe_s = memory_probe_s();
    const build_ctx ctx{spans, &vm_setup, spec.warmup + measured};
    const std::int64_t t0 = wall_ns();
    bool up = false;
    {
      scoped_span s{spans, span_name::setup};
      wl = spec.make(p, ctx);
      scoped_span w{spans, span_name::connect_wait};
      up = run_until_ready(*wl);
    }
    setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
    setup_in_probes.push_back(setup_s.back() / probe_s);
    if (!up) {
      out.checks.expect(false, "connections not established within " +
                                   std::to_string(ready_cap.count() / 1000000) +
                                   " ms modeled");
      return out;
    }
  }
  apps::testbed& bed = wl->bed();
  out.params_json = wl->params_json();

  wl->start_load();
  const std::int64_t warmup_t0 = wall_ns();
  bed.run_for(spec.warmup);
  const double warmup_wall_s = static_cast<double>(wall_ns() - warmup_t0) / 1e9;

  const layer_snapshot a = snapshot(*wl);
  if (spans != nullptr) spans->reset_stats();
  slice_samples samples;
  double wall_total_ns = 0.0;
  double cpu_total_ns = 0.0;
  wl->set_window(true);
  for (int i = 0; i < slices; ++i) {
    const std::uint64_t ev0 = bed.sim().events_processed();
    const std::int64_t t0 = wall_ns();
    const std::int64_t c0 = thread_cpu_ns();
    if (spans != nullptr) spans->begin(span_name::run_until, i);
    bed.sim().run_until(bed.sim().now() + slice);
    const std::uint64_t events = bed.sim().events_processed() - ev0;
    if (spans != nullptr) spans->end(false, events);
    cpu_total_ns += static_cast<double>(thread_cpu_ns() - c0);
    wall_total_ns += static_cast<double>(wall_ns() - t0);
    if (spans != nullptr) sample_slice(bed, samples);
  }
  wl->set_window(false);
  const layer_snapshot b = snapshot(*wl);
  std::array<span_stats, span_name_count> span_window{};
  if (spans != nullptr) {
    for (std::size_t n = 0; n < span_name_count; ++n) {
      span_window[n] = spans->stats(static_cast<span_name>(n));
    }
  }

  wl->stop_load();
  const std::int64_t drain_t0 = wall_ns();
  const sim_time drain_start = bed.sim().now();
  const sim_time drain_deadline = bed.sim().now() + drain_cap;
  while (!wl->drained() && bed.sim().now() < drain_deadline) {
    bed.run_for(drain_step);
  }
  const sim_time drain_model = bed.sim().now() - drain_start;
  bed.run_for(settle);
  const double drain_wall_s = static_cast<double>(wall_ns() - drain_t0) / 1e9;
  out.checks.expect(wl->drained(), "load did not drain within " +
                                       std::to_string(drain_cap.count() / 1000000) +
                                       " ms modeled");
  wl->check(out.checks);
  check_pipeline(bed, out.checks);
  out.attempted = wl->attempted();
  out.failed = wl->failed();

  // --- end-to-end metrics -------------------------------------------------
  const double window_ns = static_cast<double>((b.now - a.now).count());
  const double ops = b.ops - a.ops;
  const double bytes = static_cast<double>(b.bytes - a.bytes);
  const double kb = bytes / 1024.0;
  std::vector<double>& lat = wl->latencies_us();
  const summary lat_sum = summarize(lat);
  const std::string lat_note = "modeled, n=" + std::to_string(lat_sum.n);

  out.modeled.set("goodput_gbps", bytes * 8.0 / window_ns, "Gb/s",
                  "modeled payload bits per modeled ns over the window");
  out.modeled.set("op_rate_kops", ops * 1e6 / window_ns, "kop/s",
                  std::string("modeled; op = ") + spec.op);
  out.modeled.set("op_p50_us", lat_sum.p50, "us",
                  lat_note + "; p99 " + json_number(lat_sum.p99) + " us, highest supported p" +
                      json_number(lat_sum.tail_p) + " = " + json_number(lat_sum.tail) + " us");
  out.modeled.set("cpu_ns_per_kb",
                  ratio(static_cast<double>(b.charged_ns - a.charged_ns), kb),
                  "ns/KB", "modeled busy ns of every core per KB delivered");
  out.modeled.set("ok_ratio",
                  1.0 - ratio(static_cast<double>(out.failed),
                              static_cast<double>(out.attempted)),
                  "ratio",
                  std::to_string(out.failed) + " failed of " +
                      std::to_string(out.attempted) + " attempted");

  out.wall_per_model_s = wall_total_ns / window_ns;
  const double events = static_cast<double>(b.events - a.events);
  out.cpu_per_model_s = cpu_total_ns / window_ns;
  out.wall.set("setup_s", median(setup_in_probes) * probe_nominal_s, "s",
               "median of " + std::to_string(setup_s.size()) +
                   " set-ups, each in units of the memory probe run before it, x " +
                   json_number(probe_nominal_s) + " s; unscaled wall median " +
                   json_number(median(setup_s)) + " s");
  out.phases = "setup " + json_number(median(setup_s)) + " s x" +
               std::to_string(setup_s.size()) + ", warm-up " +
               json_number(warmup_wall_s) + " s, window " +
               json_number(wall_total_ns / 1e9) + " s (" +
               json_number(window_ns / 1e6) + " ms modeled), drain " +
               json_number(drain_wall_s) + " s (" +
               json_number(static_cast<double>(drain_model.count()) / 1e6) +
               " ms modeled)";

  // --- per-layer metrics ----------------------------------------------------
  metric_set& L = out.layers;
  L.set("sim.events_per_model_ms", events / (window_ns / 1e6), "count");
  L.set("sim.wall_ns_per_event", ratio(wall_total_ns, events), "ns");
  L.set("sim.cpu_ns_per_event", ratio(cpu_total_ns, events), "ns");
  if (spans == nullptr) return out;

  const span_stats& slice_st = span_window[static_cast<std::size_t>(span_name::run_until)];
  L.set("sim.self_wall_share",
        ratio(static_cast<double>(slice_st.self_ns),
              static_cast<double>(slice_st.total_ns)),
        "ratio");

  const auto upper = [](int i) { return nk::obs::histogram::bucket_upper(i); };
  bucket_array api_buckets{};
  std::uint64_t api_calls = 0;
  std::uint64_t api_blocked = 0;
  for (std::size_t n = 0; n < span_name_count; ++n) {
    if (!is_api(static_cast<span_name>(n))) continue;
    const span_stats& st = span_window[n];
    api_calls += st.count;
    api_blocked += st.would_block;
    for (std::size_t i = 0; i < api_buckets.size(); ++i) {
      api_buckets[i] += st.duration_ns.buckets()[i];
    }
  }
  const auto comp = component_ns(a, b);
  const auto comp_of = [&](std::string_view name) {
    const auto it = comp.find(name);
    return it == comp.end() ? 0.0 : it->second;
  };
  const double nqes = static_cast<double>(b.nqes_forwarded - a.nqes_forwarded);

  L.set("guestlib.calls_per_op", ratio(static_cast<double>(api_calls), ops), "count");
  L.set("guestlib.call_wall_ns_p50", bucket_percentile(api_buckets, 50.0, upper), "ns");
  L.set("guestlib.call_wall_ns_p99", bucket_percentile(api_buckets, 99.0, upper), "ns");
  L.set("guestlib.would_block_ratio",
        ratio(static_cast<double>(api_blocked), static_cast<double>(api_calls)),
        "ratio");
  L.set("guestlib.jobs_deferred", static_cast<double>(b.jobs_deferred - a.jobs_deferred), "count");
  L.set("guestlib.send_blocked", static_cast<double>(b.send_blocked - a.send_blocked), "count");
  L.set("guestlib.model_ns_per_op", ratio(comp_of("guestlib"), ops), "ns");

  const core::core_engine_stats ea = bed.netkernel(apps::side::a).stats();
  const core::core_engine_stats eb = bed.netkernel(apps::side::b).stats();
  L.set("engine.nqes_per_op", ratio(nqes, ops), "count");
  L.set("engine.model_ns_per_nqe",
        ratio(static_cast<double>(sum_delta(a.shard_busy_ns, b.shard_busy_ns)), nqes),
        "ns");
  L.set("engine.util", max_util(a.shard_busy_ns, b.shard_busy_ns, window_ns), "ratio");
  L.set("engine.backlog_ns",
        ratio(samples.backlog_sum_ns, static_cast<double>(samples.backlog_n)), "ns");
  L.set("engine.mappings_per_flow",
        ratio(static_cast<double>(ea.mappings_installed + eb.mappings_installed),
              static_cast<double>(wl->flows_opened())),
        "count");
  L.set("engine.deferred", static_cast<double>(ea.nqes_deferred + eb.nqes_deferred), "count");
  L.set("engine.dropped", static_cast<double>(ea.nqes_dropped + eb.nqes_dropped), "count");
  L.set("engine.rejected", static_cast<double>(ea.rejected_nqes + eb.rejected_nqes), "count");

  L.set("servicelib.util", max_util(a.nsm_busy_ns, b.nsm_busy_ns, window_ns), "ratio");
  L.set("servicelib.model_ns_per_op", ratio(comp_of("servicelib"), ops), "ns");
  L.set("servicelib.queue_stalls", static_cast<double>(b.queue_stalls - a.queue_stalls), "count");
  L.set("servicelib.chunk_stalls", static_cast<double>(b.chunk_stalls - a.chunk_stalls), "count");

  std::uint64_t retx = 0;
  for (const auto& [flow, n] : samples.retransmits) retx += n;
  L.set("tcp.model_ns_per_kb", ratio(comp_of("netstack") + comp_of("tcp"), kb), "ns/KB");
  L.set("tcp.retransmits_per_flow",
        ratio(static_cast<double>(retx), static_cast<double>(samples.retransmits.size())),
        "count");
  L.set("tcp.srtt_p50_us", median(samples.srtt_us), "us");

  const double link_bits_per_ns = bed.wire().forward().config().rate.bps() / 1e9;
  const auto link_bytes = std::max(b.link_bytes_fwd - a.link_bytes_fwd,
                                   b.link_bytes_rev - a.link_bytes_rev);
  L.set("link.util",
        ratio(static_cast<double>(link_bytes) * 8.0, link_bits_per_ns * window_ns),
        "ratio");
  L.set("link.queue_drops", static_cast<double>(b.link_drops - a.link_drops), "count");
  L.set("link.ecn_marked", static_cast<double>(b.link_ecn - a.link_ecn), "count");

  for (std::size_t h = 0; h < hops.size(); ++h) {
    bucket_array d{};
    for (std::size_t i = 0; i < d.size(); ++i) {
      d[i] = b.hop_buckets[h][i] - a.hop_buckets[h][i];
    }
    const std::string stage{to_string(hops[h])};
    L.set("nqe.hop_" + stage + "_p50_ns", bucket_percentile(d, 50.0, upper), "ns");
    L.set("nqe.hop_" + stage + "_p99_ns", bucket_percentile(d, 99.0, upper), "ns");
  }

  double vm_ms = 0.0;
  double vm_mb = 0.0;
  for (const auto& v : vm_setup) {
    vm_ms += v.wall_ms;
    vm_mb += v.rss_delta_mb;
  }
  const auto vms = static_cast<double>(vm_setup.size());
  L.set("mem.rss_per_vm_mb", ratio(vm_mb, vms), "MB");
  L.set("setup.per_vm_ms", ratio(vm_ms, vms), "ms");
  return out;
}

}  // namespace nkb
