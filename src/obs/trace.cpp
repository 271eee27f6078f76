#include "obs/trace.hpp"

#include <cstdio>
#include <sstream>

namespace nk::obs {

nqe_tracer::nqe_tracer(sim::simulator& s, metrics_registry& reg,
                       const trace_config& cfg)
    : sim_{s}, reg_{reg}, cfg_{cfg} {
  sampled_ = &reg.get_counter("nqe_traces_sampled");
  overflow_ = &reg.get_counter("nqe_traces_overflow");
  dropped_ = &reg.get_counter("nqe_traces_dropped");
  // Critical-path summary gauges: per direction, the sum of the per-hop
  // mean latencies — the expected wall-clock of an nqe that crosses every
  // hop. Export-time sampling only; the detailed per-hop breakdown lives in
  // the nqe_attr_* histograms and critical_path_json().
  for (const bool rev : {false, true}) {
    reg.register_gauge_fn(
        std::string("nqe_attr_") + (rev ? "rev" : "fwd") + "_total_mean_ns",
        [this, rev] {
          double total = 0.0;
          for (int i = 0; i < nqe_stage_count; ++i) {
            const histogram* h =
                attr_hist_[static_cast<std::size_t>(i) * 2 + (rev ? 1 : 0)];
            if (h != nullptr && h->count() > 0) total += h->mean();
          }
          return total;
        });
  }
}

void nqe_tracer::note(std::uint16_t nsm, std::uint16_t vm,
                      std::string_view text) {
  if (recorder_ != nullptr) recorder_->note(nsm, vm, text, sim_.now());
}

void nqe_tracer::record_event(const nqe_trace& t, flight_event_kind kind,
                              nqe_stage stage, sim_time at) {
  if (recorder_ == nullptr) return;
  flight_event ev;
  ev.at = at;
  ev.kind = kind;
  ev.stage = static_cast<std::uint8_t>(stage);
  ev.reverse = t.reverse;
  ev.vm = t.vm;
  ev.op = t.op;
  ev.trace = t.id;
  recorder_->append(t.nsm, ev);
}

histogram* nqe_tracer::attr_hist(bool reverse, nqe_stage stage) {
  const std::size_t idx =
      static_cast<std::size_t>(stage) * 2 + (reverse ? 1 : 0);
  if (attr_hist_[idx] == nullptr) {
    attr_hist_[idx] = &reg_.get_histogram(
        std::string("nqe_attr_") + (reverse ? "rev" : "fwd") + "_" +
        std::string(to_string(stage)) + "_ns");
  }
  return attr_hist_[idx];
}

void nqe_tracer::attribute(const nqe_trace& t) {
  sim_time prev = t.begin;
  for (std::size_t i = 0; i < t.n_stamps; ++i) {
    const trace_stamp& s = t.stamps[i];
    attr_hist(t.reverse, s.stage)->record_time(s.at - prev);
    prev = s.at;
  }
}

std::uint64_t nqe_tracer::maybe_begin(shm::nqe& e, bool reverse,
                                      std::uint16_t vm, std::uint16_t nsm) {
  if (!cfg_.enabled) return 0;
  if (active_.size() >= cfg_.max_active) {
    overflow_->inc();
    return 0;
  }
  const std::uint64_t id = next_id_++;
  nqe_trace t;
  t.id = id;
  t.op = e.op;
  t.vm = vm;
  t.nsm = nsm;
  t.reverse = reverse;
  t.begin = sim_.now();
  active_.emplace(id, t);
  e.reserved = id;
  sampled_->inc();
  record_event(t, flight_event_kind::trace_begin, nqe_stage::vm_job_dwell,
               t.begin);
  return id;
}

void nqe_tracer::stamp(std::uint64_t id, nqe_stage stage) {
  if (id == 0) return;
  auto it = active_.find(id);
  if (it == active_.end()) return;
  nqe_trace& t = it->second;
  const sim_time now = sim_.now();
  if (t.n_stamps < nqe_trace::max_stamps) {
    t.stamps[t.n_stamps++] = trace_stamp{stage, now};
  }
  record_event(t, flight_event_kind::trace_stamp, stage, now);
}

void nqe_tracer::finish(std::uint64_t id) {
  if (id == 0) return;
  auto it = active_.find(id);
  if (it == active_.end()) return;
  nqe_trace& t = it->second;

  // End-to-end pipeline latency, keyed per (VM, direction) and per
  // (NSM, direction). Lazy histogram registration is an allocation, but
  // only on the first trace a given key completes.
  const std::string dir = t.reverse ? "rev" : "fwd";
  const std::uint32_t vkey = (std::uint32_t{t.vm} << 1) | (t.reverse ? 1 : 0);
  const std::uint32_t nkey = (std::uint32_t{t.nsm} << 1) | (t.reverse ? 1 : 0);
  auto [vit, vnew] = vm_total_.try_emplace(vkey, nullptr);
  if (vnew) {
    vit->second = &reg_.get_histogram("nqe_total_vm" + std::to_string(t.vm) +
                                      "_" + dir + "_ns");
  }
  auto [nit, nnew] = nsm_total_.try_emplace(nkey, nullptr);
  if (nnew) {
    nit->second = &reg_.get_histogram("nqe_total_nsm" + std::to_string(t.nsm) +
                                      "_" + dir + "_ns");
  }
  const sim_time total = t.end() - t.begin;
  vit->second->record_time(total);
  nit->second->record_time(total);

  // Stage-pair attribution: feed each hop's delta into the per-direction
  // histograms so the exporters can break the total down per hop.
  attribute(t);
  record_event(t, flight_event_kind::trace_finish, nqe_stage::vm_job_dwell,
               t.end());

  if (done_.size() < cfg_.max_spans) done_.push_back(t);
  active_.erase(it);
}

bool nqe_tracer::drop(std::uint64_t id) {
  // Only a trace that was actually live counts: a request trace already
  // finished at dispatch (whose id still rides in the nqe) is not a drop.
  if (id == 0) return false;
  auto it = active_.find(id);
  if (it == active_.end()) return false;
  record_event(it->second, flight_event_kind::trace_drop,
               nqe_stage::vm_job_dwell, sim_.now());
  active_.erase(it);
  dropped_->inc();
  return true;
}

std::string nqe_tracer::to_chrome_json() const {
  std::ostringstream os;
  // ts/dur are microseconds (double); pid groups rows by VM, tid gives each
  // traced nqe its own row so stage spans never overlap.
  auto emit_trace = [&os](const nqe_trace& t, bool& first) {
    sim_time prev = t.begin;
    for (std::size_t i = 0; i < t.n_stamps; ++i) {
      const trace_stamp& s = t.stamps[i];
      if (!first) os << ',';
      first = false;
      os << "{\"name\":\"" << to_string(s.stage) << "\",\"cat\":\"nqe,"
         << (t.reverse ? "rev" : "fwd") << "\",\"ph\":\"X\",\"ts\":"
         << static_cast<double>(prev.count()) / 1000.0
         << ",\"dur\":" << static_cast<double>((s.at - prev).count()) / 1000.0
         << ",\"pid\":" << t.vm << ",\"tid\":" << t.id << ",\"args\":{"
         << "\"op\":\"" << shm::to_string(t.op) << "\",\"nsm\":" << t.nsm
         << ",\"trace\":" << t.id << "}}";
      prev = s.at;
    }
  };

  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const auto& t : done_) emit_trace(t, first);
  for (const auto& [id, t] : active_) emit_trace(t, first);
  // Process-name metadata so Perfetto labels rows by tenant VM.
  std::unordered_map<std::uint16_t, bool> vms;
  for (const auto& t : done_) vms.emplace(t.vm, true);
  for (const auto& [id, t] : active_) vms.emplace(t.vm, true);
  for (const auto& [vm, unused] : vms) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << vm
       << ",\"args\":{\"name\":\"vm" << vm << "\"}}";
  }
  os << "]}";
  return os.str();
}

std::string nqe_tracer::critical_path_json() const {
  std::ostringstream os;
  os << '{';
  bool first_dir = true;
  for (const bool rev : {false, true}) {
    // Gather the hops that have seen traffic in this direction. A hop's
    // share is its summed time over the direction's total summed time —
    // i.e. where the pipeline's wall-clock actually went.
    std::uint64_t total_sum = 0;
    for (int i = 0; i < nqe_stage_count; ++i) {
      const histogram* h =
          attr_hist_[static_cast<std::size_t>(i) * 2 + (rev ? 1 : 0)];
      if (h != nullptr) total_sum += h->sum();
    }
    if (!first_dir) os << ',';
    first_dir = false;
    os << '"' << (rev ? "rev" : "fwd") << "\":{\"total_sum_ns\":" << total_sum
       << ",\"hops\":[";
    bool first_hop = true;
    int critical = -1;
    std::uint64_t critical_sum = 0;
    for (int i = 0; i < nqe_stage_count; ++i) {
      const histogram* h =
          attr_hist_[static_cast<std::size_t>(i) * 2 + (rev ? 1 : 0)];
      if (h == nullptr || h->count() == 0) continue;
      if (h->sum() > critical_sum) {
        critical_sum = h->sum();
        critical = i;
      }
      if (!first_hop) os << ',';
      first_hop = false;
      const double share =
          total_sum > 0 ? static_cast<double>(h->sum()) /
                              static_cast<double>(total_sum)
                        : 0.0;
      char share_buf[32];
      std::snprintf(share_buf, sizeof(share_buf), "%.4f", share);
      os << "{\"stage\":\"" << to_string(static_cast<nqe_stage>(i))
         << "\",\"count\":" << h->count() << ",\"mean_ns\":"
         << static_cast<std::uint64_t>(h->mean()) << ",\"p50_ns\":"
         << static_cast<std::uint64_t>(h->p50()) << ",\"p99_ns\":"
         << static_cast<std::uint64_t>(h->p99()) << ",\"share\":" << share_buf
         << '}';
    }
    os << "],\"critical\":\""
       << (critical >= 0 ? to_string(static_cast<nqe_stage>(critical))
                         : std::string_view{"none"})
       << "\"}";
  }
  os << '}';
  return os.str();
}

}  // namespace nk::obs
