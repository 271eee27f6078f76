// nqe lifecycle tracer: stamps each nqe at the paper's pipeline stages and
// turns the stamps into per-hop latency histograms plus Chrome trace_event
// spans.
//
// Forward path (request):
//   GuestLib submit ──vm_job_dwell──▶ CoreEngine pop ──engine_copy_fwd──▶
//   NSM job queue ──nsm_job_dwell──▶ ServiceLib pop ──servicelib_dispatch──▶
//   executed (req_send additionally ──stack_accept──▶ stack took the bytes)
// Reverse path (completion/event):
//   ServiceLib push ──nsm_out_dwell──▶ CoreEngine pop ──engine_copy_rev──▶
//   VM queue ──vm_out_dwell──▶ GuestLib pop (trace finishes)
//
// The trace id rides in nqe.reserved (the cache-line pad), so tracing never
// widens the nqe or adds a lookup on the untraced path: id 0 means "not
// traced" and every hook is a single predictable branch. Tracing is off
// unless trace_config::enabled is set; when on, every nqe is traced (up to
// max_active at once) and tracing draws nothing from the simulator's rng.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "shm/nqe.hpp"
#include "sim/simulator.hpp"

namespace nk::obs {

enum class nqe_stage : std::uint8_t {
  vm_job_dwell,         // VM-side job queue (GuestLib push -> CE pop)
  engine_copy_fwd,      // CE pop -> delivered to the NSM-side job queue
  nsm_job_dwell,        // NSM-side job queue (CE push -> ServiceLib pop)
  servicelib_dispatch,  // ServiceLib pop -> op executed against the stack
  stack_accept,         // req_send only: executed -> stack accepted the bytes
  nsm_out_dwell,        // NSM-side completion/receive queue dwell
  engine_copy_rev,      // CE pop -> delivered to the VM-side queue
  vm_out_dwell,         // VM-side completion/receive queue dwell
  failover_replay,      // journal replay into a replacement NSM (failover)
};
inline constexpr int nqe_stage_count = 9;

[[nodiscard]] constexpr std::string_view to_string(nqe_stage s) {
  switch (s) {
    case nqe_stage::vm_job_dwell: return "vm_job_dwell";
    case nqe_stage::engine_copy_fwd: return "engine_copy_fwd";
    case nqe_stage::nsm_job_dwell: return "nsm_job_dwell";
    case nqe_stage::servicelib_dispatch: return "servicelib_dispatch";
    case nqe_stage::stack_accept: return "stack_accept";
    case nqe_stage::nsm_out_dwell: return "nsm_out_dwell";
    case nqe_stage::engine_copy_rev: return "engine_copy_rev";
    case nqe_stage::vm_out_dwell: return "vm_out_dwell";
    case nqe_stage::failover_replay: return "failover_replay";
  }
  return "unknown";
}

struct trace_config {
  bool enabled = false;
  std::size_t max_active = 4096;    // in-flight traced nqes
  std::size_t max_spans = 1 << 16;  // retained completed traces
};

struct trace_stamp {
  nqe_stage stage{};
  sim_time at{};
};

struct nqe_trace {
  static constexpr std::size_t max_stamps = 8;

  std::uint64_t id = 0;
  shm::nqe_op op = shm::nqe_op::invalid;
  std::uint16_t vm = 0;
  std::uint16_t nsm = 0;
  bool reverse = false;  // NSM -> VM direction
  sim_time begin{};
  std::array<trace_stamp, max_stamps> stamps{};
  std::size_t n_stamps = 0;

  [[nodiscard]] sim_time end() const {
    return n_stamps == 0 ? begin : stamps[n_stamps - 1].at;
  }
};

class nqe_tracer {
 public:
  nqe_tracer(sim::simulator& s, metrics_registry& reg,
             const trace_config& cfg);

  nqe_tracer(const nqe_tracer&) = delete;
  nqe_tracer& operator=(const nqe_tracer&) = delete;

  [[nodiscard]] bool enabled() const { return cfg_.enabled; }
  [[nodiscard]] const trace_config& config() const { return cfg_; }

  // Optional failure flight recorder: every begin/stamp/finish/drop (and
  // explicit note()) is mirrored into the per-NSM ring so a dying module's
  // last moments survive its replacement. nullptr disables mirroring.
  void set_flight_recorder(flight_recorder* fr) { recorder_ = fr; }

  // Control-plane annotation forwarded into the flight recorder (crash,
  // switchover, monitor alert). No-op without a recorder. Not a hot path.
  void note(std::uint16_t nsm, std::uint16_t vm, std::string_view text);

  // Trace start at a pipeline entry point: assigns a trace id, writes it
  // into e.reserved and records the begin timestamp; returns the id (0 when
  // tracing is off or max_active traces are already live).
  std::uint64_t maybe_begin(shm::nqe& e, bool reverse, std::uint16_t vm,
                            std::uint16_t nsm);

  // Records `stage` for trace `id` by appending the stamp; finish() turns
  // the stamps into per-hop deltas. id 0 is a no-op.
  void stamp(std::uint64_t id, nqe_stage stage);

  // Completes the trace: records the end-to-end latency into the per-VM and
  // per-NSM histograms and retires the record for export.
  void finish(std::uint64_t id);

  // Abandons a trace without recording totals: the nqe carrying it was
  // discarded (unroutable, or dropped under overflow). Every call that
  // retires a live trace increments the `nqe_traces_dropped` counter, so the
  // registry can cross-check the pipeline's drop accounting. Returns true
  // iff a live trace was retired, letting per-shard drop accounting count
  // exactly what the global counter counted.
  bool drop(std::uint64_t id);

  // Live traces retired via drop() — the tracer's independent count of
  // discarded traced nqes.
  [[nodiscard]] std::uint64_t drops() const {
    return dropped_ == nullptr ? 0 : dropped_->value();
  }

  [[nodiscard]] std::size_t active_count() const { return active_.size(); }
  [[nodiscard]] const std::deque<nqe_trace>& completed() const {
    return done_;
  }

  // Chrome trace_event format ("traceEvents" array of complete spans), one
  // row per traced nqe; loads in chrome://tracing and ui.perfetto.dev.
  // Includes still-active traces so aborted flows remain visible.
  [[nodiscard]] std::string to_chrome_json() const;

  // Stage-pair latency attribution summary: for each direction, every hop's
  // share of the total pipeline time with count/mean/p50/p99, plus the
  // dominant (critical) hop. Built from the nqe_attr_{fwd,rev}_<stage>_ns
  // histograms that finish() feeds; "{}" when no trace has completed.
  [[nodiscard]] std::string critical_path_json() const;

 private:
  // Records the per-hop deltas of a completed trace into the per-direction
  // attribution histograms (lazily registered on first use).
  void attribute(const nqe_trace& t);
  [[nodiscard]] histogram* attr_hist(bool reverse, nqe_stage stage);
  void record_event(const nqe_trace& t, flight_event_kind kind,
                    nqe_stage stage, sim_time at);
  sim::simulator& sim_;
  metrics_registry& reg_;
  trace_config cfg_;
  std::uint64_t next_id_ = 1;

  // Attribution histograms, one per (direction, stage) pair, lazily
  // registered as nqe_attr_{fwd,rev}_<stage>_ns when first fed.
  std::array<histogram*, 2 * nqe_stage_count> attr_hist_{};
  flight_recorder* recorder_ = nullptr;
  counter* sampled_ = nullptr;
  counter* overflow_ = nullptr;  // traces not started: active set was full
  counter* dropped_ = nullptr;   // live traces retired via drop()
  // Keyed by (id << 1) | reverse — one histogram per entity and direction.
  std::unordered_map<std::uint32_t, histogram*> vm_total_;
  std::unordered_map<std::uint32_t, histogram*> nsm_total_;

  std::unordered_map<std::uint64_t, nqe_trace> active_;
  std::deque<nqe_trace> done_;
};

}  // namespace nk::obs
