// Metric history: a fixed-size ring of aligned samples over sim time.
//
// The registry answers "what is the value now"; this answers "what was it
// over the last N windows" — which is what burn-rate SLOs, regression
// triage ("throughput dipped at t=4s") and bench plots need. Tracked
// sources are registry counters/gauges/callback-gauges (by name) or a
// histogram percentile; every `resolution` of sim time a snapshot of all
// sources lands in one aligned row. Memory is fixed at
// `retention` * series count doubles; old rows are overwritten.
//
// A source that disappears mid-run (unregister_prefix on VM detach / NSM
// retirement) samples as NaN from then on — exported as null, never a
// stale value.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace nk::obs {

class timeseries {
 public:
  static constexpr sim_time resolution = milliseconds(1);
  static constexpr std::size_t retention = 512;  // rows kept

  timeseries(sim::simulator& sim, metrics_registry& reg);
  ~timeseries();

  timeseries(const timeseries&) = delete;
  timeseries& operator=(const timeseries&) = delete;

  // Track a counter / gauge / callback gauge by registry name. Tracking an
  // already-tracked name is a no-op.
  void track(std::string_view name);
  // Track `percentile(p)` of a histogram; the series is named
  // "<hist>_p<p>". Returns that series name.
  std::string track_percentile(std::string_view hist, double p);

  // Runs after every snapshot row is taken (the SLO engine hooks in here).
  void add_tick_handler(std::function<void(sim_time)> h);

  // Sampling is off until start(): its self-rescheduling timer keeps the
  // event queue non-empty, so sim::simulator::run() would never return
  // (run_until() callers are fine).
  void start();
  void stop();

  // Takes one snapshot row at now() outside the timer cadence (benches call
  // this right before export so the last row equals the final registry
  // state). A row already taken at the same timestamp is overwritten, not
  // duplicated.
  void snap_now();

  [[nodiscard]] std::size_t samples() const { return count_; }

  // Most recent sampled value (NaN if no samples / unknown series).
  [[nodiscard]] double latest(std::string_view name) const;
  // newest - oldest within [now - window, now]; NaN rows are skipped.
  [[nodiscard]] double delta(std::string_view name, sim_time window) const;
  // delta / actual covered time.
  [[nodiscard]] double rate_per_sec(std::string_view name,
                                    sim_time window) const;
  // Fraction of rows in the window where the value violates `threshold`
  // (above it when `above`, below otherwise). Rows with NaN are excluded
  // from both numerator and denominator; 0.0 when no rows qualify.
  [[nodiscard]] double violation_fraction(std::string_view name,
                                          sim_time window, double threshold,
                                          bool above) const;

  // {"resolution_ns":..,"retention":..,"samples":..,
  //  "timestamps_ns":[...],"series":{"name":[v|null,...]}} — rows oldest
  // to newest, all series aligned to timestamps_ns.
  [[nodiscard]] std::string to_json() const;

 private:
  struct source {
    std::string metric;   // registry name
    double pct = -1.0;    // >= 0: histogram percentile
  };
  struct series {
    source src;
    std::vector<double> ring;  // size retention, NaN-initialized
  };

  void tick();
  void take_row();
  [[nodiscard]] double sample(const source& s) const;
  // Physical slot of logical row i (0 = oldest of `count_`).
  [[nodiscard]] std::size_t slot(std::size_t i) const;
  [[nodiscard]] const series* find(std::string_view name) const;

  sim::simulator& sim_;
  metrics_registry& reg_;
  std::map<std::string, series, std::less<>> series_;
  std::vector<sim_time> times_;  // size retention
  std::size_t next_ = 0;         // next physical slot to write
  std::size_t count_ = 0;        // rows filled, <= retention
  bool running_ = false;
  sim::timer timer_;
  std::vector<std::function<void(sim_time)>> tick_handlers_;

  static constexpr double nan_ = std::numeric_limits<double>::quiet_NaN();
};

}  // namespace nk::obs
