// Shared vocabulary of the benchmark driver: run parameters, correctness
// log, named metrics, and the wall-clock / memory probes.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace nkb {

class span_recorder;

struct run_params {
  std::uint64_t seed = 1;
  double seconds = 10.0;  // wall seconds one pass should measure for
  // Self-test hook: the rpc_fanin echo server corrupts one payload byte,
  // which the client-side check must catch.
  bool corrupt_echo = false;
};

// Correctness failures found by a run; any entry fails it. Warnings are
// reported beside them but do not fail the run.
class check_log {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  void warn_unless(bool ok, const std::string& what) {
    if (!ok) warnings_.push_back(what);
  }
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] const std::vector<std::string>& warnings() const {
    return warnings_;
  }

 private:
  std::vector<std::string> failures_;
  std::vector<std::string> warnings_;
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // how it was measured: samples, percentile, clock
};

// Ordered metric list; names are unique.
class metric_set {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           const std::string& note = {});
  [[nodiscard]] const std::vector<metric>& all() const { return items_; }
  [[nodiscard]] const metric* find(const std::string& name) const;

 private:
  std::vector<metric> items_;
};

// One timed add_netkernel_vm / attach_netkernel_vm call.
struct vm_setup_sample {
  double wall_ms = 0.0;
  double rss_delta_mb = 0.0;
};

[[nodiscard]] inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time the calling thread has used. Unlike wall time it leaves out the
// time the thread sat descheduled while other work held the core.
[[nodiscard]] inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// Resident set size now, and the process peak, in MB.
[[nodiscard]] double current_rss_mb();
[[nodiscard]] double peak_rss_mb();

// Shortest decimal text that reads back as exactly `v` (JSON number).
[[nodiscard]] std::string json_number(double v);

}  // namespace nkb
