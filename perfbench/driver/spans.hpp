// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around each call it
// makes into a layer (testbed and VM set-up, each simulator run_until
// slice, every apps::socket_api call); nothing
// inside src/ is instrumented. Each span has a name, start, end, parent and
// request id. Per-name aggregates (count, total, self time, a duration
// histogram, would_block results) are kept for every span; the first
// `max_retained` spans are also kept whole and written out as a Chrome
// trace_event file when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.hpp"
#include "obs/metrics.hpp"

namespace nkb {

enum class span_name : std::uint8_t {
  setup,         // one whole scenario construction (testbed .. connected)
  testbed,       // apps::testbed constructor
  add_vm,        // testbed::add_netkernel_vm (VM + new NSM)
  attach_vm,     // testbed::attach_netkernel_vm (VM onto an existing NSM)
  connect_wait,  // simulator run until every connection is established
  run_until,     // one measured simulator slice; arg = events processed
  api_open,
  api_bind,
  api_listen,
  api_connect,
  api_accept,
  api_send,
  api_recv,
  api_close,
  count_,
};
inline constexpr std::size_t span_name_count =
    static_cast<std::size_t>(span_name::count_);

[[nodiscard]] const char* to_string(span_name n);
[[nodiscard]] constexpr bool is_api(span_name n) {
  return n >= span_name::api_open && n <= span_name::api_close;
}

struct span_stats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  // total minus the time direct children cover
  std::uint64_t would_block = 0;
  nk::obs::histogram duration_ns;
};

class span_recorder {
 public:
  static constexpr std::uint32_t none = 0xffffffffu;

  explicit span_recorder(std::size_t max_retained = 200'000);

  span_recorder(const span_recorder&) = delete;
  span_recorder& operator=(const span_recorder&) = delete;

  void begin(span_name n, std::uint64_t req = 0);
  // Closes the innermost open span. `arg` is attached to it (the events
  // delta of a run_until slice).
  void end(bool would_block = false, std::uint64_t arg = 0);

  // Per-name aggregates restart here (the measured window opens).
  void reset_stats();
  [[nodiscard]] const span_stats& stats(span_name n) const {
    return stats_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::size_t retained() const { return spans_.size(); }

  // Chrome trace_event JSON of the retained spans; false on an I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct span {
    span_name name{};
    std::uint32_t parent = none;
    std::uint64_t req = 0;
    std::uint64_t arg = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct frame {
    span_name name{};
    std::uint64_t req = 0;
    std::int64_t start_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint32_t index = none;  // retained span slot, or none
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::size_t max_retained_;
  std::vector<span> spans_;
  std::vector<frame> open_;
  std::array<span_stats, span_name_count> stats_{};
  std::uint64_t recorded_ = 0;
};

// Runs `call` (a call into a layer) inside a span when `rec` is non-null;
// a result whose error is would_block is counted as such.
template <typename F>
decltype(auto) traced(span_recorder* rec, span_name n, std::uint64_t req,
                      F&& call) {
  if (rec == nullptr) return call();
  rec->begin(n, req);
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    rec->end();
  } else {
    auto r = call();
    bool would_block = false;
    if constexpr (requires { r.error(); }) {
      would_block = r.error() == nk::errc::would_block;
    }
    rec->end(would_block);
    return r;
  }
}

// RAII span for control-plane regions; inert when `rec` is null.
class scoped_span {
 public:
  scoped_span(span_recorder* rec, span_name n, std::uint64_t req = 0)
      : rec_{rec} {
    if (rec_ != nullptr) rec_->begin(n, req);
  }
  ~scoped_span() {
    if (rec_ != nullptr) rec_->end();
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  span_recorder* rec_;
};

}  // namespace nkb
