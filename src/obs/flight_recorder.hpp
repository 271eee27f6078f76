// Failure flight recorder: a bounded per-NSM ring of recent trace and log
// events, kept so that when the health monitor declares a module dead the
// provider can dump "what the NSM saw in the seconds before it died" —
// before the supervisor replaces it and the evidence is gone.
//
// Hot-path appends are mirrored from the nqe tracer (begin / stamp / finish
// / drop); they are fixed-size POD writes into a pre-sized ring — no
// allocation, no locking (each simulation is single-threaded, see
// sim::simulator). With tracing off (trace_config::enabled false) only the
// explicit control-plane note() calls (crash, switchover, alerts) land.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "shm/nqe.hpp"

namespace nk::obs {

enum class flight_event_kind : std::uint8_t {
  trace_begin,   // nqe entered the pipeline (traced)
  trace_stamp,   // nqe crossed a pipeline stage
  trace_finish,  // trace completed normally
  trace_drop,    // traced nqe discarded (unroutable / overflow / stale)
  note,          // free-text control-plane event (crash, switchover, alert)
};

[[nodiscard]] constexpr std::string_view to_string(flight_event_kind k) {
  switch (k) {
    case flight_event_kind::trace_begin: return "trace_begin";
    case flight_event_kind::trace_stamp: return "trace_stamp";
    case flight_event_kind::trace_finish: return "trace_finish";
    case flight_event_kind::trace_drop: return "trace_drop";
    case flight_event_kind::note: return "note";
  }
  return "unknown";
}

// Fixed-size POD so ring appends are a struct copy, never an allocation.
struct flight_event {
  sim_time at{};
  flight_event_kind kind{};
  std::uint8_t stage = 0;  // obs::nqe_stage index; valid for trace_stamp
  bool reverse = false;    // trace direction (NSM -> VM)
  std::uint16_t vm = 0;
  shm::nqe_op op = shm::nqe_op::invalid;
  std::uint64_t trace = 0;        // trace id; 0 for bare notes
  std::array<char, 48> note{};    // NUL-terminated, truncated free text
};

class flight_recorder {
 public:
  flight_recorder() = default;

  flight_recorder(const flight_recorder&) = delete;
  flight_recorder& operator=(const flight_recorder&) = delete;

  // Ring append. The first event for an NSM sizes its ring once; every
  // later append overwrites the oldest slot.
  void append(std::uint16_t nsm, const flight_event& ev);

  // Control-plane annotation (crash, switchover, monitor alert). Text is
  // truncated to the event's fixed note field.
  void note(std::uint16_t nsm, std::uint16_t vm, std::string_view text,
            sim_time at);

  // Events currently held for `nsm`, oldest first.
  [[nodiscard]] std::vector<flight_event> events(std::uint16_t nsm) const;

  // Lifetime event count for `nsm` (> ring size once the ring has wrapped).
  [[nodiscard]] std::uint64_t total(std::uint16_t nsm) const;

  // Events retained per NSM ring.
  [[nodiscard]] static constexpr std::size_t capacity() { return 256; }

  // JSON dump of one NSM's ring: {"nsm":..,"at_ns":..,"events_total":..,
  // "events":[{...}]}. This is what the monitor writes next to the failover
  // metrics when the module dies.
  [[nodiscard]] std::string snapshot_json(std::uint16_t nsm,
                                          sim_time now) const;

 private:
  struct ring {
    std::vector<flight_event> buf;  // capacity slots, pre-sized
    std::size_t next = 0;           // slot the next append overwrites
    std::uint64_t total = 0;        // lifetime appends
  };

  std::unordered_map<std::uint16_t, ring> rings_;
};

}  // namespace nk::obs
