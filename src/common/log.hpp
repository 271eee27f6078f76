// Minimal leveled logger. Off by default so simulations stay quiet; tests
// and examples can raise the level for tracing. Not thread-safe by design:
// each simulation is single-threaded (see sim::simulator).
//
// The minimum level can also be set from outside with the NK_LOG_LEVEL
// environment variable ("trace".."error", "off"); it is read once, on the
// first log-level query, and an explicit set_log_level() call wins over it.
// When a clock hook is installed (sim::simulator installs one for the
// current simulation) every line is prefixed with the simulated time.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace nk {

enum class log_level { trace, debug, info, warn, error, off };

// Global minimum level; messages below it are discarded.
void set_log_level(log_level level);
[[nodiscard]] log_level current_log_level();

// Parses a level name ("trace", "DEBUG", ...), case-insensitive.
// std::nullopt for anything unrecognized.
[[nodiscard]] std::optional<log_level> parse_log_level(std::string_view name);

// Sim-time prefix hook: a callable returning the current time in
// nanoseconds, or nullptr to drop the prefix. Kept as a std::function so
// nk_common needs no dependency on the simulator.
using log_clock = std::function<std::int64_t()>;
void set_log_clock(log_clock now_ns);

// Token-bucket rate limit for repeated identical warnings: a warning line
// that keeps firing with the same text (the per-message token bucket is
// the call-site key — a given warning site produces one text shape)
// drains its bucket and is then suppressed until the bucket refills, so a
// hot failure path cannot flood stderr. The first line emitted after a
// suppression window is annotated with how many lines were swallowed.
// error and below-warn levels are never limited. Refill time comes from
// the log clock when one is installed (simulated time), wall clock
// otherwise.
// A new message text may emit log_warn_burst lines back-to-back, and gets
// one more every log_warn_refill_ns.
inline constexpr double log_warn_burst = 8.0;
inline constexpr std::int64_t log_warn_refill_ns = 1'000'000'000;

// Limiter observability for tests: lifetime counts of warn lines emitted
// and suppressed, and a full reset (buckets + counters).
[[nodiscard]] std::uint64_t log_emitted_total();
[[nodiscard]] std::uint64_t log_suppressed_total();
void reset_log_rate_limiter();

namespace detail {
void emit(log_level level, const std::string& message);
}

template <typename... Args>
void log(log_level level, const Args&... args) {
  if (level < current_log_level()) return;
  std::ostringstream os;
  (os << ... << args);
  detail::emit(level, os.str());
}

template <typename... Args>
void log_trace(const Args&... args) { log(log_level::trace, args...); }
template <typename... Args>
void log_debug(const Args&... args) { log(log_level::debug, args...); }
template <typename... Args>
void log_info(const Args&... args) { log(log_level::info, args...); }
template <typename... Args>
void log_warn(const Args&... args) { log(log_level::warn, args...); }
template <typename... Args>
void log_error(const Args&... args) { log(log_level::error, args...); }

}  // namespace nk
