#include "common/log.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <utility>

namespace nk {
namespace {

// Read NK_LOG_LEVEL exactly once, the first time anything asks for the
// level. Unset or unparseable values leave logging off.
log_level level_from_env() {
  const char* env = std::getenv("NK_LOG_LEVEL");
  if (env == nullptr) return log_level::off;
  return parse_log_level(env).value_or(log_level::off);
}

log_level& level_ref() {
  static log_level g_level = level_from_env();
  return g_level;
}

log_clock& clock_ref() {
  static log_clock g_clock;
  return g_clock;
}

// --- warn rate limiter -------------------------------------------------------

// Distinct message texts the limiter tracks; texts beyond it go unlimited.
constexpr std::size_t max_tracked = 1024;

struct token_bucket {
  double tokens = 0.0;
  std::int64_t last_refill_ns = 0;
  std::uint64_t suppressed_since_emit = 0;
};

struct rate_limiter_state {
  std::unordered_map<std::string, token_bucket> buckets;
  std::uint64_t emitted = 0;
  std::uint64_t suppressed = 0;
};

rate_limiter_state& limiter_ref() {
  static rate_limiter_state g_limiter;
  return g_limiter;
}

std::int64_t limiter_now_ns() {
  const log_clock& clk = clock_ref();
  if (clk) return clk();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Decides whether a warn line may go out. On a pass, appends a
// "[suppressed N similar]" annotation when lines were swallowed since the
// key last emitted. Declared before emit(); defined after, so it can share
// the file-scope statics.
bool limiter_admit(const std::string& message, std::string& annotation) {
  rate_limiter_state& st = limiter_ref();
  const std::int64_t now = limiter_now_ns();
  auto it = st.buckets.find(message);
  if (it == st.buckets.end()) {
    if (st.buckets.size() >= max_tracked) {
      // Table full: stop limiting new texts rather than evicting hot ones.
      ++st.emitted;
      return true;
    }
    token_bucket b;
    b.tokens = log_warn_burst;
    b.last_refill_ns = now;
    it = st.buckets.emplace(message, b).first;
  }
  token_bucket& b = it->second;
  if (now > b.last_refill_ns) {
    const double refill = static_cast<double>(now - b.last_refill_ns) /
                          static_cast<double>(log_warn_refill_ns);
    b.tokens = std::min(log_warn_burst, b.tokens + refill);
    b.last_refill_ns = now;
  }
  if (b.tokens < 1.0) {
    ++b.suppressed_since_emit;
    ++st.suppressed;
    return false;
  }
  b.tokens -= 1.0;
  ++st.emitted;
  if (b.suppressed_since_emit > 0) {
    annotation =
        " [suppressed " + std::to_string(b.suppressed_since_emit) + " similar]";
    b.suppressed_since_emit = 0;
  }
  return true;
}

const char* level_name(log_level level) {
  switch (level) {
    case log_level::trace: return "TRACE";
    case log_level::debug: return "DEBUG";
    case log_level::info: return "INFO";
    case log_level::warn: return "WARN";
    case log_level::error: return "ERROR";
    case log_level::off: return "OFF";
  }
  return "?";
}

}  // namespace

void set_log_level(log_level level) { level_ref() = level; }
log_level current_log_level() { return level_ref(); }

std::optional<log_level> parse_log_level(std::string_view name) {
  auto matches = [name](std::string_view want) {
    if (name.size() != want.size()) return false;
    for (std::size_t i = 0; i < name.size(); ++i) {
      const char c = name[i];
      const char lower =
          (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
      if (lower != want[i]) return false;
    }
    return true;
  };
  if (matches("trace")) return log_level::trace;
  if (matches("debug")) return log_level::debug;
  if (matches("info")) return log_level::info;
  if (matches("warn")) return log_level::warn;
  if (matches("error")) return log_level::error;
  if (matches("off")) return log_level::off;
  return std::nullopt;
}

void set_log_clock(log_clock now_ns) { clock_ref() = std::move(now_ns); }

std::uint64_t log_emitted_total() { return limiter_ref().emitted; }
std::uint64_t log_suppressed_total() { return limiter_ref().suppressed; }

void reset_log_rate_limiter() {
  rate_limiter_state& st = limiter_ref();
  st.buckets.clear();
  st.emitted = 0;
  st.suppressed = 0;
}

namespace detail {
void emit(log_level level, const std::string& message) {
  // Only warn is rate-limited: errors must never be swallowed, and
  // below-warn levels are opt-in verbosity the user asked for.
  std::string annotation;
  if (level == log_level::warn && !limiter_admit(message, annotation)) return;
  const log_clock& clk = clock_ref();
  if (clk) {
    std::fprintf(stderr, "[%lld ns] [%s] %s%s\n",
                 static_cast<long long>(clk()), level_name(level),
                 message.c_str(), annotation.c_str());
  } else {
    std::fprintf(stderr, "[%s] %s%s\n", level_name(level), message.c_str(),
                 annotation.c_str());
  }
}
}  // namespace detail

}  // namespace nk
