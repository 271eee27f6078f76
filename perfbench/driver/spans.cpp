#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace nkb {

const char* to_string(span_name n) {
  switch (n) {
    case span_name::setup: return "setup";
    case span_name::testbed: return "testbed";
    case span_name::add_vm: return "add_netkernel_vm";
    case span_name::attach_vm: return "attach_netkernel_vm";
    case span_name::connect_wait: return "connect_wait";
    case span_name::run_until: return "run_until";
    case span_name::api_open: return "socket_api.open";
    case span_name::api_bind: return "socket_api.bind";
    case span_name::api_listen: return "socket_api.listen";
    case span_name::api_connect: return "socket_api.connect";
    case span_name::api_accept: return "socket_api.accept";
    case span_name::api_send: return "socket_api.send";
    case span_name::api_recv: return "socket_api.recv";
    case span_name::api_close: return "socket_api.close";
    case span_name::count_: break;
  }
  return "unknown";
}

span_recorder::span_recorder(std::size_t max_retained)
    : origin_{std::chrono::steady_clock::now()}, max_retained_{max_retained} {
  spans_.reserve(max_retained_ < 4096 ? max_retained_ : 4096);
  open_.reserve(16);
}

void span_recorder::begin(span_name n, std::uint64_t req) {
  frame f;
  f.name = n;
  f.req = req;
  if (spans_.size() < max_retained_) {
    f.index = static_cast<std::uint32_t>(spans_.size());
    span s;
    s.name = n;
    s.req = req;
    s.parent = open_.empty() ? none : open_.back().index;
    spans_.push_back(s);
  }
  ++recorded_;
  f.start_ns = now_ns();  // last, so set-up work is not inside the span
  open_.push_back(f);
}

void span_recorder::end(bool would_block, std::uint64_t arg) {
  const std::int64_t end = now_ns();
  if (open_.empty()) return;
  const frame f = open_.back();
  open_.pop_back();
  const auto dur = static_cast<std::uint64_t>(end - f.start_ns);
  span_stats& st = stats_[static_cast<std::size_t>(f.name)];
  ++st.count;
  st.total_ns += dur;
  st.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  if (would_block) ++st.would_block;
  st.duration_ns.record(dur);
  if (!open_.empty()) open_.back().child_ns += dur;
  if (f.index != none) {
    span& s = spans_[f.index];
    s.start_ns = f.start_ns;
    s.end_ns = end;
    s.arg = arg;
  }
}

void span_recorder::reset_stats() {
  for (auto& st : stats_) st = span_stats{};
}

bool span_recorder::write_chrome_json(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    if (i > 0) out << ',';
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << "{\"name\":\"" << to_string(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << buf
        << ",\"args\":{\"id\":" << i << ",\"parent\":"
        << (s.parent == none ? -1 : static_cast<long long>(s.parent))
        << ",\"req\":" << s.req << ",\"arg\":" << s.arg << "}}";
  }
  out << "],\"recorded\":" << recorded_ << ",\"retained\":" << spans_.size()
      << "}\n";
  return static_cast<bool>(out);
}

}  // namespace nkb
