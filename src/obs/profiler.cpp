#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "obs/dump.hpp"
#include "obs/metrics.hpp"

namespace nk::obs {

namespace {
profiler*& current_slot() {
  static profiler* current = nullptr;
  return current;
}

void append_double(std::ostringstream& os, double v) {
  // JSON has no NaN/Inf.
  if (v != v) {
    os << "null";
    return;
  }
  os << v;
}
}  // namespace

profiler* profiler::current() { return current_slot(); }

profiler::profiler(sim::simulator* sim)
    : sim_{sim}, prev_current_{current_slot()} {
  current_slot() = this;
  if (sim_ != nullptr) {
    prev_listener_ = sim::set_cpu_charge_listener(this);
    sim_start_ = sim_->now();
  } else {
    wall_start_ns_ = wall_now_ns();
  }
  path_.reserve(256);
  frames_.reserve(max_depth);
}

profiler::~profiler() {
  if (dump_enabled()) {
    const std::string tag = dump_tag("profile");
    dump_write(tag + ".folded", collapsed());
    dump_write(tag + ".json", to_json());
  }
  if (sim_ != nullptr) sim::set_cpu_charge_listener(prev_listener_);
  current_slot() = prev_current_;
}

std::uint64_t profiler::wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void profiler::enter(const char* component, const char* op) {
  frame f;
  f.parent_len = path_.size();
  if (wall_mode()) f.enter_wall_ns = wall_now_ns();
  if (frames_.size() < max_depth) {
    path_.push_back(';');
    path_.append(component);
    path_.push_back(':');
    path_.append(op);
    ++path_version_;
  } else {
    ++depth_overflow_;
  }
  frames_.push_back(f);
}

void profiler::leave() {
  if (frames_.empty()) return;
  const frame f = frames_.back();
  if (wall_mode()) {
    const std::uint64_t now = wall_now_ns();
    const std::uint64_t elapsed =
        now > f.enter_wall_ns ? now - f.enter_wall_ns : 0;
    const std::uint64_t self =
        elapsed > f.child_wall_ns ? elapsed - f.child_wall_ns : 0;
    charge_wall(self);
    if (frames_.size() >= 2) {
      frames_[frames_.size() - 2].child_wall_ns += elapsed;
    }
  }
  frames_.pop_back();
  if (path_.size() != f.parent_len) {
    path_.resize(f.parent_len);
    ++path_version_;
  }
}

profiler::node* profiler::resolve(std::string_view core_name,
                                  const sim::cpu_core* core) {
  charge_cache* entry = nullptr;
  for (charge_cache& c : cache_) {
    if (c.core == core) {
      entry = &c;
      break;
    }
  }
  if (entry == nullptr) {
    cache_.push_back(charge_cache{core, 0, nullptr});
    entry = &cache_.back();
  }
  if (entry->version == path_version_ && entry->leaf != nullptr) {
    return entry->leaf;
  }
  key_scratch_.assign(core_name);
  if (path_.empty()) {
    key_scratch_.append(";(unattributed)");
  } else {
    key_scratch_.append(path_);
  }
  auto it = nodes_.find(key_scratch_);
  if (it == nodes_.end()) {
    if (nodes_.size() >= max_nodes) {
      it = nodes_.try_emplace("(overflow)").first;
    } else {
      it = nodes_.try_emplace(key_scratch_).first;
    }
  }
  // std::map nodes are pointer-stable, so the cached leaf survives later
  // insertions; only a path change (version bump) invalidates the entry.
  entry->version = path_version_;
  entry->leaf = &it->second;
  return &it->second;
}

profiler::core_stat& profiler::stat_for(const sim::cpu_core& core) {
  for (core_stat& s : core_stats_) {
    if (s.core == &core) return s;
  }
  core_stats_.push_back(core_stat{});
  core_stat& s = core_stats_.back();
  s.core = &core;
  s.name = core.name();
  return s;
}

void profiler::on_charge(const sim::cpu_core& core, sim_time cost) {
  const auto ns = static_cast<std::uint64_t>(cost.count());
  core_stat& cs = stat_for(core);
  cs.charged_ns += ns;
  charged_ns_ += ns;
  if (!path_.empty()) {
    cs.attributed_ns += ns;
    attributed_ns_ += ns;
  }
  // The core is alive right now (it is charging); record its queueing
  // depth here so exporters never need to dereference a possibly-dead
  // core pointer later (NSM failover destroys cores mid-run).
  cs.last_backlog_ns =
      static_cast<std::uint64_t>((core.backlog() + cost).count());
  node* leaf = resolve(core.name(), &core);
  leaf->ns += ns;
  ++leaf->count;
  if (prev_listener_ != nullptr) prev_listener_->on_charge(core, cost);
}

void profiler::charge_wall(std::uint64_t self_ns) {
  charged_ns_ += self_ns;
  attributed_ns_ += self_ns;
  node* leaf = resolve("wall", nullptr);
  leaf->ns += self_ns;
  ++leaf->count;
}

double profiler::attribution_ratio() const {
  if (charged_ns_ == 0) return 1.0;
  return static_cast<double>(attributed_ns_) /
         static_cast<double>(charged_ns_);
}

std::vector<profiler::node_view> profiler::top(std::size_t n) const {
  std::vector<node_view> out;
  out.reserve(nodes_.size());
  for (const auto& [key, nd] : nodes_) {
    out.push_back(node_view{key, nd.ns, nd.count});
  }
  std::sort(out.begin(), out.end(), [](const node_view& a, const node_view& b) {
    if (a.ns != b.ns) return a.ns > b.ns;
    return a.stack < b.stack;
  });
  if (out.size() > n) out.resize(n);
  return out;
}

std::vector<profiler::core_view> profiler::cores() const {
  const std::uint64_t window =
      sim_ != nullptr
          ? static_cast<std::uint64_t>((sim_->now() - sim_start_).count())
          : wall_now_ns() - wall_start_ns_;
  std::vector<core_view> out;
  out.reserve(core_stats_.size());
  for (const core_stat& s : core_stats_) {
    core_view v;
    v.core = s.name;
    v.busy_ns = s.charged_ns;
    v.attributed_ns = s.attributed_ns;
    v.idle_ns = window > s.charged_ns ? window - s.charged_ns : 0;
    v.backlog_ns = s.last_backlog_ns;
    v.utilization = window > 0 ? std::min(1.0, static_cast<double>(s.charged_ns) /
                                                   static_cast<double>(window))
                               : 0.0;
    out.push_back(std::move(v));
  }
  std::sort(out.begin(), out.end(),
            [](const core_view& a, const core_view& b) { return a.core < b.core; });
  return out;
}

std::string profiler::collapsed() const {
  std::ostringstream os;
  for (const auto& [key, nd] : nodes_) {
    os << key << ' ' << nd.ns << '\n';
  }
  return os.str();
}

std::string profiler::top_json(std::size_t n) const {
  std::ostringstream os;
  os << "{\"mode\":\"" << (wall_mode() ? "wall" : "sim") << "\",";
  os << "\"charged_ns\":" << charged_ns_
     << ",\"attributed_ns\":" << attributed_ns_ << ",\"attribution\":";
  append_double(os, attribution_ratio());
  os << ",\"top\":[";
  bool first = true;
  for (const node_view& v : top(n)) {
    if (!first) os << ',';
    first = false;
    os << "{\"stack\":\"" << json_escape(v.stack) << "\",\"ns\":" << v.ns
       << ",\"count\":" << v.count << ",\"share\":";
    append_double(os, charged_ns_ > 0 ? static_cast<double>(v.ns) /
                                            static_cast<double>(charged_ns_)
                                      : 0.0);
    os << '}';
  }
  os << "]}";
  return os.str();
}

std::string profiler::to_json(std::size_t top_n) const {
  std::string out = top_json(top_n);
  out.pop_back();  // strip trailing '}'
  std::ostringstream os;
  os << ",\"cores\":[";
  bool first = true;
  for (const core_view& c : cores()) {
    if (!first) os << ',';
    first = false;
    os << "{\"core\":\"" << json_escape(c.core) << "\",\"busy_ns\":" << c.busy_ns
       << ",\"attributed_ns\":" << c.attributed_ns
       << ",\"idle_ns\":" << c.idle_ns << ",\"backlog_ns\":" << c.backlog_ns
       << ",\"utilization\":";
    append_double(os, c.utilization);
    os << '}';
  }
  os << "]}";
  return out + os.str();
}

}  // namespace nk::obs
