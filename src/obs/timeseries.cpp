#include "obs/timeseries.hpp"

#include <cmath>
#include <sstream>

namespace nk::obs {

timeseries::timeseries(sim::simulator& sim, metrics_registry& reg)
    : sim_{sim}, reg_{reg} {
  times_.assign(retention, sim_time::zero());
}

timeseries::~timeseries() { stop(); }

void timeseries::track(std::string_view name) {
  if (series_.find(name) != series_.end()) return;
  series s;
  s.src.metric = std::string{name};
  s.ring.assign(retention, nan_);
  series_.emplace(std::string{name}, std::move(s));
}

std::string timeseries::track_percentile(std::string_view hist, double p) {
  std::ostringstream name;
  name << hist << "_p" << p;
  if (series_.find(name.str()) == series_.end()) {
    series s;
    s.src.metric = std::string{hist};
    s.src.pct = p;
    s.ring.assign(retention, nan_);
    series_.emplace(name.str(), std::move(s));
  }
  return name.str();
}

void timeseries::add_tick_handler(std::function<void(sim_time)> h) {
  tick_handlers_.push_back(std::move(h));
}

void timeseries::start() {
  if (running_) return;
  running_ = true;
  timer_ = sim_.schedule(resolution, [this] { tick(); });
}

void timeseries::stop() {
  running_ = false;
  timer_.cancel();
}

void timeseries::tick() {
  if (!running_) return;
  take_row();
  const sim_time now = sim_.now();
  for (const auto& h : tick_handlers_) h(now);
  timer_ = sim_.schedule(resolution, [this] { tick(); });
}

void timeseries::snap_now() { take_row(); }

void timeseries::take_row() {
  const sim_time now = sim_.now();
  std::size_t at = next_;
  bool overwrite = false;
  if (count_ > 0) {
    const std::size_t last = slot(count_ - 1);
    if (times_[last] == now) {
      at = last;
      overwrite = true;
    }
  }
  times_[at] = now;
  for (auto& [name, s] : series_) {
    s.ring[at] = sample(s.src);
  }
  if (!overwrite) {
    next_ = (next_ + 1) % retention;
    if (count_ < retention) ++count_;
  }
}

double timeseries::sample(const source& s) const {
  if (s.pct >= 0.0) {
    const histogram* h = reg_.find_histogram(s.metric);
    if (h == nullptr || h->count() == 0) return nan_;
    return h->percentile(s.pct);
  }
  const std::optional<double> v = reg_.value_of(s.metric);
  return v.has_value() ? *v : nan_;
}

std::size_t timeseries::slot(std::size_t i) const {
  // next_ is one past the newest row; oldest = next_ - count_.
  return (next_ + retention - count_ + i) % retention;
}

const timeseries::series* timeseries::find(std::string_view name) const {
  const auto it = series_.find(name);
  return it != series_.end() ? &it->second : nullptr;
}

double timeseries::latest(std::string_view name) const {
  const series* s = find(name);
  if (s == nullptr || count_ == 0) return nan_;
  return s->ring[slot(count_ - 1)];
}

double timeseries::delta(std::string_view name, sim_time window) const {
  const series* s = find(name);
  if (s == nullptr || count_ == 0) return nan_;
  const sim_time cutoff = sim_.now() - window;
  bool have = false;
  double oldest = 0.0;
  double newest = 0.0;
  for (std::size_t i = 0; i < count_; ++i) {
    const std::size_t at = slot(i);
    if (times_[at] < cutoff) continue;
    const double v = s->ring[at];
    if (std::isnan(v)) continue;
    if (!have) {
      oldest = v;
      have = true;
    }
    newest = v;
  }
  if (!have) return nan_;
  return newest - oldest;
}

double timeseries::rate_per_sec(std::string_view name, sim_time window) const {
  const series* s = find(name);
  if (s == nullptr || count_ == 0) return nan_;
  const sim_time cutoff = sim_.now() - window;
  bool have = false;
  sim_time t0{};
  sim_time t1{};
  double v0 = 0.0;
  double v1 = 0.0;
  for (std::size_t i = 0; i < count_; ++i) {
    const std::size_t at = slot(i);
    if (times_[at] < cutoff) continue;
    const double v = s->ring[at];
    if (std::isnan(v)) continue;
    if (!have) {
      t0 = times_[at];
      v0 = v;
      have = true;
    }
    t1 = times_[at];
    v1 = v;
  }
  if (!have || t1 <= t0) return nan_;
  return (v1 - v0) / to_seconds(t1 - t0);
}

double timeseries::violation_fraction(std::string_view name, sim_time window,
                                      double threshold, bool above) const {
  const series* s = find(name);
  if (s == nullptr || count_ == 0) return 0.0;
  const sim_time cutoff = sim_.now() - window;
  std::size_t considered = 0;
  std::size_t violating = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const std::size_t at = slot(i);
    if (times_[at] < cutoff) continue;
    const double v = s->ring[at];
    if (std::isnan(v)) continue;
    ++considered;
    if (above ? v > threshold : v < threshold) ++violating;
  }
  if (considered == 0) return 0.0;
  return static_cast<double>(violating) / static_cast<double>(considered);
}

std::string timeseries::to_json() const {
  std::ostringstream os;
  os << "{\"resolution_ns\":" << resolution.count()
     << ",\"retention\":" << retention << ",\"samples\":" << count_
     << ",\"timestamps_ns\":[";
  for (std::size_t i = 0; i < count_; ++i) {
    if (i != 0) os << ',';
    os << times_[slot(i)].count();
  }
  os << "],\"series\":{";
  bool first = true;
  for (const auto& [name, s] : series_) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":[";
    for (std::size_t i = 0; i < count_; ++i) {
      if (i != 0) os << ',';
      const double v = s.ring[slot(i)];
      if (std::isnan(v)) {
        os << "null";
      } else {
        os << v;
      }
    }
    os << ']';
  }
  os << "}}";
  return os.str();
}

}  // namespace nk::obs
