#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace nkb {

void metric_set::set(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  for (auto& m : items_) {
    if (m.name == name) {
      m = metric{name, value, unit, note};
      return;
    }
  }
  items_.push_back(metric{name, value, unit, note});
}

const metric* metric_set::find(const std::string& name) const {
  for (const auto& m : items_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double current_rss_mb() {
  std::ifstream statm{"/proc/self/statm"};
  long long size = 0;
  long long resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace nkb
