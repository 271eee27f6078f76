#include "core/accounting.hpp"

#include <sstream>

#include "core/core_engine.hpp"

namespace nk::core {

nsm_usage measure(core_engine& engine, nsm& module, sim_time now,
                  double guaranteed_gbps) {
  nsm_usage usage;
  usage.wall_time = now;  // NSMs are created at t=0 in our experiments
  usage.core_count = static_cast<int>(module.cores().size());
  for (auto* core : module.cores()) usage.cpu_busy += core->busy_time();
  usage.memory_bytes = module.profile().memory_bytes;
  if (const service_lib* service = engine.service_of(module.id())) {
    usage.bytes_moved =
        service->stats().bytes_to_stack + service->stats().bytes_from_stack;
  }
  usage.guaranteed_gbps = guaranteed_gbps;
  return usage;
}

double charge(pricing_model model, const nsm_usage& usage,
              const price_sheet& sheet) {
  const double hours = to_seconds(usage.wall_time) / 3600.0;
  switch (model) {
    case pricing_model::per_instance:
      return sheet.per_instance_hour * hours;
    case pricing_model::per_core:
      return sheet.per_core_hour * usage.core_count * hours;
    case pricing_model::usage_based:
      return sheet.per_cpu_second * to_seconds(usage.cpu_busy) +
             sheet.per_gb_moved *
                 (static_cast<double>(usage.bytes_moved) / 1e9);
    case pricing_model::sla_based:
      return sheet.per_gbps_guaranteed * usage.guaranteed_gbps * hours;
  }
  return 0.0;
}

std::string invoice_line(pricing_model model, const nsm_usage& usage,
                         const price_sheet& sheet) {
  std::ostringstream os;
  os.precision(6);
  os << to_string(model) << ": $" << std::fixed << charge(model, usage, sheet)
     << " (wall " << to_seconds(usage.wall_time) << "s, cpu "
     << to_seconds(usage.cpu_busy) << "s, cores " << usage.core_count
     << ", mem " << usage.memory_bytes / (1024 * 1024) << " MiB, moved "
     << static_cast<double>(usage.bytes_moved) / 1e6 << " MB)";
  return os.str();
}

}  // namespace nk::core
