// Accounting and pricing (paper §5, "Pricing model and accounting CPU and
// RAM"): NSaaS lets the provider meter exactly what networking costs — NSM
// instances, dedicated cores, CPU time actually burned, memory footprint,
// bytes moved — and charge under several candidate models.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/nsm.hpp"

namespace nk::core {

class core_engine;

enum class pricing_model {
  per_instance,  // flat rate per NSM-hour
  per_core,      // per dedicated-core-hour
  usage_based,   // per CPU-second actually consumed + per GB moved
  sla_based,     // priced by the guaranteed rate
};

[[nodiscard]] constexpr std::string_view to_string(pricing_model m) {
  switch (m) {
    case pricing_model::per_instance: return "per_instance";
    case pricing_model::per_core: return "per_core";
    case pricing_model::usage_based: return "usage_based";
    case pricing_model::sla_based: return "sla_based";
  }
  return "unknown";
}

struct price_sheet {
  double per_instance_hour = 0.05;   // $ per NSM instance-hour
  double per_core_hour = 0.04;       // $ per dedicated-core-hour
  double per_cpu_second = 0.00002;   // $ per busy CPU-second (usage model)
  double per_gb_moved = 0.01;        // $ per GB through the NSM
  double per_gbps_guaranteed = 0.12; // $ per guaranteed-Gbps-hour (SLA model)
};

struct nsm_usage {
  sim_time wall_time{};      // how long the NSM has existed
  sim_time cpu_busy{};       // summed busy time across its cores
  int core_count = 0;
  std::uint64_t memory_bytes = 0;
  std::uint64_t bytes_moved = 0;  // app payload to + from its stack
  double guaranteed_gbps = 0.0;
};

// Snapshot of the consumption of `module`, served by `engine`, at simulated
// time `now`. Bytes moved come from the module's ServiceLib counters.
[[nodiscard]] nsm_usage measure(core_engine& engine, nsm& module, sim_time now,
                                double guaranteed_gbps = 0.0);

// Charge for `usage` under `model`.
[[nodiscard]] double charge(pricing_model model, const nsm_usage& usage,
                            const price_sheet& sheet = {});

// Human-readable invoice line.
[[nodiscard]] std::string invoice_line(pricing_model model,
                                       const nsm_usage& usage,
                                       const price_sheet& sheet = {});

}  // namespace nk::core
