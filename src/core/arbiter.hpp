// Centralized bandwidth arbitration (paper §5): "some new protocols such as
// Fastpass and pHost require coordination among end-hosts and are deemed
// infeasible for public clouds. They can now be implemented as NSMs and
// deployed easily for all tenants."
//
// This is that idea in miniature: because every tenant's transport runs in
// provider-operated NSMs behind one SLA manager, a central arbiter can
// divide the uplink among the currently-active tenants (equal share here;
// the allocation policy is a plug) and re-program their rate caps each
// epoch — end-host coordination with zero tenant involvement, which no
// amount of in-guest stack engineering could achieve.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/core_engine.hpp"

namespace nk::core {

struct arbiter_config {
  data_rate link_capacity = data_rate::gbps(40);
  sim_time epoch = milliseconds(5);
};

class bandwidth_arbiter {
 public:
  bandwidth_arbiter(core_engine& engine, const arbiter_config& cfg = {});

  bandwidth_arbiter(const bandwidth_arbiter&) = delete;
  bandwidth_arbiter& operator=(const bandwidth_arbiter&) = delete;
  ~bandwidth_arbiter() { stop(); }

  void start();
  void stop();

  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  [[nodiscard]] int active_tenants() const { return active_; }

 private:
  void tick();

  core_engine& engine_;
  arbiter_config cfg_;
  sim::timer timer_;
  bool running_ = false;
  std::uint64_t epochs_ = 0;
  int active_ = 0;
  std::unordered_map<virt::vm_id, std::uint64_t> last_bytes_;
};

}  // namespace nk::core
