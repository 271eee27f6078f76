// Direct probe of the real shm::spsc_ring + shm::hugepage_pool code with no
// simulator — the paper's §4.2 / Table 1 instrument. The simulated
// workloads run this code too, but its wall cost cannot be timed from
// outside the simulator; the traced run calls this probe for the shm.*
// layer metrics: push_batch + pop_batch per nqe, the CoreEngine's
// single-nqe forward (pop from the VM ring, push to the NSM ring, the
// paper's ~12 ns per nqe copy), pool alloc + free, and payload copy per KB.
#pragma once

#include <cstdint>

#include "common.hpp"

namespace nkb {

struct shm_probe_result {
  check_log checks;
  metric_set layers;  // shm.*
};

// Runs for a fraction of a second; `seed` fills the copied payload.
[[nodiscard]] shm_probe_result probe_shm(std::uint64_t seed);

}  // namespace nkb
