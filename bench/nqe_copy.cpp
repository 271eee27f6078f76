// In-text microbenchmark (§4.2): "A nqe is copied between VM and NSM via
// CoreEngine. The cost of this is ~12ns per event."
//
// Measures CoreEngine's per-event work on this repository's real rings: pop
// one 64-byte nqe from the VM-side job ring and push it onto the NSM-side
// job ring (single threaded — the copy cost, not synchronization).
// A two-thread variant measures the full cross-core handoff.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "shm/nqe.hpp"
#include "shm/spsc_ring.hpp"

namespace {

using nk::shm::nqe;
using nk::shm::spsc_ring;

// CoreEngine's forwarding primitive: one pop + one push.
void nqe_copy_between_rings(benchmark::State& state) {
  spsc_ring<nqe> vm_ring{4096};
  spsc_ring<nqe> nsm_ring{4096};
  nqe e;
  e.op = nk::shm::nqe_op::req_send;
  e.handle = 7;

  for (auto _ : state) {
    (void)vm_ring.try_push(e);
    nqe moved;
    (void)vm_ring.try_pop(moved);
    (void)nsm_ring.try_push(moved);
    nqe sink;
    (void)nsm_ring.try_pop(sink);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Batched variant: CoreEngine drains a burst of nqes from the VM ring and
// forwards them to the NSM ring in one go — the steady-state shape of
// drain_vm_jobs(). Per-event cost amortizes the ring index updates.
void nqe_copy_batched(benchmark::State& state) {
  spsc_ring<nqe> vm_ring{4096};
  spsc_ring<nqe> nsm_ring{4096};
  constexpr std::size_t batch = 64;
  std::vector<nqe> buf(batch);
  nqe e;
  e.op = nk::shm::nqe_op::req_send;
  std::vector<nqe> seed(batch, e);

  for (auto _ : state) {
    (void)vm_ring.push_batch(std::span{seed});
    const std::size_t n = vm_ring.pop_batch(std::span{buf});
    (void)nsm_ring.push_batch(std::span{buf}.first(n));
    const std::size_t m = nsm_ring.pop_batch(std::span{buf});
    benchmark::DoNotOptimize(buf.data());
    (void)m;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}

// Self-timed variants of the two google-benchmark bodies above: the BENCH
// summary carries steady_clock ns per event over the whole loop.
double elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

double measure_single_ns(std::size_t iters) {
  spsc_ring<nqe> vm_ring{4096};
  spsc_ring<nqe> nsm_ring{4096};
  nqe e;
  e.op = nk::shm::nqe_op::req_send;
  e.handle = 7;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    (void)vm_ring.try_push(e);
    nqe moved;
    (void)vm_ring.try_pop(moved);
    (void)nsm_ring.try_push(moved);
    nqe sink;
    (void)nsm_ring.try_pop(sink);
    benchmark::DoNotOptimize(sink);
  }
  return elapsed_ns(start) / static_cast<double>(iters);
}

double measure_batched_ns(std::size_t iters) {
  spsc_ring<nqe> vm_ring{4096};
  spsc_ring<nqe> nsm_ring{4096};
  constexpr std::size_t batch = 64;
  std::vector<nqe> buf(batch);
  nqe e;
  e.op = nk::shm::nqe_op::req_send;
  std::vector<nqe> seed(batch, e);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    (void)vm_ring.push_batch(std::span{seed});
    const std::size_t n = vm_ring.pop_batch(std::span{buf});
    (void)nsm_ring.push_batch(std::span{buf}.first(n));
    const std::size_t m = nsm_ring.pop_batch(std::span{buf});
    benchmark::DoNotOptimize(buf.data());
    (void)m;
  }
  return elapsed_ns(start) / static_cast<double>(iters * batch);
}

}  // namespace

BENCHMARK(nqe_copy_between_rings);
BENCHMARK(nqe_copy_batched);

int main(int argc, char** argv) {
  std::printf(
      "nqe copy microbenchmark (paper §4.2: ~12 ns per event through "
      "CoreEngine)\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  constexpr std::size_t iters = 20'000'000;
  (void)measure_single_ns(iters / 10);  // warm-up
  const double single_ns = measure_single_ns(iters);
  (void)measure_batched_ns(iters / 640);
  const double batched_ns = measure_batched_ns(iters / 64);
  std::printf("\nself-timed: single %.2f ns/event, batched %.2f ns/event\n",
              single_ns, batched_ns);

  // Repo-root benchmark summary schema: metric name -> {value, units}.
  std::ostringstream bench;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", single_ns);
  bench << "{\"nqe_copy_single_ns_per_event\":{\"value\":" << buf
        << ",\"units\":\"ns/op\"}";
  std::snprintf(buf, sizeof(buf), "%.2f", batched_ns);
  bench << ",\"nqe_copy_batched_ns_per_event\":{\"value\":" << buf
        << ",\"units\":\"ns/op\"}}";
  std::ofstream summary{"BENCH_nqe_copy.json"};
  summary << bench.str();
  std::printf("benchmark summary: BENCH_nqe_copy.json\n");
  return 0;
}
