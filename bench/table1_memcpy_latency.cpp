// Table 1 — "Memory copying latency in NetKernel".
//
// Paper (two Xeon E5-2618LV3, IVSHMEM huge pages, random-address reads):
//   chunk   64B   512B   1KB    2KB    4KB    8KB
//   latency 8ns   64ns   117ns  214ns  425ns  809ns
//
// We measure the same operation on this repository's own hugepage_pool:
// copying a chunk of each size between an application buffer and a
// randomly chosen huge-page chunk. Absolute numbers depend on the host;
// the shape (linear in size beyond the cache-line floor) is the result.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "shm/hugepage_pool.hpp"

namespace {

// Allocates every chunk of the pool and writes each once. Copies then hit
// random addresses across the whole 80 MB region (defeating cache
// residency, as the paper's random-address reads do) on memory the kernel
// has already committed: the pool's region is committed on first touch, so
// an unwritten chunk would time a page fault on the way in and the shared
// zero page on the way out.
std::vector<nk::shm::chunk_ref> prefaulted_chunks(nk::shm::hugepage_pool& pool) {
  std::vector<nk::shm::chunk_ref> chunks;
  while (true) {
    auto c = pool.alloc();
    if (!c.ok()) break;
    auto span = pool.writable(c.value()).value();
    std::memset(span.data(), 0xa5, span.size());
    chunks.push_back(c.value());
  }
  return chunks;
}

void copy_into_pool(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  nk::shm::hugepage_config cfg;
  cfg.chunk_size = 8 * 1024;
  nk::shm::hugepage_pool pool{1, cfg};

  const auto chunks = prefaulted_chunks(pool);
  std::vector<std::byte> src(size, std::byte{0x5a});
  nk::rng rng{42};

  for (auto _ : state) {
    const auto& chunk = chunks[rng.next_below(chunks.size())];
    auto span = pool.writable(chunk);
    std::memcpy(span.value().data(), src.data(), size);
    benchmark::DoNotOptimize(span.value().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}

void copy_from_pool(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  nk::shm::hugepage_config cfg;
  cfg.chunk_size = 8 * 1024;
  nk::shm::hugepage_pool pool{1, cfg};
  const auto chunks = prefaulted_chunks(pool);
  std::vector<std::byte> dst(size);
  nk::rng rng{43};

  for (auto _ : state) {
    const auto& chunk = chunks[rng.next_below(chunks.size())];
    auto span = pool.readable(
        nk::shm::data_descriptor{chunk, 0, static_cast<std::uint32_t>(size)});
    std::memcpy(dst.data(), span.value().data(), size);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}

// Independent of google-benchmark's aggregation: time individual copies
// with steady_clock and feed the full latency distribution into obs
// histograms, then snapshot the registry to table1_metrics.json. Table 1
// reports means; the histogram shows the tail the mean hides.
void snapshot_distributions() {
  nk::obs::metrics_registry reg;
  nk::shm::hugepage_config cfg;
  cfg.chunk_size = 8 * 1024;
  nk::shm::hugepage_pool pool{1, cfg};
  const auto chunks = prefaulted_chunks(pool);
  nk::rng rng{44};

  constexpr int iterations = 20000;
  std::ostringstream bench;
  bench << '{';
  bool first_metric = true;
  for (const std::size_t size : {64, 512, 1024, 2048, 4096, 8192}) {
    std::vector<std::byte> src(size, std::byte{0x5a});
    auto& h = reg.get_histogram("memcpy_into_pool_" + std::to_string(size) +
                                "B_ns");
    for (int i = 0; i < iterations; ++i) {
      const auto& chunk = chunks[rng.next_below(chunks.size())];
      auto span = pool.writable(chunk);
      const auto t0 = std::chrono::steady_clock::now();
      std::memcpy(span.value().data(), src.data(), size);
      benchmark::DoNotOptimize(span.value().data());
      benchmark::ClobberMemory();
      const auto t1 = std::chrono::steady_clock::now();
      h.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
    std::printf("  %5zu B: p50=%.0f ns  p99=%.0f ns  (n=%d)\n", size,
                h.p50(), h.p99(), iterations);
    for (const auto& [suffix, v] :
         {std::pair<const char*, double>{"p50", h.p50()},
          std::pair<const char*, double>{"p99", h.p99()}}) {
      if (!first_metric) bench << ',';
      first_metric = false;
      bench << "\"table1_memcpy_" << size << "B_" << suffix
            << "_ns\":{\"value\":" << static_cast<std::uint64_t>(v)
            << ",\"units\":\"ns\"}";
    }
  }
  bench << '}';

  std::ofstream out{"table1_metrics.json"};
  out << "{\"table\":\"table1_memcpy_latency\",\"metrics\":" << reg.to_json()
      << "}";
  // Repo-root benchmark summary schema: metric name -> {value, units}.
  std::ofstream summary{"BENCH_table1.json"};
  summary << bench.str();
  std::printf(
      "  distribution snapshot: table1_metrics.json\n"
      "  benchmark summary: BENCH_table1.json\n");
}

}  // namespace

BENCHMARK(copy_into_pool)->Arg(64)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192);
BENCHMARK(copy_from_pool)->Arg(64)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192);

int main(int argc, char** argv) {
  std::printf(
      "Table 1 reproduction: memory copying latency GuestLib<->huge pages\n"
      "paper (Xeon E5-2618LV3): 64B=8ns 512B=64ns 1KB=117ns 2KB=214ns "
      "4KB=425ns 8KB=809ns\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\nper-size latency distributions (steady_clock):\n");
  snapshot_distributions();
  return 0;
}
