// In-text microbenchmark (§4.2): "NetKernel can achieve ~64Gbps (64B) and
// ~81Gbps (8KB) between GuestLib and ServiceLib for each core."
//
// Measures the full GuestLib -> ServiceLib data path per core on the real
// machinery: per chunk, the producer role memcpys payload into a huge-page
// chunk and pushes an ev-style nqe onto the ring (batched, as §3.2's
// batched-interrupt design implies); the consumer role pops the batch,
// memcpys the payload out and recycles the chunk. Producer and consumer
// alternate on one thread, so the result is the combined CPU cost of the
// whole path — the "per core" number the paper reports. (A two-thread
// pipeline would split this cost across two cores but measures scheduler
// noise on small hosts; this box exposes a single CPU.)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/profiler.hpp"
#include "shm/hugepage_pool.hpp"
#include "shm/nqe.hpp"
#include "shm/spsc_ring.hpp"

namespace {

using namespace nk;

constexpr std::size_t batch = 256;

double run_pipeline(std::size_t chunk_bytes, std::size_t transfers) {
  shm::hugepage_config cfg;
  cfg.chunk_size = 8 * 1024;
  shm::hugepage_pool pool{1, cfg};
  shm::spsc_ring<shm::nqe> data_ring{8192};

  // Write each chunk once before timing: the pool's region is committed on
  // first touch, and the first pass would otherwise time page faults.
  std::vector<shm::chunk_ref> chunks;
  for (std::size_t i = 0; i < batch; ++i) {
    chunks.push_back(pool.alloc().value());
    auto span = pool.writable(chunks.back()).value();
    std::memset(span.data(), 0x77, span.size());
  }
  std::vector<std::byte> src(chunk_bytes, std::byte{0x77});
  std::vector<std::byte> dst(chunk_bytes);
  std::vector<shm::nqe> out(batch);
  std::vector<shm::nqe> in(batch);

  const auto start = std::chrono::steady_clock::now();
  std::size_t moved = 0;
  while (moved < transfers) {
    {
      // GuestLib role: fill chunks, enqueue descriptors. One wall-clock
      // profiler scope per batch of 256: the scope cost amortizes to well
      // under the 2% overhead budget (see bench/ablate_profiler).
      NK_PROF("shm", "produce");
      for (std::size_t i = 0; i < batch; ++i) {
        auto span = pool.writable(chunks[i]);
        std::memcpy(span.value().data(), src.data(), chunk_bytes);
        out[i] = shm::nqe{};
        out[i].op = shm::nqe_op::ev_data;
        out[i].desc = shm::data_descriptor{
            chunks[i], 0, static_cast<std::uint32_t>(chunk_bytes)};
      }
      (void)data_ring.push_batch(std::span{out});
    }

    // ServiceLib role: drain the batch, copy payload out.
    NK_PROF("shm", "consume");
    const std::size_t n = data_ring.pop_batch(std::span{in});
    for (std::size_t i = 0; i < n; ++i) {
      auto span = pool.readable(in[i].desc);
      std::memcpy(dst.data(), span.value().data(), in[i].desc.length);
    }
    moved += n;
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  return static_cast<double>(moved) * static_cast<double>(chunk_bytes) *
         8.0 / elapsed / 1e9;  // Gb/s
}

}  // namespace

int main() {
  std::printf(
      "GuestLib<->ServiceLib shared-memory data path, combined cost per core\n"
      "paper (§4.2): ~64 Gb/s @64B, ~81 Gb/s @8KB per core\n\n");
  struct {
    std::size_t size;
    std::size_t transfers;
  } configs[] = {{64, 30'000'000}, {512, 20'000'000}, {1024, 10'000'000},
                 {4096, 4'000'000}, {8192, 2'000'000}};
  std::printf("%-10s %-14s %-12s\n", "chunk", "throughput", "cpu/op");
  std::ostringstream bench;
  bench << '{';
  bool first_metric = true;
  for (const auto& c : configs) {
    (void)run_pipeline(c.size, c.transfers / 10);  // warm-up
    // Wall-clock profiler: the produce/consume scopes charge their own
    // exclusive steady_clock time, giving CPU ns per transferred chunk.
    nk::obs::profiler prof{nullptr};
    const double gbps = run_pipeline(c.size, c.transfers);
    const double ns_per_op = static_cast<double>(prof.charged_ns()) /
                             static_cast<double>(c.transfers);
    std::printf("%-10zu %6.1f Gb/s %8.1f ns\n", c.size, gbps, ns_per_op);
    if (!first_metric) bench << ',';
    first_metric = false;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", gbps);
    bench << "\"shm_throughput_" << c.size << "B_gbps\":{\"value\":" << buf
          << ",\"units\":\"Gb/s\"}";
    std::snprintf(buf, sizeof(buf), "%.1f", ns_per_op);
    bench << ",\"shm_throughput_" << c.size
          << "B_cpu_ns_per_op\":{\"value\":" << buf
          << ",\"units\":\"ns/op\"}";
  }
  bench << '}';
  // Repo-root benchmark summary schema: metric name -> {value, units}.
  std::ofstream summary{"BENCH_shm_throughput.json"};
  summary << bench.str();
  std::printf("\nbenchmark summary: BENCH_shm_throughput.json\n");
  return 0;
}
