#include "shm_probe.hpp"

#include <array>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "shm/hugepage_pool.hpp"
#include "shm/nqe.hpp"
#include "shm/spsc_ring.hpp"
#include "stats.hpp"

namespace nkb {

namespace {

namespace shm = nk::shm;

constexpr std::size_t batch = 256;
constexpr std::size_t ring_slots = 4096;
constexpr std::size_t payload = 8 * 1024;
// Each figure is the median of this many timed rounds; host interference
// only ever lengthens a round.
constexpr int rounds = 21;
constexpr std::size_t ring_reps = 1'000;     // batches per round
constexpr std::size_t forward_reps = 1'000;  // batches per round
constexpr std::size_t pool_reps = 100;       // batches per round
constexpr std::size_t copy_reps = 2'000;     // 8 KB round trips per round

// The shared-memory plumbing of one VM <-> NSM pair: the huge-page pool
// (default prototype geometry: 40 x 2 MB pages, 8 KB chunks), the VM-side
// job ring and the NSM-side job ring.
class probe {
 public:
  explicit probe(std::uint64_t seed) : src_(payload), dst_(payload) {
    nk::rng draw{seed * 0x9e3779b97f4a7c15ULL + 4};
    for (auto& b : src_) b = static_cast<std::byte>(draw.next_u64() & 0xffu);
    for (std::size_t i = 0; i < batch; ++i) out_[i].op = shm::nqe_op::req_send;
  }

  // push_batch + pop_batch of a full batch; ns per nqe.
  double ring() {
    const std::int64_t t0 = wall_ns();
    for (std::size_t r = 0; r < ring_reps; ++r) {
      out_[0].token = ++seq_;
      const std::size_t pushed =
          vm_ring_.push_batch(std::span<const shm::nqe>{out_.data(), batch});
      const std::size_t popped = vm_ring_.pop_batch(std::span<shm::nqe>{in_.data(), batch});
      if (pushed != batch || popped != batch || in_[0].token != seq_) ++failed_;
    }
    return per(wall_ns() - t0, ring_reps * batch);
  }

  // One CoreEngine hop per nqe: pop from the VM ring, push to the NSM ring;
  // ns per forward. Only the hops are timed.
  double forward() {
    std::int64_t ns = 0;
    for (std::size_t r = 0; r < forward_reps; ++r) {
      for (auto& e : out_) e.token = ++seq_;
      if (vm_ring_.push_batch(std::span<const shm::nqe>{out_.data(), batch}) != batch) {
        ++failed_;
      }
      const std::int64_t t0 = wall_ns();
      for (std::size_t i = 0; i < batch; ++i) {
        shm::nqe e;
        if (!vm_ring_.try_pop(e) || !nsm_ring_.try_push(e)) ++failed_;
      }
      ns += wall_ns() - t0;
      const std::size_t n = nsm_ring_.pop_batch(std::span<shm::nqe>{in_.data(), batch});
      if (n != batch || in_[0].token != out_[0].token ||
          in_[batch - 1].token != out_[batch - 1].token) {
        ++failed_;
      }
    }
    return per(ns, forward_reps * batch);
  }

  // alloc + free of a batch of chunks; ns per alloc/free pair.
  double pool() {
    std::array<shm::chunk_ref, batch> refs{};
    const std::int64_t t0 = wall_ns();
    for (std::size_t r = 0; r < pool_reps; ++r) {
      for (auto& ref : refs) {
        auto c = pool_.alloc();
        if (!c) {
          ++failed_;
          return 0.0;
        }
        ref = c.value();
      }
      for (const auto& ref : refs) {
        if (!pool_.free(ref)) ++failed_;
      }
    }
    return per(wall_ns() - t0, pool_reps * batch);
  }

  // 8 KB into a chunk and back out, checked; ns per KB moved.
  double copy() {
    auto c = pool_.alloc();
    if (!c) {
      ++failed_;
      return 0.0;
    }
    auto w = pool_.writable(c.value());
    auto r = pool_.readable(
        shm::data_descriptor{c.value(), 0, static_cast<std::uint32_t>(payload)});
    if (!w || !r) {
      ++failed_;
      (void)pool_.free(c.value());
      return 0.0;
    }
    const std::int64_t t0 = wall_ns();
    for (std::size_t i = 0; i < copy_reps; ++i) {
      src_[i % payload] ^= std::byte{1};
      std::memcpy(w.value().data(), src_.data(), payload);
      std::memcpy(dst_.data(), r.value().data(), payload);
      if (dst_[i % payload] != src_[i % payload]) ++corrupt_;
    }
    const std::int64_t ns = wall_ns() - t0;
    if (std::memcmp(dst_.data(), src_.data(), payload) != 0) ++corrupt_;
    if (!pool_.free(c.value())) ++failed_;
    return per(ns, copy_reps * 2 * payload / 1024);
  }

  void check(check_log& log) const {
    log.expect(corrupt_ == 0, std::to_string(corrupt_) + " copied payloads corrupted");
    log.expect(failed_ == 0, std::to_string(failed_) + " ring or pool operations failed");
    log.expect(pool_.chunks_free() == pool_.chunk_count(),
               std::to_string(pool_.chunk_count() - pool_.chunks_free()) +
                   " huge-page chunks still held after the probe");
    log.expect(vm_ring_.empty_approx() && nsm_ring_.empty_approx(),
               "rings not empty after the probe");
  }

 private:
  static double per(std::int64_t ns, std::size_t n) {
    return static_cast<double>(ns) / static_cast<double>(n);
  }

  shm::hugepage_pool pool_{1, shm::hugepage_config{}};
  shm::spsc_ring<shm::nqe> vm_ring_{ring_slots};
  shm::spsc_ring<shm::nqe> nsm_ring_{ring_slots};
  std::vector<std::byte> src_;
  std::vector<std::byte> dst_;
  std::array<shm::nqe, batch> out_{};
  std::array<shm::nqe, batch> in_{};
  std::uint64_t seq_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t corrupt_ = 0;
};

}  // namespace

shm_probe_result probe_shm(std::uint64_t seed) {
  probe pr{seed};
  std::vector<double> ring, forward, pool, copy;
  (void)pr.ring();  // warm caches and the free list
  (void)pr.pool();
  for (int r = 0; r < rounds; ++r) {
    ring.push_back(pr.ring());
    forward.push_back(pr.forward());
    pool.push_back(pr.pool());
    copy.push_back(pr.copy());
  }
  shm_probe_result out;
  pr.check(out.checks);
  const std::string note = "wall, median of " + std::to_string(rounds) + " rounds";
  out.layers.set("shm.ring_ns_per_nqe", median(ring), "ns", note);
  out.layers.set("shm.nqe_fwd_ns", median(forward), "ns", note);
  out.layers.set("shm.pool_ns_per_op", median(pool), "ns", note);
  out.layers.set("shm.copy_ns_per_kb", median(copy), "ns/KB", note);
  return out;
}

}  // namespace nkb
