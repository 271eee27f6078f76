// Huge-page data region shared between one tenant VM and its NSM.
//
// The paper's prototype backs this with QEMU IVSHMEM: 2 MB pages, 40 of
// them, carved into fixed-size chunks that GuestLib/ServiceLib memcpy
// application payload into and reference from nqes via data descriptors.
// Each VM↔NSM pair gets a pool with a unique key; descriptors minted by a
// different pool are rejected, which is the isolation property of §3.1.
//
// Here the region is a shm::region: pages are committed when a chunk is
// first written, and release_free() returns free chunks' pages, so a pool
// costs memory in proportion to the chunks in use, not to its 80 MB size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "shm/nqe.hpp"
#include "shm/region.hpp"

namespace nk::shm {

struct hugepage_config {
  std::size_t page_size = 2 * 1024 * 1024;  // 2 MB huge pages
  std::size_t page_count = 40;              // prototype uses 40 pages
  std::size_t chunk_size = 8 * 1024;        // default chunk granularity
};

class hugepage_pool {
 public:
  // `key` must be unique per VM↔NSM pair (the region broker enforces this).
  hugepage_pool(std::uint32_t key, const hugepage_config& cfg = {});

  hugepage_pool(const hugepage_pool&) = delete;
  hugepage_pool& operator=(const hugepage_pool&) = delete;

  [[nodiscard]] std::uint32_t key() const { return key_; }
  [[nodiscard]] std::size_t chunk_size() const { return cfg_.chunk_size; }
  [[nodiscard]] std::size_t chunk_count() const { return chunk_count_; }
  [[nodiscard]] std::size_t chunks_free() const { return free_.size(); }
  [[nodiscard]] std::size_t chunks_held() const {
    return chunk_count_ - free_.size();
  }
  [[nodiscard]] std::size_t bytes_total() const {
    return cfg_.page_size * cfg_.page_count;
  }

  // Fault injection: while set, alloc() fails with resource_exhausted even
  // when chunks remain — drives the pipeline's pool-pressure paths (stalled
  // reads, would_block sends) without needing to genuinely fill the region.
  void set_exhausted(bool on) { exhausted_ = on; }
  [[nodiscard]] bool exhausted() const { return exhausted_; }
  [[nodiscard]] std::uint64_t failed_allocs() const { return failed_allocs_; }

  // Frees the free list defended against: double frees, foreign pool keys,
  // out-of-range indices (a forged cmp_send/recycle descriptor). Each is a
  // counted no-op instead of a free-list corruption.
  [[nodiscard]] std::uint64_t bad_frees() const { return bad_frees_; }

  // Takes one chunk from the free list.
  [[nodiscard]] result<chunk_ref> alloc();

  // Returns a chunk to the free list. Rejects foreign or double-freed refs.
  status free(chunk_ref ref);

  // Mutable view of a chunk for the owner of a valid descriptor.
  [[nodiscard]] result<std::span<std::byte>> writable(chunk_ref ref);

  // Read-only view covering [offset, offset+length) of the chunk. The bound
  // is checked in 64 bits: a guest-forged offset near 2^32 cannot wrap the
  // sum back inside the chunk.
  [[nodiscard]] result<std::span<const std::byte>> readable(
      const data_descriptor& desc) const;

  // Returns the pages of every maximal run of free chunks to the kernel.
  // Held chunks keep their bytes; released ones read as zero when next
  // allocated, as they did on first use.
  void release_free();

  // Bytes of the region the kernel currently holds for this pool.
  [[nodiscard]] std::size_t resident_bytes() const {
    return region_.resident_bytes();
  }

 private:
  [[nodiscard]] status validate(chunk_ref ref) const;

  std::uint32_t key_;
  hugepage_config cfg_;
  std::size_t chunk_count_;
  region region_;
  std::vector<std::uint32_t> free_;
  std::vector<bool> allocated_;
  bool exhausted_ = false;
  std::uint64_t failed_allocs_ = 0;
  std::uint64_t bad_frees_ = 0;
};

}  // namespace nk::shm
