// Unit tests for the shared-memory substrate: nqe layout, SPSC rings
// (single-threaded semantics and a real two-thread stress), huge-page pool
// isolation, the FIFO queue set, and the staged lane every producer
// pushes through.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <span>
#include <thread>
#include <vector>

#include "shm/hugepage_pool.hpp"
#include "shm/nqe.hpp"
#include "shm/queue_set.hpp"
#include "shm/spsc_ring.hpp"
#include "shm/staged_lane.hpp"
#include "shm/stat_page.hpp"
#include "shm/steering.hpp"

namespace nk::shm {
namespace {

TEST(nqe, is_one_cache_line) {
  EXPECT_EQ(sizeof(nqe), 64u);
  EXPECT_TRUE(std::is_trivially_copyable_v<nqe>);
}

TEST(spsc_ring, push_pop_roundtrip) {
  spsc_ring<int> ring{8};
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full
  for (int i = 0; i < 8; ++i) {
    int v = -1;
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  int v;
  EXPECT_FALSE(ring.try_pop(v));  // empty
}

// Ring slots are committed on first write, like pool pages: a fresh ring
// holds no memory, and a few pushes commit only the page they land in.
TEST(spsc_ring, slots_are_committed_on_first_push) {
  spsc_ring<nqe> ring{4096};
  EXPECT_EQ(ring.resident_bytes(), 0u);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.try_push(nqe{}));
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  EXPECT_EQ(ring.resident_bytes(), page);
  // Pushes fill the slots in order, so 256 more touch exactly the pages
  // up to the last slot written.
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(ring.try_push(nqe{}));
  const std::size_t touched = 259 * sizeof(nqe);
  EXPECT_EQ(ring.resident_bytes(), (touched + page - 1) / page * page);
}

TEST(spsc_ring, capacity_rounds_to_power_of_two) {
  spsc_ring<int> ring{5};
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(spsc_ring, wraps_around) {
  spsc_ring<int> ring{4};
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(ring.try_push(round));
    int v = -1;
    ASSERT_TRUE(ring.try_pop(v));
    ASSERT_EQ(v, round);
  }
}

TEST(spsc_ring, batch_operations) {
  spsc_ring<int> ring{8};
  const int in[6] = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(ring.push_batch(std::span{in}), 6u);
  int out[4] = {};
  EXPECT_EQ(ring.pop_batch(std::span{out}), 4u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[3], 4);
  EXPECT_EQ(ring.size_approx(), 2u);
}

TEST(spsc_ring, batch_push_partial_when_nearly_full) {
  spsc_ring<int> ring{4};
  const int in[6] = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(ring.push_batch(std::span{in}), 4u);
}

TEST(spsc_ring, peek_does_not_consume) {
  spsc_ring<int> ring{4};
  ASSERT_TRUE(ring.try_push(42));
  int v = 0;
  ASSERT_TRUE(ring.try_peek(v));
  EXPECT_EQ(v, 42);
  EXPECT_EQ(ring.size_approx(), 1u);
}

// Two real threads hammer the ring; every value must arrive exactly once,
// in order. This is the code path bench/nqe_copy measures.
TEST(spsc_ring, two_thread_stress_preserves_fifo) {
  spsc_ring<std::uint64_t> ring{1024};
  constexpr std::uint64_t count = 1'000'000;

  std::thread producer{[&] {
    for (std::uint64_t i = 0; i < count;) {
      if (ring.try_push(i)) ++i;
    }
  }};

  std::uint64_t expected = 0;
  while (expected < count) {
    std::uint64_t v;
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty_approx());
}

TEST(hugepage_pool, alloc_free_cycle) {
  hugepage_config cfg;
  cfg.page_size = 64 * 1024;
  cfg.page_count = 2;
  cfg.chunk_size = 8 * 1024;
  hugepage_pool pool{1, cfg};
  EXPECT_EQ(pool.chunk_count(), 16u);
  EXPECT_EQ(pool.chunks_free(), 16u);

  auto c = pool.alloc();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(pool.chunks_free(), 15u);
  EXPECT_TRUE(pool.free(c.value()).ok());
  EXPECT_EQ(pool.chunks_free(), 16u);
}

TEST(hugepage_pool, exhaustion_reports_resource_exhausted) {
  hugepage_config cfg;
  cfg.page_size = 16 * 1024;
  cfg.page_count = 1;
  cfg.chunk_size = 8 * 1024;
  hugepage_pool pool{1, cfg};
  auto a = pool.alloc();
  auto b = pool.alloc();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = pool.alloc();
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.error(), errc::resource_exhausted);
}

TEST(hugepage_pool, rejects_foreign_descriptors) {
  hugepage_pool mine{1};
  hugepage_pool theirs{2};
  auto c = theirs.alloc();
  ASSERT_TRUE(c.ok());
  // A descriptor minted by pool 2 must not grant access to pool 1 — the
  // §3.1 isolation property.
  EXPECT_EQ(mine.writable(c.value()).error(), errc::permission_denied);
  EXPECT_EQ(mine.free(c.value()).error(), errc::permission_denied);
  data_descriptor d{c.value(), 0, 16};
  EXPECT_EQ(mine.readable(d).error(), errc::permission_denied);
}

TEST(hugepage_pool, rejects_double_free_and_stale_refs) {
  hugepage_pool pool{1};
  auto c = pool.alloc();
  ASSERT_TRUE(pool.free(c.value()).ok());
  EXPECT_EQ(pool.free(c.value()).error(), errc::not_found);
  EXPECT_EQ(pool.writable(c.value()).error(), errc::not_found);
}

TEST(hugepage_pool, bad_frees_are_counted_noops) {
  hugepage_pool pool{1};
  hugepage_pool foreign{2};
  EXPECT_EQ(pool.bad_frees(), 0u);

  // Double free: refused, counted, and the slot is not freed twice.
  auto a = pool.alloc();
  auto b = pool.alloc();
  const auto free_before = pool.chunks_free();
  ASSERT_TRUE(pool.free(a.value()).ok());
  EXPECT_EQ(pool.free(a.value()).error(), errc::not_found);
  EXPECT_EQ(pool.bad_frees(), 1u);
  EXPECT_EQ(pool.chunks_free(), free_before + 1);

  // Free through a foreign pool's ref: refused, counted, and the foreign
  // chunk is untouched.
  auto f = foreign.alloc();
  EXPECT_EQ(pool.free(f.value()).error(), errc::permission_denied);
  EXPECT_EQ(pool.bad_frees(), 2u);
  EXPECT_TRUE(foreign.readable(data_descriptor{f.value(), 0, 1}).ok());

  // Out-of-range index: refused, counted.
  EXPECT_EQ(pool.free(chunk_ref{1, 1u << 30}).error(),
            errc::invalid_argument);
  EXPECT_EQ(pool.bad_frees(), 3u);

  // The abuse corrupted nothing: the live chunk still frees cleanly.
  EXPECT_TRUE(pool.free(b.value()).ok());
  EXPECT_EQ(pool.chunks_free(), pool.chunk_count());
  EXPECT_EQ(pool.bad_frees(), 3u);
}

TEST(hugepage_pool, bounds_checked_descriptors) {
  hugepage_pool pool{1};
  auto c = pool.alloc();
  data_descriptor too_long{c.value(), 4096,
                           static_cast<std::uint32_t>(pool.chunk_size())};
  EXPECT_EQ(pool.readable(too_long).error(), errc::invalid_argument);
  data_descriptor bad_index{chunk_ref{1, 1u << 30}, 0, 16};
  EXPECT_EQ(pool.readable(bad_index).error(), errc::invalid_argument);
}

// offset + length is checked in 64 bits. In 32 bits a forged offset near
// 2^32 wraps the sum back under chunk_size and readable() hands out a span
// gigabytes past the chunk.
TEST(hugepage_pool, readable_bounds_do_not_wrap) {
  hugepage_pool pool{1};
  const auto c = pool.alloc().value();
  const auto size = static_cast<std::uint32_t>(pool.chunk_size());
  auto rejects = [&](std::uint32_t offset, std::uint32_t length) {
    return pool.readable(data_descriptor{c, offset, length}).error() ==
           errc::invalid_argument;
  };
  EXPECT_TRUE(rejects(0xFFFFF000u, 0x1100u));  // wraps to 0x100
  EXPECT_TRUE(rejects(0xFFFFFFFFu, 1));        // wraps to 0
  EXPECT_TRUE(rejects(0x80000000u, 0x80000000u));
  EXPECT_TRUE(rejects(0, 0xFFFFFFFFu));
  EXPECT_TRUE(rejects(size, 1));
  EXPECT_TRUE(rejects(1, size));

  // Descriptors that end exactly at the chunk boundary are fine.
  auto whole = pool.readable(data_descriptor{c, 0, size});
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.value().size(), pool.chunk_size());
  auto last = pool.readable(data_descriptor{c, size - 1, 1});
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value().data(), whole.value().data() + size - 1);
  EXPECT_TRUE(pool.readable(data_descriptor{c, size, 0}).ok());
}

// The region is committed on first touch: an untouched default pool (80 MB
// of address space) holds next to no memory.
TEST(hugepage_pool, fresh_pool_is_not_resident) {
  hugepage_pool pool{1};
  EXPECT_LT(pool.resident_bytes(), pool.chunk_size());
}

TEST(hugepage_pool, written_chunks_become_resident) {
  hugepage_pool pool{1};
  constexpr std::size_t k = 16;
  for (std::size_t i = 0; i < k; ++i) {
    auto w = pool.writable(pool.alloc().value());
    ASSERT_TRUE(w.ok());
    std::fill(w.value().begin(), w.value().end(), std::byte{0x5a});
  }
  EXPECT_GE(pool.resident_bytes(), k * pool.chunk_size());
  EXPECT_LT(pool.resident_bytes(), pool.bytes_total() / 2);
}

// release_free() drops residency to exactly the held chunks and leaves
// their bytes alone; a released chunk reads as zero when reused.
TEST(hugepage_pool, release_free_keeps_held_chunks_intact) {
  // 64 KB chunks are whole OS pages on 4/16/64 KB-page hosts, so the
  // residency check below is exact.
  hugepage_pool pool{1, hugepage_config{.page_size = 2 * 1024 * 1024,
                                        .page_count = 1,
                                        .chunk_size = 64 * 1024}};
  std::vector<chunk_ref> chunks;
  for (std::size_t i = 0; i < 24; ++i) {
    chunks.push_back(pool.alloc().value());
    auto w = pool.writable(chunks.back()).value();
    for (std::size_t b = 0; b < w.size(); ++b) {
      w[b] = static_cast<std::byte>(i * 31 + b);
    }
  }
  // Free a long run plus every third chunk elsewhere.
  std::vector<std::size_t> held;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if ((i >= 8 && i < 16) || i % 3 == 0) {
      ASSERT_TRUE(pool.free(chunks[i]).ok());
    } else {
      held.push_back(i);
    }
  }
  pool.release_free();

  EXPECT_EQ(pool.resident_bytes(), held.size() * pool.chunk_size());
  for (const std::size_t i : held) {
    auto r = pool.readable(data_descriptor{
        chunks[i], 0, static_cast<std::uint32_t>(pool.chunk_size())});
    ASSERT_TRUE(r.ok());
    for (std::size_t b = 0; b < r.value().size(); ++b) {
      ASSERT_EQ(r.value()[b], static_cast<std::byte>(i * 31 + b))
          << "chunk " << i << " byte " << b;
    }
  }
  // LIFO: the next alloc reuses the last chunk freed, released to zero.
  auto reused = pool.writable(pool.alloc().value()).value();
  EXPECT_TRUE(std::all_of(reused.begin(), reused.end(),
                          [](std::byte x) { return x == std::byte{0}; }));
  EXPECT_EQ(pool.bad_frees(), 0u);
}

// Chunks smaller than an OS page: a free chunk between two held ones shares
// their pages, so release_free() must round inward and release nothing.
TEST(hugepage_pool, release_free_spares_pages_shared_with_held_chunks) {
  hugepage_pool pool{1, hugepage_config{.page_size = 64 * 1024,
                                        .page_count = 1,
                                        .chunk_size = 512}};
  const auto a = pool.alloc().value();
  const auto gap = pool.alloc().value();
  const auto b = pool.alloc().value();
  for (const auto& c : {a, b}) {
    auto w = pool.writable(c).value();
    std::fill(w.begin(), w.end(), std::byte{0xa5});
  }
  ASSERT_TRUE(pool.free(gap).ok());
  pool.release_free();
  for (const auto& c : {a, b}) {
    auto r = pool.readable(data_descriptor{c, 0, 512}).value();
    EXPECT_TRUE(std::all_of(r.begin(), r.end(),
                            [](std::byte x) { return x == std::byte{0xa5}; }));
  }
}

TEST(hugepage_pool, data_written_is_read_back) {
  hugepage_pool pool{9};
  auto c = pool.alloc();
  auto w = pool.writable(c.value());
  ASSERT_TRUE(w.ok());
  for (std::size_t i = 0; i < 256; ++i) {
    w.value()[i] = static_cast<std::byte>(i);
  }
  auto r = pool.readable(data_descriptor{c.value(), 0, 256});
  ASSERT_TRUE(r.ok());
  for (std::size_t i = 0; i < 256; ++i) {
    ASSERT_EQ(r.value()[i], static_cast<std::byte>(i));
  }
}

// An endpoint's job queue is one FIFO ring: a connection op queued behind
// data does not jump ahead of it.
TEST(nqe_queue, fifo_when_not_prioritized) {
  endpoint_queues eq{queue_config{.depth = 16}};
  nqe data;
  data.op = nqe_op::req_send;
  nqe conn;
  conn.op = nqe_op::req_connect;
  ASSERT_TRUE(eq.job.try_push(data));
  ASSERT_TRUE(eq.job.try_push(conn));
  nqe out;
  ASSERT_TRUE(eq.job.try_pop(out));
  EXPECT_EQ(out.op, nqe_op::req_send);  // strict FIFO
}

TEST(endpoint_queues, three_independent_queues) {
  endpoint_queues eq{queue_config{.depth = 4}};
  nqe e;
  e.op = nqe_op::req_send;
  ASSERT_TRUE(eq.job.try_push(e));
  EXPECT_EQ(eq.job.capacity(), 4u);
  EXPECT_TRUE(eq.completion.empty_approx());
  EXPECT_TRUE(eq.receive.empty_approx());
  EXPECT_EQ(eq.job.size_approx(), 1u);
}

TEST(spsc_ring, free_approx_tracks_space) {
  spsc_ring<int> ring{4};
  EXPECT_EQ(ring.free_approx(), 4u);
  ASSERT_TRUE(ring.try_push(1));
  ASSERT_TRUE(ring.try_push(2));
  EXPECT_EQ(ring.free_approx(), 2u);
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(ring.free_approx(), 3u);
  while (ring.try_push(0)) {
  }
  EXPECT_EQ(ring.free_approx(), 0u);
}

TEST(nqe, only_pure_data_is_droppable_on_overflow) {
  EXPECT_TRUE(droppable_on_overflow(nqe_op::ev_data));
  EXPECT_TRUE(droppable_on_overflow(nqe_op::ev_udp_data));
  // Lifecycle and credit-bearing nqes must never be discarded: a lost
  // cmp_socket or cmp_send strands a flow permanently.
  EXPECT_FALSE(droppable_on_overflow(nqe_op::cmp_socket));
  EXPECT_FALSE(droppable_on_overflow(nqe_op::cmp_send));
  EXPECT_FALSE(droppable_on_overflow(nqe_op::ev_accept));
  EXPECT_FALSE(droppable_on_overflow(nqe_op::ev_closed));
  EXPECT_FALSE(droppable_on_overflow(nqe_op::req_close));
  EXPECT_FALSE(droppable_on_overflow(nqe_op::req_send));
  EXPECT_FALSE(droppable_on_overflow(nqe_op::req_udp_send));
}

TEST(nqe, data_bearing_ops_own_a_chunk) {
  nqe e;
  for (const nqe_op op : {nqe_op::req_send, nqe_op::req_udp_send,
                          nqe_op::ev_data, nqe_op::ev_udp_data}) {
    e.op = op;
    EXPECT_TRUE(owns_chunk(e)) << to_string(op);
  }
  for (const nqe_op op : {nqe_op::req_socket, nqe_op::req_close,
                          nqe_op::cmp_send, nqe_op::cmp_socket,
                          nqe_op::ev_accept, nqe_op::ev_error}) {
    e.op = op;
    EXPECT_FALSE(owns_chunk(e)) << to_string(op);
  }
}

// staged_lane fixtures: a 4-slot ring and nqes tagged by token.
nqe tagged(nqe_op op, std::uint64_t token) {
  nqe e;
  e.op = op;
  e.token = token;
  return e;
}

std::vector<std::uint64_t> drain_tokens(spsc_ring<nqe>& ring) {
  std::vector<std::uint64_t> out;
  nqe e;
  while (ring.try_pop(e)) out.push_back(e.token);
  return out;
}

TEST(staged_lane, keeps_fifo_across_stage_and_ring) {
  spsc_ring<nqe> ring{4};
  staged_lane lane{ring};
  for (std::uint64_t t = 0; t < 4; ++t) {
    EXPECT_EQ(lane.push(tagged(nqe_op::req_send, t), staged_lane::no_cap),
              push_result::ring);
  }
  for (std::uint64_t t = 4; t < 7; ++t) {
    EXPECT_EQ(lane.push(tagged(nqe_op::req_send, t), staged_lane::no_cap),
              push_result::staged);
  }
  EXPECT_EQ(lane.size(), 3u);
  std::vector<std::uint64_t> seen = drain_tokens(ring);
  EXPECT_EQ(lane.flush(), 3u);
  EXPECT_TRUE(lane.empty());
  for (const std::uint64_t t : drain_tokens(ring)) seen.push_back(t);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(staged_lane, new_push_never_overtakes_the_stage) {
  spsc_ring<nqe> ring{4};
  staged_lane lane{ring};
  for (std::uint64_t t = 0; t < 5; ++t) {
    (void)lane.push(tagged(nqe_op::cmp_send, t), staged_lane::no_cap);
  }
  ASSERT_EQ(lane.size(), 1u);
  // The ring has room again, but token 4 is still staged: 5 must queue
  // behind it instead of slipping onto the ring.
  nqe out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(lane.push(tagged(nqe_op::cmp_send, 5), staged_lane::no_cap),
            push_result::staged);
  EXPECT_EQ(lane.size(), 2u);
  EXPECT_EQ(lane.flush(), 1u);
  EXPECT_EQ(drain_tokens(ring), (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(lane.flush(), 1u);
  EXPECT_EQ(drain_tokens(ring), (std::vector<std::uint64_t>{5}));
}

TEST(staged_lane, cap_drops_only_droppable_ops) {
  spsc_ring<nqe> ring{4};
  staged_lane lane{ring};
  constexpr std::size_t cap = 2;
  for (std::uint64_t t = 0; t < 6; ++t) {
    (void)lane.push(tagged(nqe_op::ev_data, t), cap);
  }
  ASSERT_EQ(lane.size(), cap);
  // At the cap: pure data is refused, everything else still stages.
  for (const nqe_op op : {nqe_op::ev_data, nqe_op::ev_udp_data}) {
    EXPECT_EQ(lane.push(tagged(op, 9), cap), push_result::dropped)
        << to_string(op);
  }
  for (const nqe_op op : {nqe_op::cmp_socket, nqe_op::cmp_send,
                          nqe_op::ev_accept, nqe_op::ev_closed,
                          nqe_op::req_close, nqe_op::req_send}) {
    EXPECT_EQ(lane.push(tagged(op, 9), cap), push_result::staged)
        << to_string(op);
  }
  EXPECT_EQ(lane.size(), cap + 6);
}

TEST(staged_lane, cap_zero_drops_data_whenever_backed_up) {
  spsc_ring<nqe> ring{4};
  staged_lane lane{ring};
  const nqe data = tagged(nqe_op::ev_data, 1);
  EXPECT_EQ(lane.push(data, 0), push_result::ring);
  // Ring full, stage empty: refused, never staged.
  for (std::uint64_t t = 0; t < 3; ++t) {
    (void)lane.push(tagged(nqe_op::cmp_send, t), staged_lane::no_cap);
  }
  EXPECT_EQ(lane.push(data, 0), push_result::dropped);
  // Stage non-empty: refused even though the ring has room again.
  (void)lane.push(tagged(nqe_op::cmp_send, 3), staged_lane::no_cap);
  ASSERT_EQ(lane.size(), 1u);
  nqe out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(lane.push(data, 0), push_result::dropped);
  EXPECT_EQ(lane.size(), 1u);
}

TEST(staged_lane, flush_stops_at_the_first_full_slot) {
  spsc_ring<nqe> ring{4};
  staged_lane lane{ring};
  for (std::uint64_t t = 0; t < 8; ++t) {
    (void)lane.push(tagged(nqe_op::req_send, t), staged_lane::no_cap);
  }
  ASSERT_EQ(lane.size(), 4u);
  EXPECT_EQ(lane.flush(), 0u);  // ring still full
  nqe out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(lane.flush(), 2u);
  EXPECT_EQ(lane.size(), 2u);
  EXPECT_EQ(drain_tokens(ring), (std::vector<std::uint64_t>{2, 3, 4, 5}));
}

TEST(staged_lane, scrub_hands_over_and_empties_the_stage) {
  spsc_ring<nqe> ring{4};
  staged_lane lane{ring};
  for (std::uint64_t t = 0; t < 7; ++t) {
    (void)lane.push(tagged(nqe_op::ev_data, t), staged_lane::no_cap);
  }
  std::vector<std::uint64_t> discarded;
  lane.scrub([&](const nqe& e) { discarded.push_back(e.token); });
  EXPECT_EQ(discarded, (std::vector<std::uint64_t>{4, 5, 6}));
  EXPECT_TRUE(lane.empty());
  EXPECT_EQ(ring.size_approx(), 4u);  // the ring is not the lane's to scrub
  EXPECT_EQ(lane.flush(), 0u);
}

// Batch API under real concurrency: a tiny ring (16 slots, ~4 bits of
// index) makes the free-running counters wrap every few microseconds and
// keeps the producer's tail_cache_ / consumer's head_cache_ permanently
// stale, so every push/pop round trips through the refresh path. Mixed
// batch sizes hit the partial-batch branches. Run under ASan and TSan by
// the CI smoke lanes.
TEST(spsc_ring, two_thread_batch_stress_wraps_and_refreshes_caches) {
  spsc_ring<std::uint64_t> ring{16};
  constexpr std::uint64_t count = 200'000;

  // Yield instead of hard-spinning on a full/empty ring: on a single-CPU
  // host the peer can't run until this thread gives up its quantum, and a
  // 16-slot ring moves at most 16 items per quantum otherwise.
  std::thread producer{[&] {
    std::uint64_t next = 0;
    std::uint64_t batch[7];
    while (next < count) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(1 + next % 7, count - next));
      for (std::size_t i = 0; i < want; ++i) batch[i] = next + i;
      const std::size_t pushed =
          ring.push_batch(std::span<const std::uint64_t>{batch, want});
      next += pushed;
      if (pushed == 0) std::this_thread::yield();
    }
  }};

  std::uint64_t expected = 0;
  std::uint64_t out[5];
  while (expected < count) {
    const std::size_t want =
        static_cast<std::size_t>(1 + expected % 5);
    const std::size_t got = ring.pop_batch(std::span<std::uint64_t>{out, want});
    if (got == 0) std::this_thread::yield();
    for (std::size_t i = 0; i < got; ++i) {
      ASSERT_EQ(out[i], expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty_approx());

  // The 16-slot ring wrapped its index space thousands of times.
  EXPECT_GT(count / ring.capacity(), 10'000u);
}

// The steering mixer must spread tiny sequential keys evenly. libstdc++'s
// std::hash<uint64_t> is the identity — fd 0..N-1 under `% shards` would
// land consecutively and any stride-aligned workload collapses onto a few
// shards. splitmix64's finalizer full-avalanches, so both per-bit balance
// and modulo distribution hold for the keys we actually produce.
TEST(flow_steering, mixer_avalanches_and_balances_sequential_keys) {
  // Avalanche: flipping any single input bit flips ~half the output bits.
  for (int bit = 0; bit < 64; ++bit) {
    int flipped = 0;
    for (std::uint64_t x = 0; x < 64; ++x) {
      const std::uint64_t base = x * 0x0123456789abcdefULL;
      flipped += std::popcount(mix64(base) ^ mix64(base ^ (1ULL << bit)));
    }
    const double avg = flipped / 64.0;
    EXPECT_GT(avg, 24.0) << "weak diffusion from input bit " << bit;
    EXPECT_LT(avg, 40.0) << "weak diffusion from input bit " << bit;
  }

  // Shard balance: sequential fds for a handful of VM ids, and sequential
  // cids for one NSM — the shapes GuestLib and ServiceLib actually emit.
  for (const std::size_t shards : {2u, 4u, 8u}) {
    std::vector<std::size_t> per_shard(shards, 0);
    std::size_t total = 0;
    for (std::uint32_t vm = 1; vm <= 4; ++vm) {
      for (std::uint32_t fd = 0; fd < 1024; ++fd) {
        ++per_shard[flow_shard(vm, fd, shards)];
        ++total;
      }
    }
    for (std::uint32_t cid = 1; cid <= 4096; ++cid) {
      ++per_shard[nsm_shard(7, cid, shards)];
      ++total;
    }
    const double fair = static_cast<double>(total) / shards;
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_GT(per_shard[s], fair * 0.85) << shards << " shards, shard " << s;
      EXPECT_LT(per_shard[s], fair * 1.15) << shards << " shards, shard " << s;
    }
  }

  // Degenerate counts: everything homes on shard 0.
  EXPECT_EQ(flow_shard(9, 1234, 1), 0u);
  EXPECT_EQ(flow_shard(9, 1234, 0), 0u);
  EXPECT_EQ(nsm_shard(3, 99, 1), 0u);
}

// --- stat_page (tenant-facing observability, DESIGN.md §16) ----------------

TEST(stat_page, publish_read_roundtrip_and_versioning) {
  stat_page page;
  EXPECT_FALSE(page.ever_published());
  stat_snapshot out;
  EXPECT_FALSE(page.read(out));  // nothing published yet

  stat_snapshot snap{};
  snap.vm.publish_seq = 1;
  snap.vm.epoch = 3;
  snap.vm.sockets = 2;
  snap.rows[0].fd = 4;
  obs::nk_flow_info& info = snap.rows[0].info;
  obs::set_stat_string(info.state, sizeof(info.state), "established");
  info.srtt_ns = 250'000;
  snap.rows[1].fd = 9;
  page.publish(snap);

  EXPECT_TRUE(page.ever_published());
  EXPECT_EQ(page.version(), 2u);  // seqlock: one publish = +2, even at rest
  ASSERT_TRUE(page.read(out));
  EXPECT_EQ(out.vm.epoch, 3u);
  ASSERT_NE(out.find(4), nullptr);
  EXPECT_STREQ(out.find(4)->info.transport, "tcp");
  EXPECT_STREQ(out.find(4)->info.state, "established");
  EXPECT_EQ(out.find(4)->info.srtt_ns, 250'000u);
  ASSERT_NE(out.find(9), nullptr);
  EXPECT_EQ(out.find(7), nullptr);  // fd 7 is not a published row

  snap.vm.publish_seq = 2;
  snap.vm.flags |= stat_frozen;
  page.publish(snap);
  EXPECT_EQ(page.version(), 4u);
  ASSERT_TRUE(page.read(out));
  EXPECT_EQ(out.vm.publish_seq, 2u);
  EXPECT_NE(out.vm.flags & stat_frozen, 0u);
}

TEST(stat_page, set_stat_string_truncates_and_terminates) {
  char buf[8];
  obs::set_stat_string(buf, sizeof(buf), "established");  // longer than buf
  EXPECT_EQ(buf[sizeof(buf) - 1], '\0');
  EXPECT_STREQ(buf, "establi");
  obs::set_stat_string(buf, sizeof(buf), "ok");
  EXPECT_STREQ(buf, "ok");
}

// Two-thread seqlock stress under socket churn: a writer republishing
// snapshots whose every field is derived from the publish sequence (and
// whose row count grows and shrinks, as sockets open and close), against a
// reader spinning on read(). Any torn read — a row mixing fields from two
// publishes, or a row count from a different generation than its rows —
// fails the self-consistency check. Run under TSan via the smoke label.
TEST(stat_page, concurrent_reader_never_observes_torn_snapshot) {
  stat_page page;
  constexpr std::uint64_t publishes = 4000;

  auto fill = [](stat_snapshot& snap, std::uint64_t seq) {
    snap = stat_snapshot{};
    snap.vm.publish_seq = seq;
    // Churn: the socket count sweeps the full row range and back.
    const auto phase = seq % (2 * stat_snapshot::max_rows);
    snap.vm.sockets = phase < stat_snapshot::max_rows
                          ? phase
                          : 2 * stat_snapshot::max_rows - phase;
    snap.vm.epoch = seq;
    snap.vm.published_ns = seq * 1000;
    for (std::uint64_t r = 0; r < snap.vm.sockets; ++r) {
      auto& row = snap.rows[r];
      row.fd = seq + r;
      row.info.srtt_ns = seq ^ r;
      row.info.cwnd_bytes = seq + 2 * r;
      row.info.retransmits = seq;
      row.info.bytes_in = seq * 3 + r;
    }
  };

  std::atomic<bool> done{false};
  std::uint64_t reads = 0, torn = 0;
  std::thread reader([&] {
    stat_snapshot out;
    while (!done.load(std::memory_order_acquire)) {
      if (!page.read(out)) continue;
      ++reads;
      const auto seq = out.vm.publish_seq;
      stat_snapshot expect;
      fill(expect, seq);
      if (out.vm.sockets != expect.vm.sockets || out.vm.epoch != seq ||
          out.vm.published_ns != seq * 1000) {
        ++torn;
        continue;
      }
      for (std::uint64_t r = 0; r < out.vm.sockets; ++r) {
        const obs::nk_flow_info& info = out.rows[r].info;
        if (out.rows[r].fd != seq + r || info.srtt_ns != (seq ^ r) ||
            info.cwnd_bytes != seq + 2 * r || info.retransmits != seq ||
            info.bytes_in != seq * 3 + r) {
          ++torn;
          break;
        }
      }
    }
  });

  stat_snapshot snap;
  for (std::uint64_t seq = 1; seq <= publishes; ++seq) {
    fill(snap, seq);
    page.publish(snap);
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn, 0u);
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(page.version(), 2 * publishes);
  // The final snapshot is intact after the storm.
  stat_snapshot out;
  ASSERT_TRUE(page.read(out));
  EXPECT_EQ(out.vm.publish_seq, publishes);
}

TEST(hugepage_pool, exhaustion_toggle_fails_allocs_and_counts) {
  hugepage_pool pool{1, hugepage_config{.page_size = 64 * 1024,
                                        .page_count = 1,
                                        .chunk_size = 8 * 1024}};
  pool.set_exhausted(true);
  EXPECT_FALSE(pool.alloc());
  EXPECT_FALSE(pool.alloc());
  EXPECT_EQ(pool.failed_allocs(), 2u);
  EXPECT_EQ(pool.chunks_free(), pool.chunk_count());  // nothing handed out
  pool.set_exhausted(false);
  auto chunk = pool.alloc();
  ASSERT_TRUE(chunk);
  EXPECT_EQ(pool.failed_allocs(), 2u);
  EXPECT_TRUE(pool.free(chunk.value()).ok());
}

}  // namespace
}  // namespace nk::shm
