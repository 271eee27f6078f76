// Unit tests for src/common: buffers, chains, rng, stats, token bucket,
// units.
#include <gtest/gtest.h>

#include "common/buffer.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/token_bucket.hpp"
#include "common/units.hpp"
#include "shm/steering.hpp"

namespace nk {
namespace {

TEST(units, transmission_time_is_exact_for_round_rates) {
  const auto rate = data_rate::gbps(40);
  // 5000 bytes at 40 Gb/s = 1 us.
  EXPECT_EQ(rate.transmission_time(5000), microseconds(1));
}

TEST(units, rate_of_inverts_transmission) {
  const auto rate = rate_of(1'000'000, milliseconds(1));
  EXPECT_DOUBLE_EQ(rate.bps(), 8e9);
}

TEST(units, zero_interval_rate_is_zero) {
  EXPECT_TRUE(rate_of(1000, sim_time::zero()).is_zero());
}

TEST(units, rate_arithmetic) {
  const auto r = data_rate::mbps(10) * 2.0 + data_rate::mbps(5);
  EXPECT_DOUBLE_EQ(r.bps(), 25e6);
  EXPECT_LT(data_rate::mbps(1), data_rate::mbps(2));
}

TEST(rng, deterministic_for_same_seed) {
  rng a{42};
  rng b{42};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(rng, different_seeds_diverge) {
  rng a{1};
  rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(rng, doubles_in_unit_interval) {
  rng r{7};
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(rng, chance_extremes) {
  rng r{7};
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(rng, chance_matches_probability) {
  rng r{11};
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (r.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(rng, exponential_mean) {
  rng r{13};
  double sum = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / trials, 5.0, 0.15);
}

// One splitmix64 finalizer feeds the rng seeding, the pattern bytes, flow
// steering and nkq's ids and tokens. These values pin it to the published
// splitmix64 outputs and pin what is derived from it.
TEST(hash, mix64_pins_rng_pattern_and_steering) {
  static_assert(mix64(0) == 0xe220a8397b1dcdafULL);  // splitmix64, seed 0
  EXPECT_EQ(mix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(mix64(0xdeadbeef), 0x4adfb90f68c9eb9bULL);

  const std::uint8_t bytes[] = {0xaf, 0xc1, 0xce, 0xed};
  for (std::uint64_t off = 0; off < 4; ++off) {
    EXPECT_EQ(buffer::pattern_byte(off), std::byte{bytes[off]});
  }
  EXPECT_EQ(buffer::pattern_byte(1000), std::byte{0x48});

  rng r{42};
  EXPECT_EQ(r.next_u64(), 0x15780b2e0c2ec716ULL);
  EXPECT_EQ(r.next_u64(), 0x6104d9866d113a7eULL);
  EXPECT_EQ(r.next_u64(), 0xae17533239e499a1ULL);

  const std::size_t shards[] = {0, 3, 2, 3, 1, 2, 3, 3};
  for (std::uint32_t fd = 0; fd < 8; ++fd) {
    EXPECT_EQ(shm::flow_shard(1, fd, 4), shards[fd]) << "fd " << fd;
  }
}

TEST(buffer, pattern_roundtrip) {
  const buffer b = buffer::pattern(4096, 1234);
  EXPECT_TRUE(b.matches_pattern(1234));
  EXPECT_FALSE(b.matches_pattern(1235));
}

TEST(buffer, slices_share_storage_and_match_offsets) {
  const buffer b = buffer::pattern(1000, 0);
  const buffer mid = b.slice(100, 200);
  EXPECT_EQ(mid.size(), 200u);
  EXPECT_TRUE(mid.matches_pattern(100));
}

TEST(buffer, slice_clamps_to_bounds) {
  const buffer b = buffer::pattern(10, 0);
  EXPECT_EQ(b.slice(5, 100).size(), 5u);
  EXPECT_TRUE(b.slice(10, 1).empty());
  EXPECT_TRUE(b.slice(99, 1).empty());
}

TEST(buffer, equality_compares_bytes) {
  EXPECT_EQ(buffer::pattern(64, 7), buffer::pattern(64, 7));
  EXPECT_FALSE(buffer::pattern(64, 7) == buffer::pattern(64, 8));
}

TEST(buffer_chain, append_and_pop_across_parts) {
  buffer_chain chain;
  chain.append(buffer::pattern(100, 0));
  chain.append(buffer::pattern(100, 100));
  chain.append(buffer::pattern(100, 200));
  EXPECT_EQ(chain.size(), 300u);

  const buffer head = chain.pop(150);
  EXPECT_EQ(head.size(), 150u);
  EXPECT_TRUE(head.matches_pattern(0));
  EXPECT_EQ(chain.size(), 150u);

  const buffer rest = chain.pop(1000);
  EXPECT_TRUE(rest.matches_pattern(150));
  EXPECT_TRUE(chain.empty());
}

TEST(buffer_chain, peek_does_not_consume) {
  buffer_chain chain;
  chain.append(buffer::pattern(64, 0));
  chain.append(buffer::pattern(64, 64));
  const buffer peeked = chain.peek(32, 64);
  EXPECT_TRUE(peeked.matches_pattern(32));
  EXPECT_EQ(chain.size(), 128u);
}

TEST(buffer_chain, splice_moves_everything) {
  buffer_chain a;
  buffer_chain b;
  a.append(buffer::pattern(10, 0));
  b.append(buffer::pattern(10, 10));
  b.append(buffer::pattern(10, 20));
  a.append(std::move(b));
  EXPECT_EQ(a.size(), 30u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(a.pop(30).matches_pattern(0));
}

TEST(buffer_chain, consume_partial_part) {
  buffer_chain chain;
  chain.append(buffer::pattern(100, 0));
  chain.consume(30);
  EXPECT_EQ(chain.size(), 70u);
  EXPECT_TRUE(chain.pop(70).matches_pattern(30));
}

TEST(result, value_and_error_paths) {
  result<int> ok{7};
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_EQ(ok.error(), errc::ok);

  result<int> bad{errc::would_block};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), errc::would_block);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(result, status_void) {
  status good{};
  EXPECT_TRUE(good.ok());
  status bad{errc::not_found};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(to_string(bad.error()), "not_found");
}

TEST(stats, running_moments) {
  running_stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);  // sample stddev
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(stats, percentiles) {
  sample_set s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.percentile(0), 1.0);
  EXPECT_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.0, 1.0);
  EXPECT_NEAR(s.percentile(99), 99.0, 1.0);
  s.add(1000);  // re-sorting after append must work
  EXPECT_EQ(s.max(), 1000.0);
}

TEST(stats, percentile_nearest_rank_edges) {
  // Empty set answers 0 for every p.
  sample_set empty;
  EXPECT_EQ(empty.percentile(0), 0.0);
  EXPECT_EQ(empty.percentile(50), 0.0);
  EXPECT_EQ(empty.percentile(100), 0.0);

  // A single sample is every percentile, including p = 0.
  sample_set one;
  one.add(42.0);
  EXPECT_EQ(one.percentile(0), 42.0);
  EXPECT_EQ(one.percentile(50), 42.0);
  EXPECT_EQ(one.percentile(99), 42.0);
  EXPECT_EQ(one.percentile(100), 42.0);
  EXPECT_EQ(one.p99(), 42.0);

  // Nearest rank on two samples: p50 is the FIRST sample (rank ceil(1)),
  // anything above 50 the second.
  sample_set two;
  two.add(10.0);
  two.add(20.0);
  EXPECT_EQ(two.percentile(0), 10.0);
  EXPECT_EQ(two.percentile(50), 10.0);
  EXPECT_EQ(two.percentile(50.1), 20.0);
  EXPECT_EQ(two.percentile(100), 20.0);

  // Out-of-range p clamps rather than indexing out of bounds.
  EXPECT_EQ(two.percentile(-5), 10.0);
  EXPECT_EQ(two.percentile(200), 20.0);

  // p99 over 1..200: rank ceil(0.99 * 200) = 198.
  sample_set big;
  for (int i = 1; i <= 200; ++i) big.add(i);
  EXPECT_EQ(big.p99(), 198.0);

  // All-equal samples: every percentile is that value, min == max.
  sample_set flat;
  for (int i = 0; i < 50; ++i) flat.add(7.5);
  EXPECT_EQ(flat.percentile(0), 7.5);
  EXPECT_EQ(flat.median(), 7.5);
  EXPECT_EQ(flat.p99(), 7.5);
  EXPECT_EQ(flat.percentile(100), 7.5);
  EXPECT_EQ(flat.min(), flat.max());
}

TEST(log, parse_log_level_names) {
  EXPECT_EQ(parse_log_level("trace"), log_level::trace);
  EXPECT_EQ(parse_log_level("DEBUG"), log_level::debug);
  EXPECT_EQ(parse_log_level("Info"), log_level::info);
  EXPECT_EQ(parse_log_level("warn"), log_level::warn);
  EXPECT_EQ(parse_log_level("ERROR"), log_level::error);
  EXPECT_EQ(parse_log_level("off"), log_level::off);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_log_level("warning"), std::nullopt);  // exact names only
}

TEST(log, set_level_overrides_and_restores) {
  const log_level before = current_log_level();
  set_log_level(log_level::error);
  EXPECT_EQ(current_log_level(), log_level::error);
  set_log_level(before);
  EXPECT_EQ(current_log_level(), before);
}

// Restores logger globals (level, clock, limiter buckets) on exit so the
// limiter test cannot leak state into later tests.
struct limiter_fixture {
  log_level level = current_log_level();
  ~limiter_fixture() {
    reset_log_rate_limiter();
    set_log_clock(nullptr);
    set_log_level(level);
  }
};

TEST(log, warn_rate_limiter_suppresses_repeats) {
  limiter_fixture restore;
  set_log_level(log_level::warn);
  std::int64_t fake_ns = 0;
  set_log_clock([&fake_ns] { return fake_ns; });
  reset_log_rate_limiter();
  ASSERT_EQ(log_warn_burst, 8.0);

  testing::internal::CaptureStderr();

  // The burst passes, the flood behind it is swallowed.
  for (int i = 0; i < 15; ++i) log_warn("hot path warning");
  EXPECT_EQ(log_emitted_total(), 8u);
  EXPECT_EQ(log_suppressed_total(), 7u);

  // A different message text has its own bucket.
  log_warn("unrelated warning");
  EXPECT_EQ(log_emitted_total(), 9u);
  EXPECT_EQ(log_suppressed_total(), 7u);

  // error is never limited, and does not feed the warn counters.
  log_error("hot path warning");
  EXPECT_EQ(log_suppressed_total(), 7u);

  // One refill interval later a token is back; the first line through is
  // annotated with how many lines were swallowed meanwhile.
  fake_ns += log_warn_refill_ns;
  log_warn("hot path warning");
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("hot path warning"), std::string::npos);
  EXPECT_NE(err.find("[suppressed 7 similar]"), std::string::npos);
  EXPECT_EQ(log_emitted_total(), 10u);

  // The single refilled token is spent: the next repeat is suppressed again.
  log_warn("hot path warning");
  EXPECT_EQ(log_emitted_total(), 10u);
  EXPECT_EQ(log_suppressed_total(), 8u);
}

TEST(token_bucket, starts_full_and_refills) {
  token_bucket tb{data_rate::mbps(8), 1000};  // 1 MB/s, 1000 B burst
  EXPECT_TRUE(tb.try_consume(sim_time::zero(), 1000));
  EXPECT_FALSE(tb.try_consume(sim_time::zero(), 1));
  // After 1 ms, 1000 bytes accumulated.
  EXPECT_TRUE(tb.try_consume(milliseconds(1), 1000));
}

TEST(token_bucket, next_available_is_consistent) {
  token_bucket tb{data_rate::mbps(8), 1000};
  EXPECT_TRUE(tb.try_consume(sim_time::zero(), 1000));
  const sim_time when = tb.next_available(sim_time::zero(), 500);
  EXPECT_GE(when, microseconds(499));
  EXPECT_TRUE(tb.try_consume(when, 500));
}

TEST(token_bucket, burst_caps_accumulation) {
  token_bucket tb{data_rate::mbps(8), 1000};
  EXPECT_NEAR(tb.tokens_at(seconds(100)), 1000.0, 1e-6);
}

}  // namespace
}  // namespace nk
