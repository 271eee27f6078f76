// Property-based tests (parameterized sweeps + randomized adversaries):
//   * TCP delivers an intact byte stream for every (loss rate, cc, size);
//   * reassembly reconstructs any random segmentation/ordering/duplication;
//   * the SPSC ring behaves like a queue under random operation sequences;
//   * token bucket never over-admits.
#include <gtest/gtest.h>

#include <deque>
#include <tuple>

#include "common/rng.hpp"
#include "common/token_bucket.hpp"
#include "shm/spsc_ring.hpp"
#include "tcp/reassembly.hpp"
#include "util/loopback.hpp"

namespace nk {
namespace {

// --- TCP stream integrity across the parameter grid ------------------------------------

using transfer_param = std::tuple<double /*loss*/, tcp::cc_algorithm,
                                  std::uint64_t /*bytes*/>;

class tcp_integrity : public ::testing::TestWithParam<transfer_param> {};

TEST_P(tcp_integrity, byte_stream_is_exact) {
  const auto [loss, cc, total] = GetParam();
  auto params = test::lan_params(
      static_cast<std::uint64_t>(loss * 1000) + total + static_cast<int>(cc));
  params.forward_loss = loss;
  tcp::tcp_config t = params.tcp_a;
  t.cc = cc;
  params.tcp_a = t;
  test::loopback net{params};

  stack::socket_id listener = net.b.listen(5001).value();
  stack::socket_id server_conn = 0;
  buffer_chain received;
  bool eof = false;
  net.b.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.type == stack::socket_event_type::accept_ready) {
      server_conn = net.b.accept(listener).value();
    } else if (ev.type == stack::socket_event_type::readable &&
               ev.sock == server_conn) {
      while (true) {
        auto r = net.b.recv(server_conn, 1 << 20);
        if (!r) {
          eof = r.error() == errc::closed;
          break;
        }
        received.append(std::move(r).value());
      }
    }
  });

  const auto conn = net.a.connect(net.addr_b(5001)).value();
  std::uint64_t queued = 0;
  auto push = [&, total = total] {
    while (queued < total) {
      auto r = net.a.send(
          conn, buffer::pattern(
                    std::min<std::uint64_t>(16 * 1024, total - queued),
                    queued));
      if (!r) break;
      queued += r.value();
    }
    if (queued >= total) (void)net.a.shutdown_write(conn);
  };
  net.a.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock == conn && (ev.type == stack::socket_event_type::connected ||
                            ev.type == stack::socket_event_type::writable)) {
      push();
    }
  });

  net.run_for(seconds(120));
  ASSERT_EQ(received.size(), total);
  EXPECT_TRUE(received.pop(total).matches_pattern(0));
  EXPECT_TRUE(eof);
}

std::string transfer_param_name(
    const ::testing::TestParamInfo<transfer_param>& info) {
  const double loss = std::get<0>(info.param);
  const tcp::cc_algorithm cc = std::get<1>(info.param);
  const std::uint64_t total = std::get<2>(info.param);
  return "loss" + std::to_string(static_cast<int>(loss * 100)) + "_" +
         std::string{to_string(cc)} + "_" + std::to_string(total) + "B";
}

INSTANTIATE_TEST_SUITE_P(
    grid, tcp_integrity,
    ::testing::Combine(
        ::testing::Values(0.0, 0.01, 0.05),
        ::testing::Values(tcp::cc_algorithm::newreno, tcp::cc_algorithm::cubic,
                          tcp::cc_algorithm::bbr),
        ::testing::Values(std::uint64_t{1}, std::uint64_t{64 * 1024},
                          std::uint64_t{512 * 1024})),
    transfer_param_name);

// --- reassembly under a random adversary ------------------------------------------------

class reassembly_fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(reassembly_fuzz, random_segmentation_reconstructs_stream) {
  rng random{GetParam()};
  constexpr std::uint64_t stream_len = 64 * 1024;

  // Cut the stream into random segments.
  struct seg {
    std::uint64_t at;
    std::uint64_t len;
  };
  std::vector<seg> segs;
  for (std::uint64_t at = 0; at < stream_len;) {
    const std::uint64_t len =
        std::min<std::uint64_t>(1 + random.next_below(4096), stream_len - at);
    segs.push_back({at, len});
    at += len;
  }
  // Shuffle, duplicate some, and overlap some.
  std::vector<seg> arrivals = segs;
  for (std::size_t i = arrivals.size(); i > 1; --i) {
    std::swap(arrivals[i - 1], arrivals[random.next_below(i)]);
  }
  const std::size_t original = arrivals.size();
  for (std::size_t i = 0; i < original; ++i) {
    if (random.chance(0.3)) arrivals.push_back(arrivals[i]);  // duplicates
    if (random.chance(0.2)) {
      // Overlapping segment spanning a boundary.
      const auto& s = arrivals[i];
      const std::uint64_t at = s.at > 100 ? s.at - 100 : 0;
      const std::uint64_t end =
          std::min<std::uint64_t>(s.at + s.len + 100, stream_len);
      arrivals.push_back({at, end - at});
    }
  }

  tcp::reassembly_buffer r;
  std::uint64_t next = 0;
  buffer_chain out;
  for (const auto& s : arrivals) {
    out.append(r.insert(s.at, buffer::pattern(s.len, s.at), next));
  }
  ASSERT_EQ(next, stream_len);
  ASSERT_EQ(out.size(), stream_len);
  EXPECT_TRUE(out.pop(stream_len).matches_pattern(0));
  EXPECT_TRUE(r.empty());
}

INSTANTIATE_TEST_SUITE_P(seeds, reassembly_fuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- SPSC ring vs reference deque ----------------------------------------------------------

class ring_fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ring_fuzz, behaves_like_a_bounded_queue) {
  rng random{GetParam()};
  shm::spsc_ring<std::uint64_t> ring{64};
  std::deque<std::uint64_t> model;
  std::uint64_t next_value = 0;

  for (int op = 0; op < 100000; ++op) {
    if (random.chance(0.55)) {
      const bool pushed = ring.try_push(next_value);
      const bool model_ok = model.size() < ring.capacity();
      ASSERT_EQ(pushed, model_ok);
      if (pushed) model.push_back(next_value);
      ++next_value;
    } else {
      std::uint64_t v = 0;
      const bool popped = ring.try_pop(v);
      ASSERT_EQ(popped, !model.empty());
      if (popped) {
        ASSERT_EQ(v, model.front());
        model.pop_front();
      }
    }
    ASSERT_EQ(ring.size_approx(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(seeds, ring_fuzz,
                         ::testing::Range<std::uint64_t>(1, 11));

// --- token bucket conservation -----------------------------------------------------------

class bucket_fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(bucket_fuzz, never_admits_faster_than_rate_plus_burst) {
  rng random{GetParam()};
  const auto rate = data_rate::mbps(100);
  constexpr std::uint64_t burst = 64 * 1024;
  token_bucket tb{rate, burst};

  sim_time now{};
  std::uint64_t admitted = 0;
  for (int i = 0; i < 20000; ++i) {
    now += nanoseconds(static_cast<std::int64_t>(random.next_below(20000)));
    const std::uint64_t ask = 1 + random.next_below(8000);
    if (tb.try_consume(now, ask)) admitted += ask;
    // Invariant: total admitted <= burst + rate * elapsed (with slack for
    // the fractional-token epsilon).
    const double bound = static_cast<double>(burst) + rate.bytes_in(now) + 1.0;
    ASSERT_LE(static_cast<double>(admitted), bound);
  }
  EXPECT_GT(admitted, 0u);
}

INSTANTIATE_TEST_SUITE_P(seeds, bucket_fuzz,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace nk
