// Congestion-controller unit tests: each algorithm's response to synthetic
// ACK/loss streams, plus end-to-end sanity for every algorithm on the
// loopback rig.
#include <gtest/gtest.h>

#include "tcp/cc/bbr.hpp"
#include "tcp/cc/compound.hpp"
#include "tcp/cc/congestion_controller.hpp"
#include "tcp/cc/cubic.hpp"
#include "tcp/cc/dctcp.hpp"
#include "tcp/cc/newreno.hpp"
#include "util/loopback.hpp"

namespace nk::tcp {
namespace {

constexpr std::uint32_t mss = 1000;

ack_sample make_ack(sim_time now, std::uint64_t acked, sim_time rtt,
                    std::uint64_t delivered, std::uint64_t round = 1) {
  ack_sample a;
  a.now = now;
  a.acked_bytes = acked;
  a.rtt = rtt;
  a.min_rtt = rtt;
  a.delivered = delivered;
  a.round_trips = round;
  return a;
}

// --- factory -----------------------------------------------------------------------

TEST(cc_factory, parses_names) {
  EXPECT_EQ(parse_cc_algorithm("cubic"), cc_algorithm::cubic);
  EXPECT_EQ(parse_cc_algorithm("bbr"), cc_algorithm::bbr);
  EXPECT_EQ(parse_cc_algorithm("ctcp"), cc_algorithm::compound);
  EXPECT_EQ(parse_cc_algorithm("reno"), cc_algorithm::newreno);
  EXPECT_EQ(parse_cc_algorithm("dctcp"), cc_algorithm::dctcp);
  EXPECT_FALSE(parse_cc_algorithm("vegas").has_value());
}

TEST(cc_factory, constructs_each_algorithm) {
  for (auto algo : {cc_algorithm::newreno, cc_algorithm::cubic,
                    cc_algorithm::bbr, cc_algorithm::compound,
                    cc_algorithm::dctcp}) {
    auto cc = make_congestion_controller(algo, mss);
    ASSERT_NE(cc, nullptr);
    EXPECT_EQ(cc->name(), to_string(algo));
    EXPECT_GE(cc->cwnd_bytes(), mss);
  }
}

// --- NewReno -----------------------------------------------------------------------

TEST(newreno_cc, slow_start_doubles_per_rtt) {
  newreno cc{mss};
  const auto initial = cc.cwnd_bytes();
  // One RTT's worth of ACKs: every acked byte grows cwnd by a byte.
  std::uint64_t delivered = 0;
  for (int i = 0; i < 10; ++i) {
    delivered += 1000;
    cc.on_ack(make_ack(milliseconds(i), 1000, milliseconds(10), delivered));
  }
  EXPECT_EQ(cc.cwnd_bytes(), initial + 10000);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(newreno_cc, congestion_avoidance_adds_one_mss_per_window) {
  newreno cc{mss};
  cc.on_fast_retransmit({milliseconds(1), 20000});  // forces ssthresh
  const auto cwnd0 = cc.cwnd_bytes();
  EXPECT_FALSE(cc.in_slow_start());
  // Ack exactly one full window: +1 MSS.
  std::uint64_t delivered = 0;
  std::uint64_t target = cwnd0;
  while (delivered < target) {
    delivered += 1000;
    cc.on_ack(make_ack(milliseconds(2), 1000, milliseconds(10), delivered));
  }
  EXPECT_GE(cc.cwnd_bytes(), cwnd0 + 1000);
  EXPECT_LE(cc.cwnd_bytes(), cwnd0 + 2000);
}

TEST(newreno_cc, fast_retransmit_halves) {
  newreno cc{mss};
  cc.on_fast_retransmit({milliseconds(1), 20000});
  EXPECT_EQ(cc.cwnd_bytes(), 10000u);  // max(in_flight, cwnd/2) * 0.5
}

TEST(newreno_cc, rto_collapses_to_one_mss) {
  newreno cc{mss};
  cc.on_rto({milliseconds(1), 20000});
  EXPECT_EQ(cc.cwnd_bytes(), 1000u);
  EXPECT_EQ(cc.ssthresh_bytes(), 10000u);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(newreno_cc, no_growth_during_recovery) {
  newreno cc{mss};
  const auto before = cc.cwnd_bytes();
  auto a = make_ack(milliseconds(1), 1000, milliseconds(10), 1000);
  a.in_recovery = true;
  cc.on_ack(a);
  EXPECT_EQ(cc.cwnd_bytes(), before);
}

// --- CUBIC --------------------------------------------------------------------------

TEST(cubic_cc, reduces_by_beta_on_loss) {
  cubic cc{mss};
  // Grow a bit in slow start first.
  std::uint64_t delivered = 0;
  for (int i = 0; i < 50; ++i) {
    delivered += 1000;
    cc.on_ack(make_ack(milliseconds(i), 1000, milliseconds(10), delivered));
  }
  const auto before = cc.cwnd_bytes();
  cc.on_fast_retransmit({milliseconds(60), before});
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()),
              static_cast<double>(before) * 0.7,
              static_cast<double>(mss));
}

TEST(cubic_cc, grows_toward_wmax_after_loss) {
  cubic cc{mss};
  std::uint64_t delivered = 0;
  for (int i = 0; i < 100; ++i) {
    delivered += 1000;
    cc.on_ack(make_ack(milliseconds(i), 1000, milliseconds(10), delivered));
  }
  const auto w_max = cc.cwnd_bytes();
  cc.on_fast_retransmit({milliseconds(100), w_max});
  const auto floor = cc.cwnd_bytes();

  // Feed ACKs over simulated seconds: cubic growth recovers toward w_max.
  for (int t = 0; t < 4000; ++t) {
    delivered += 1000;
    cc.on_ack(make_ack(milliseconds(101 + t), 1000, milliseconds(10),
                       delivered, 2));
  }
  EXPECT_GT(cc.cwnd_bytes(), floor);
  EXPECT_GE(cc.cwnd_bytes(), w_max * 9 / 10);
}

TEST(cubic_cc, rto_resets_to_one_segment) {
  cubic cc{mss};
  cc.on_rto({milliseconds(1), 10000});
  EXPECT_EQ(cc.cwnd_bytes(), 1000u);
}

// --- BBR ---------------------------------------------------------------------------

TEST(bbr_cc, startup_exits_when_bandwidth_plateaus) {
  bbr cc{mss};
  cc.on_established(sim_time::zero());
  EXPECT_EQ(cc.state(), bbr::mode::startup);

  // Constant delivery rate over several rounds: full pipe detected.
  std::uint64_t delivered = 0;
  for (std::uint64_t round = 1; round <= 6; ++round) {
    delivered += 10000;
    auto a = make_ack(milliseconds(10 * round), 10000, milliseconds(10),
                      delivered, round);
    a.delivery_rate = 1e6;  // 1 MB/s, flat
    cc.on_ack(a);
  }
  EXPECT_NE(cc.state(), bbr::mode::startup);
}

TEST(bbr_cc, tracks_bottleneck_bandwidth) {
  bbr cc{mss};
  cc.on_established(sim_time::zero());
  auto a = make_ack(milliseconds(10), 10000, milliseconds(10), 10000, 1);
  a.delivery_rate = 5e6;
  cc.on_ack(a);
  EXPECT_DOUBLE_EQ(cc.bottleneck_bw_bytes_per_sec(), 5e6);
  // App-limited lower samples do not pollute the max filter.
  auto limited = make_ack(milliseconds(20), 10000, milliseconds(10), 20000, 2);
  limited.delivery_rate = 1e6;
  limited.rate_app_limited = true;
  cc.on_ack(limited);
  EXPECT_DOUBLE_EQ(cc.bottleneck_bw_bytes_per_sec(), 5e6);
}

TEST(bbr_cc, cwnd_is_gain_times_bdp) {
  bbr cc{mss};
  cc.on_established(sim_time::zero());
  // Drive to probe_bw with stable 5 MB/s, 10 ms RTT -> BDP = 50 KB.
  std::uint64_t delivered = 0;
  for (std::uint64_t round = 1; round <= 10; ++round) {
    delivered += 50000;
    auto a = make_ack(milliseconds(10 * round), 50000, milliseconds(10),
                      delivered, round);
    a.delivery_rate = 5e6;
    a.in_flight = 40000;
    cc.on_ack(a);
  }
  EXPECT_EQ(cc.state(), bbr::mode::probe_bw);
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), 2.0 * 50000, 5000);
  EXPECT_GT(cc.pacing_rate().bps(), 0.0);
}

TEST(bbr_cc, ignores_isolated_loss) {
  bbr cc{mss};
  cc.on_established(sim_time::zero());
  auto a = make_ack(milliseconds(10), 10000, milliseconds(10), 10000, 1);
  a.delivery_rate = 5e6;
  cc.on_ack(a);
  const auto cwnd = cc.cwnd_bytes();
  cc.on_fast_retransmit({milliseconds(11), 10000});
  EXPECT_EQ(cc.cwnd_bytes(), cwnd);  // loss is not a signal for BBR v1
}

TEST(bbr_cc, probe_rtt_after_min_rtt_expiry) {
  bbr cc{mss};
  cc.on_established(sim_time::zero());
  std::uint64_t delivered = 0;
  bool visited_probe_rtt = false;
  std::uint64_t cwnd_in_probe = 0;
  // Run 15 seconds without a new min-RTT sample at or below the first; the
  // 10 s window must expire and force a probe_rtt visit.
  for (int i = 1; i <= 150; ++i) {
    delivered += 10000;
    auto a = make_ack(milliseconds(100 * i), 10000, milliseconds(20),
                      delivered, static_cast<std::uint64_t>(i));
    a.delivery_rate = 1e6;
    // The first sample sets the min; every later one is strictly higher
    // (queueing built up), so the min-RTT window must eventually expire.
    a.rtt = i == 1 ? milliseconds(20) : milliseconds(25) + milliseconds(i % 3);
    cc.on_ack(a);
    if (cc.state() == bbr::mode::probe_rtt) {
      visited_probe_rtt = true;
      cwnd_in_probe = cc.cwnd_bytes();
    }
  }
  EXPECT_TRUE(visited_probe_rtt);
  // During probe_rtt the window collapses to the 4-segment floor.
  EXPECT_EQ(cwnd_in_probe, 4u * mss);
  // And it exits again (back to probing for bandwidth).
  EXPECT_NE(cc.state(), bbr::mode::probe_rtt);
}

// --- Compound -----------------------------------------------------------------------

TEST(compound_cc, delay_window_grows_on_uncongested_path) {
  compound cc{mss};
  // Force congestion avoidance so dwnd logic engages.
  cc.on_fast_retransmit({milliseconds(0), 20000});
  std::uint64_t delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    delivered += 1000;
    // rtt == base rtt: no queueing observed.
    cc.on_ack(make_ack(milliseconds(i), 1000, milliseconds(50), delivered));
  }
  EXPECT_GT(cc.delay_window_segments(), 0.0);
}

TEST(compound_cc, delay_window_retreats_under_queueing) {
  compound cc{mss};
  cc.on_fast_retransmit({milliseconds(0), 20000});
  std::uint64_t delivered = 0;
  // Establish base RTT.
  for (int i = 0; i < 500; ++i) {
    delivered += 1000;
    cc.on_ack(make_ack(milliseconds(i), 1000, milliseconds(50), delivered));
  }
  const double grown = cc.delay_window_segments();
  // Now RTT inflates 4x: queueing detected, dwnd must fall.
  for (int i = 500; i < 1500; ++i) {
    delivered += 1000;
    cc.on_ack(make_ack(milliseconds(i), 1000, milliseconds(200), delivered));
  }
  EXPECT_LT(cc.delay_window_segments(), grown);
}

TEST(compound_cc, loss_reduces_total_window) {
  compound cc{mss};
  std::uint64_t delivered = 0;
  for (int i = 0; i < 100; ++i) {
    delivered += 1000;
    cc.on_ack(make_ack(milliseconds(i), 1000, milliseconds(50), delivered));
  }
  const auto before = cc.cwnd_bytes();
  cc.on_fast_retransmit({milliseconds(100), before});
  EXPECT_LT(cc.cwnd_bytes(), before);
  EXPECT_GE(cc.cwnd_bytes(), 2 * mss);
}

// --- DCTCP -------------------------------------------------------------------------

TEST(dctcp_cc, wants_ecn) {
  dctcp cc{mss};
  EXPECT_TRUE(cc.wants_ecn());
  newreno plain{mss};
  EXPECT_FALSE(plain.wants_ecn());
}

TEST(dctcp_cc, alpha_tracks_marking_fraction) {
  dctcp cc{mss};
  // Pin the window to congestion-avoidance scale so alpha updates (once per
  // cwnd of delivered data) happen often, as they would on a real path.
  cc.on_fast_retransmit({sim_time::zero(), 20000});
  std::uint64_t delivered = 0;
  // No marks for many windows: alpha decays from 1 toward 0.
  for (int i = 0; i < 2000; ++i) {
    delivered += 1000;
    cc.on_ack(make_ack(milliseconds(i), 1000, milliseconds(1), delivered));
  }
  EXPECT_LT(cc.alpha(), 0.1);

  // Now every ACK carries ECE: alpha climbs toward 1.
  for (int i = 0; i < 4000; ++i) {
    delivered += 1000;
    auto a = make_ack(milliseconds(2000 + i), 1000, milliseconds(1), delivered);
    a.ece = true;
    cc.on_ack(a);
  }
  EXPECT_GT(cc.alpha(), 0.5);
}

TEST(dctcp_cc, proportional_decrease_is_gentler_than_halving) {
  dctcp cc{mss};
  cc.on_fast_retransmit({sim_time::zero(), 20000});  // bounded window
  std::uint64_t delivered = 0;
  // Decay alpha with a clean period first.
  for (int i = 0; i < 3000; ++i) {
    delivered += 1000;
    cc.on_ack(make_ack(milliseconds(i), 1000, milliseconds(1), delivered));
  }
  const double alpha = cc.alpha();
  const auto before = cc.cwnd_bytes();
  // One window with sparse marks.
  for (int i = 0; i < 64; ++i) {
    auto a = make_ack(milliseconds(3000 + i), 1000, milliseconds(1),
                      delivered += 1000);
    a.ece = (i % 16 == 0);
    cc.on_ack(a);
  }
  // With tiny alpha the reduction is far less than half.
  EXPECT_GT(cc.cwnd_bytes(), before / 2);
  EXPECT_LT(alpha, 0.2);
}

// --- end-to-end sanity: every controller moves data with integrity -----------------------

class cc_e2e : public ::testing::TestWithParam<cc_algorithm> {};

TEST_P(cc_e2e, lossy_transfer_completes_with_integrity) {
  auto params = test::lan_params(2024);
  params.forward_loss = 0.01;
  tcp::tcp_config t = params.tcp_a;
  t.cc = GetParam();
  params.tcp_a = t;
  test::loopback net{params};

  stack::socket_id listener = net.b.listen(5001).value();
  stack::socket_id server_conn = 0;
  buffer_chain received;
  net.b.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.type == stack::socket_event_type::accept_ready) {
      server_conn = net.b.accept(listener).value();
    } else if (ev.type == stack::socket_event_type::readable &&
               ev.sock == server_conn) {
      while (auto r = net.b.recv(server_conn, 1 << 20)) {
        received.append(std::move(r).value());
      }
    }
  });

  const auto conn = net.a.connect(net.addr_b(5001)).value();
  constexpr std::uint64_t total = 256 * 1024;
  std::uint64_t queued = 0;
  auto push = [&] {
    while (queued < total) {
      auto r = net.a.send(conn, buffer::pattern(
                                    std::min<std::uint64_t>(
                                        32 * 1024, total - queued),
                                    queued));
      if (!r) break;
      queued += r.value();
    }
  };
  net.a.set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock == conn && (ev.type == stack::socket_event_type::connected ||
                            ev.type == stack::socket_event_type::writable)) {
      push();
    }
  });

  net.run_for(seconds(60));
  ASSERT_EQ(received.size(), total) << to_string(GetParam());
  EXPECT_TRUE(received.pop(total).matches_pattern(0));
}

INSTANTIATE_TEST_SUITE_P(
    all_algorithms, cc_e2e,
    ::testing::Values(cc_algorithm::newreno, cc_algorithm::cubic,
                      cc_algorithm::bbr, cc_algorithm::compound,
                      cc_algorithm::dctcp),
    [](const ::testing::TestParamInfo<cc_algorithm>& info) {
      return std::string{to_string(info.param)};
    });

}  // namespace
}  // namespace nk::tcp
