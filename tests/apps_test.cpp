// apps-layer tests: the unified socket_api must behave identically over the
// legacy in-guest stack and over NetKernel (parameterized conformance
// suite), and the workload generators must report sane numbers.
#include <gtest/gtest.h>

#include "apps/flowgen.hpp"
#include "apps/scenario.hpp"
#include "apps/workloads.hpp"

namespace nk::apps {
namespace {

enum class impl { native, netkernel };

// One testbed with a client/server api pair on the chosen architecture.
struct rig {
  rig(impl which, std::uint64_t seed) : bed{datacenter_params(seed)} {
    if (which == impl::netkernel) {
      core::nsm_config nsm_cfg;
      nsm_cfg.tcp = datacenter_tcp(tcp::cc_algorithm::cubic);
      virt::vm_config vm_cfg;
      vm_cfg.name = "client-vm";
      auto c = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
      vm_cfg.name = "server-vm";
      nsm_cfg.name = "nsm-b";
      auto s = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
      server_addr = s.module->config().address;
      client = std::move(c.api);
      server = std::move(s.api);
    } else {
      virt::vm_config cfg;
      cfg.guest_stack.tcp = datacenter_tcp(tcp::cc_algorithm::cubic);
      cfg.name = "client-vm";
      auto c = bed.add_legacy_vm(side::a, cfg);
      cfg.name = "server-vm";
      auto s = bed.add_legacy_vm(side::b, cfg);
      server_addr = s.vm->address();
      client = std::move(c.api);
      server = std::move(s.api);
    }
  }

  testbed bed;
  std::unique_ptr<socket_api> client;
  std::unique_ptr<socket_api> server;
  net::ipv4_addr server_addr;
};

class api_conformance : public ::testing::TestWithParam<impl> {};

TEST_P(api_conformance, connect_send_recv_close) {
  rig r{GetParam(), 61};
  auto& srv = *r.server;
  auto& cli = *r.client;

  const app_socket listener = srv.open().value();
  ASSERT_TRUE(srv.bind(listener, 6000).ok());
  ASSERT_TRUE(srv.listen(listener).ok());

  app_socket server_conn = 0;
  buffer_chain received;
  bool saw_eof = false;
  srv.on_event(listener, [&](app_socket, app_event t, errc) {
    if (t == app_event::accept_ready) {
      server_conn = srv.accept(listener).value();
      srv.on_event(server_conn, [&](app_socket s, app_event t2, errc) {
        if (t2 != app_event::readable) return;
        while (true) {
          auto data = srv.recv(s, 1 << 20);
          if (!data) {
            saw_eof = data.error() == errc::closed;
            break;
          }
          received.append(std::move(data).value());
        }
      });
    }
  });

  const app_socket sock = cli.open().value();
  cli.on_event(sock, [&](app_socket s, app_event t, errc) {
    if (t == app_event::connected) {
      (void)cli.send(s, buffer::pattern(30000, 0));
    }
  });
  ASSERT_TRUE(cli.connect(sock, {r.server_addr, 6000}).ok());
  r.bed.run_for(milliseconds(50));
  ASSERT_TRUE(cli.close(sock).ok());
  r.bed.run_for(milliseconds(100));

  EXPECT_EQ(received.size(), 30000u);
  EXPECT_TRUE(received.pop(30000).matches_pattern(0));
  EXPECT_TRUE(saw_eof);
}

TEST_P(api_conformance, recv_before_data_would_block) {
  rig r{GetParam(), 62};
  const app_socket listener = r.server->open().value();
  ASSERT_TRUE(r.server->bind(listener, 6000).ok());
  ASSERT_TRUE(r.server->listen(listener).ok());
  const app_socket sock = r.client->open().value();
  ASSERT_TRUE(r.client->connect(sock, {r.server_addr, 6000}).ok());
  r.bed.run_for(milliseconds(20));
  EXPECT_EQ(r.client->recv(sock, 100).error(), errc::would_block);
}

TEST_P(api_conformance, accept_empty_would_block) {
  rig r{GetParam(), 63};
  const app_socket listener = r.server->open().value();
  ASSERT_TRUE(r.server->bind(listener, 6000).ok());
  ASSERT_TRUE(r.server->listen(listener).ok());
  r.bed.run_for(milliseconds(5));
  EXPECT_EQ(r.server->accept(listener).error(), errc::would_block);
}

TEST_P(api_conformance, per_socket_cc_override_applies) {
  rig r{GetParam(), 64};
  const app_socket listener = r.server->open().value();
  ASSERT_TRUE(r.server->bind(listener, 6000).ok());
  ASSERT_TRUE(r.server->listen(listener).ok());
  const app_socket sock = r.client->open().value();
  ASSERT_TRUE(
      r.client->set_congestion_control(sock, tcp::cc_algorithm::bbr).ok());
  ASSERT_TRUE(r.client->connect(sock, {r.server_addr, 6000}).ok());
  r.bed.run_for(milliseconds(20));
  // Connection works with the overridden stack (data flows, no errors).
  ASSERT_TRUE(r.client->send(sock, buffer::pattern(1000, 0)).ok());
  r.bed.run_for(milliseconds(20));
  EXPECT_FALSE(r.client->eof(sock));
}

INSTANTIATE_TEST_SUITE_P(both_architectures, api_conformance,
                         ::testing::Values(impl::native, impl::netkernel),
                         [](const ::testing::TestParamInfo<impl>& info) {
                           return info.param == impl::native ? "native"
                                                             : "netkernel";
                         });

// --- scenario presets --------------------------------------------------------------

// A held ACK (delayed for a 2nd segment or for the reply) must reach the
// peer before its RTO can fire.
TEST(scenario, delayed_ack_timeout_stays_below_min_rto) {
  for (const auto& cfg : {datacenter_tcp(tcp::cc_algorithm::cubic),
                          wan_tcp(tcp::cc_algorithm::cubic)}) {
    EXPECT_LT(cfg.delayed_ack_timeout, cfg.rto.min_rto);
  }
}

// --- workload generators ---------------------------------------------------------

TEST(workloads, bulk_sender_finishes_fixed_volume) {
  rig r{impl::native, 71};
  bulk_sink sink{*r.server, 5001, true};
  sink.start();
  bulk_sender_config cfg;
  cfg.flows = 3;
  cfg.bytes_per_flow = 300000;
  bulk_sender sender{*r.client, {r.server_addr, 5001}, cfg};
  sender.start();
  r.bed.run_for(milliseconds(300));
  EXPECT_EQ(sender.flows_done(), 3);
  EXPECT_EQ(sender.bytes_sent(), 900000u);
  EXPECT_EQ(sink.total_bytes(), 900000u);
  EXPECT_TRUE(sink.pattern_ok());
  EXPECT_EQ(sink.flows_finished(), 3u);
}

TEST(workloads, rpc_client_counts_and_latencies_consistent) {
  rig r{impl::native, 72};
  echo_server echo{*r.server, 5002};
  echo.start();
  rpc_client_config cfg;
  cfg.request_size = 256;
  cfg.requests = 50;
  cfg.think_time = microseconds(100);
  rpc_client rpc{*r.client, r.bed.sim(), {r.server_addr, 5002}, cfg};
  rpc.start();
  r.bed.run_for(milliseconds(500));
  EXPECT_TRUE(rpc.finished());
  EXPECT_EQ(rpc.completed(), 50);
  EXPECT_EQ(rpc.latencies_us().size(), 50u);
  EXPECT_GT(rpc.latencies_us().min(), 0.0);
  EXPECT_GE(rpc.latencies_us().max(), rpc.latencies_us().median());
  EXPECT_EQ(echo.bytes_echoed(), 50u * 256);
}

TEST(workloads, incast_round_completes_and_counts) {
  rig r{impl::native, 74};
  incast_config cfg;
  cfg.fanout = 8;
  cfg.response_size = 16 * 1024;
  cfg.queries = 5;
  incast_worker_service workers{*r.server, 7000, cfg.response_size};
  workers.start();
  incast_aggregator agg{*r.client, r.bed.sim(), {r.server_addr, 7000}, cfg};
  agg.start();
  r.bed.run_for(seconds(1));
  EXPECT_TRUE(agg.finished());
  EXPECT_EQ(agg.completed(), 5);
  EXPECT_EQ(agg.query_us().size(), 5u);
  EXPECT_EQ(workers.queries_served(), 5 * 8);
  EXPECT_GT(agg.query_us().min(), 0.0);
}

TEST(workloads, incast_fct_grows_with_fanout) {
  auto median_for = [](int fanout) {
    rig r{impl::native, 75};
    incast_config cfg;
    cfg.fanout = fanout;
    cfg.response_size = 32 * 1024;
    cfg.queries = 5;
    incast_worker_service workers{*r.server, 7000, cfg.response_size};
    workers.start();
    incast_aggregator agg{*r.client, r.bed.sim(), {r.server_addr, 7000},
                          cfg};
    agg.start();
    r.bed.run_for(seconds(2));
    EXPECT_TRUE(agg.finished());
    return agg.query_us().median();
  };
  // More colliding responses take longer to drain through the bottleneck.
  EXPECT_LT(median_for(4), median_for(16));
}

TEST(workloads, churn_completes_every_connection) {
  rig r{impl::native, 73};
  echo_server echo{*r.server, 5003};
  echo.start();
  churn_config cfg;
  cfg.connections = 25;
  cfg.message_size = 64;
  churn_client churn{*r.client, r.bed.sim(), {r.server_addr, 5003}, cfg};
  churn.start();
  r.bed.run_for(seconds(2));
  EXPECT_TRUE(churn.finished());
  EXPECT_EQ(churn.completion_us().size(), 25u);
}

// --- flow generator ----------------------------------------------------------------

TEST(flowgen, size_samplers_match_published_shape) {
  rng random{99};
  int ws_mice = 0;
  int dm_mice = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (classify(sample_flow_size(flow_mix::websearch, random)) ==
        size_class::mice) {
      ++ws_mice;
    }
    if (classify(sample_flow_size(flow_mix::datamining, random)) ==
        size_class::mice) {
      ++dm_mice;
    }
  }
  // Web-search: roughly half the flows are mice; data-mining: the vast
  // majority are.
  EXPECT_NEAR(static_cast<double>(ws_mice) / n, 0.5, 0.1);
  EXPECT_GT(static_cast<double>(dm_mice) / n, 0.85);
}

TEST(flowgen, classify_boundaries) {
  EXPECT_EQ(classify(1), size_class::mice);
  EXPECT_EQ(classify(100 * 1024 - 1), size_class::mice);
  EXPECT_EQ(classify(100 * 1024), size_class::medium);
  EXPECT_EQ(classify(10 * 1024 * 1024), size_class::elephants);
}

TEST(flowgen, flows_complete_and_fcts_recorded) {
  rig r{impl::native, 81};
  flow_sink sink{*r.server, 7100};
  sink.sim = &r.bed.sim();
  sink.start();

  flowgen_config cfg;
  cfg.mix = flow_mix::uniform;
  cfg.flows = 40;
  cfg.arrivals_per_sec = 5000;
  cfg.seed = 4;
  flow_generator gen{*r.client, r.bed.sim(), {r.server_addr, 7100}, cfg};
  gen.start();

  r.bed.run_for(seconds(2));
  EXPECT_EQ(gen.launched(), 40);
  EXPECT_EQ(gen.finished_sending(), 40);
  EXPECT_EQ(sink.completed(), 40);
  EXPECT_EQ(sink.total_bytes(), gen.bytes_offered());
  // Uniform mix (<= 64 KB) lands entirely in the mice class.
  EXPECT_EQ(sink.fct_us(size_class::mice).size(), 40u);
  EXPECT_GT(sink.fct_us(size_class::mice).min(), 0.0);
}

TEST(flowgen, poisson_arrivals_spread_over_time) {
  rig r{impl::native, 82};
  flow_sink sink{*r.server, 7100};
  sink.sim = &r.bed.sim();
  sink.start();

  flowgen_config cfg;
  cfg.mix = flow_mix::uniform;
  cfg.flows = 20;
  cfg.arrivals_per_sec = 100;  // mean gap 10 ms
  flow_generator gen{*r.client, r.bed.sim(), {r.server_addr, 7100}, cfg};
  gen.start();

  r.bed.run_for(milliseconds(50));
  const int early = gen.launched();
  r.bed.run_for(milliseconds(400));
  // Arrivals are spread out, not front-loaded.
  EXPECT_LT(early, 20);
  EXPECT_GT(gen.launched(), early);
}

}  // namespace
}  // namespace nk::apps
