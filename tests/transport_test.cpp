// Transport-plugin framework (DESIGN.md §15): the contract over both
// transports, config errors, and the transport-tagged flow table.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "nkq/transport.hpp"
#include "util/loopback.hpp"

namespace {

using namespace nk;
using apps::side;

// The contract over both implementations: netstack itself ("tcp") and
// nkq_transport riding the netstacks' UDP plane ("nkq"), each pair joined by
// a 10 Gb/s LAN cable.
class transport_contract : public ::testing::TestWithParam<std::string> {
 protected:
  transport_contract() {
    if (GetParam() == "nkq") {
      qa_ = std::make_unique<nkq::nkq_transport>(net_.a);
      qb_ = std::make_unique<nkq::nkq_transport>(net_.b);
      a_ = qa_.get();
      b_ = qb_.get();
    }
    net_.a.register_metrics(reg_, "stack_a");
    net_.b.register_metrics(reg_, "stack_b");
    if (qa_) {
      qa_->register_metrics(reg_, "nkq_a");
      qb_->register_metrics(reg_, "nkq_b");
    }
  }

  // Sockets either side still holds: the stacks' (nkq's own UDP sockets
  // included) plus nkq's connections.
  [[nodiscard]] double open_sockets() const {
    double n = 0;
    for (const char* g : {"stack_a_open_sockets", "stack_b_open_sockets",
                          "nkq_a_connections", "nkq_b_connections"}) {
      n += reg_.value_of(g).value_or(0.0);
    }
    return n;
  }

  test::loopback net_{test::lan_params(5)};
  std::unique_ptr<nkq::nkq_transport> qa_;
  std::unique_ptr<nkq::nkq_transport> qb_;
  stack::transport* a_ = &net_.a;
  stack::transport* b_ = &net_.b;
  obs::metrics_registry reg_;
};

TEST_P(transport_contract, echo_counts_and_abort_of_each_socket_kind) {
  EXPECT_EQ(a_->kind(), GetParam());
  constexpr std::size_t total = 32 * 1024;
  const stack::socket_id listener = b_->listen(7000).value();
  EXPECT_EQ(b_->accept(listener).error(), errc::would_block);
  const stack::socket_id client = a_->connect(net_.addr_b(7000)).value();

  // Server: accept and echo every byte back.
  stack::socket_id server = 0;
  b_->set_event_handler([&](const stack::socket_event& ev) {
    if (ev.type == stack::socket_event_type::accept_ready) {
      if (auto s = b_->accept(listener); s.ok()) {
        server = s.value();
        EXPECT_EQ(b_->remote_of(server)->ip, net_.addr_a(0).ip);
      }
    }
    if (server == 0) return;
    for (auto r = b_->recv(server, total); r.ok();
         r = b_->recv(server, total)) {
      const std::size_t n = r.value().size();
      EXPECT_EQ(b_->send(server, std::move(r).value()).value(), n);
    }
  });

  // Client: send the pattern once connected, read the echo, and watch the
  // send-side counts.
  buffer_chain echoed;
  bool sent = false;
  std::uint64_t last_acked = 0;
  std::uint64_t last_sent = 0;
  const auto watch_counts = [&] {
    const auto acked = a_->acked_bytes(client);
    const auto out = a_->sent_bytes(client);
    ASSERT_TRUE(acked.has_value() && out.has_value());
    EXPECT_GE(*acked, last_acked);
    EXPECT_GE(*out, last_sent);
    EXPECT_LE(*acked, *out);
    last_acked = *acked;
    last_sent = *out;
  };
  a_->set_event_handler([&](const stack::socket_event& ev) {
    if (ev.sock != client) return;
    if (ev.type == stack::socket_event_type::connected && !sent) {
      sent = true;
      EXPECT_EQ(a_->send(client, buffer::pattern(total, 0)).value(), total);
    }
    for (auto r = a_->recv(client, total); r.ok();
         r = a_->recv(client, total)) {
      echoed.append(std::move(r).value());
    }
    watch_counts();
  });
  for (int ms = 0; ms < 200 && echoed.size() < total; ++ms) {
    net_.run_for(milliseconds(1));
    watch_counts();
  }
  ASSERT_EQ(echoed.size(), total);
  EXPECT_EQ(echoed.pop(total), buffer::pattern(total, 0));
  EXPECT_EQ(last_acked, total);
  EXPECT_EQ(last_sent, total);
  ASSERT_NE(server, 0u);

  // abort drops each socket kind at once.
  a_->set_event_handler({});
  b_->set_event_handler({});
  const stack::socket_id dgram = b_->udp_open(9000).value();
  EXPECT_TRUE(a_->abort(client).ok());
  EXPECT_TRUE(b_->abort(server).ok());
  EXPECT_TRUE(b_->abort(listener).ok());
  EXPECT_TRUE(b_->abort(dgram).ok());
  EXPECT_FALSE(a_->acked_bytes(client).has_value());
  EXPECT_EQ(b_->recv(server, 1).error(), errc::not_found);
  EXPECT_EQ(b_->accept(listener).error(), errc::not_found);
  EXPECT_EQ(b_->udp_recv_from(dgram).error(), errc::not_found);
  EXPECT_EQ(open_sockets(), 0.0);
  net_.run_for(milliseconds(20));
  EXPECT_EQ(open_sockets(), 0.0);
  // The ports are free again, and close unbinds a datagram socket too.
  EXPECT_TRUE(b_->listen(7000).ok());
  const stack::socket_id again = b_->udp_open(9000).value();
  EXPECT_TRUE(b_->close(again).ok());
  EXPECT_TRUE(b_->udp_open(9000).ok());
}

INSTANTIATE_TEST_SUITE_P(
    transports, transport_contract, ::testing::Values("tcp", "nkq"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// A tenant typo in nsm_config::transport must surface at provisioning time
// as a configuration error — never a crash while serving.
TEST(transport_config, unknown_transport_fails_nsm_creation) {
  apps::testbed bed{apps::datacenter_params(7)};
  core::nsm_config cfg;
  cfg.name = "nsm-bogus";
  cfg.transport = "bogus-proto";
  EXPECT_THROW((void)bed.netkernel(side::a).create_nsm(cfg),
               std::invalid_argument);
}

// flow_table rows carry the serving transport's name in nk_flow_info.
TEST(transport_flow_table, rows_are_tagged_with_transport_name) {
  apps::testbed bed{apps::datacenter_params(11)};
  const auto cc = tcp::cc_algorithm::cubic;

  core::nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(cc);
  nsm_cfg.cc = cc;
  virt::vm_config vm_cfg;

  vm_cfg.name = "tcp-tx";
  nsm_cfg.name = "nsm-tcp-tx";
  nsm_cfg.transport = "tcp";
  auto ttx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "tcp-rx";
  nsm_cfg.name = "nsm-tcp-rx";
  auto trx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  vm_cfg.name = "nkq-tx";
  nsm_cfg.name = "nsm-nkq-tx";
  nsm_cfg.transport = "nkq";
  auto qtx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "nkq-rx";
  nsm_cfg.name = "nsm-nkq-rx";
  auto qrx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  EXPECT_EQ(qtx.module->transport().kind(), "nkq");
  EXPECT_EQ(ttx.module->transport().kind(), "tcp");

  apps::bulk_sink tcp_sink{*trx.api, 5001, false};
  tcp_sink.start();
  apps::bulk_sink nkq_sink{*qrx.api, 5002, false};
  nkq_sink.start();
  apps::bulk_sender_config scfg;
  scfg.flows = 1;
  scfg.bytes_per_flow = 0;  // keep both flows alive for the snapshot
  apps::bulk_sender tcp_tx{
      *ttx.api, {trx.module->config().address, 5001}, scfg};
  apps::bulk_sender nkq_tx{
      *qtx.api, {qrx.module->config().address, 5002}, scfg};
  tcp_tx.start();
  nkq_tx.start();
  bed.run_for(milliseconds(50));

  bool saw_tcp = false;
  bool saw_nkq = false;
  for (const auto& row : bed.netkernel(side::a).flow_table()) {
    const std::string_view transport{row.info.transport};
    if (transport == "tcp") saw_tcp = true;
    if (transport == "nkq") {
      saw_nkq = true;
      EXPECT_STREQ(row.info.cc, "cubic") << "nkq flows report the tenant's CC";
    }
  }
  EXPECT_TRUE(saw_tcp);
  EXPECT_TRUE(saw_nkq);
}

}  // namespace
