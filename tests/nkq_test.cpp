// nkq — the UDP-based reliable transport with QUIC-like streams
// (DESIGN.md §15): wire codec hardening, loss recovery under chaos lossy
// pulses, and 0-RTT token resumption.
#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <vector>

#include "apps/scenario.hpp"
#include "apps/workloads.hpp"
#include "nkq/transport.hpp"
#include "nkq/wire.hpp"
#include "sim/chaos.hpp"

namespace {

using namespace nk;
using apps::side;

std::uint64_t splitmix(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

nkq::wire_packet sample_packet() {
  nkq::wire_packet p;
  p.type = nkq::packet_type::initial;
  p.conn_id = 0xdeadbeefcafef00dull;
  p.pn = 41;
  p.token = 0x1234567890abcdefull;

  nkq::frame stream;
  stream.type = nkq::frame_type::stream;
  stream.stream.offset = 8192;
  stream.stream.fin = true;
  stream.stream.data = buffer::pattern(1000, 3);
  p.frames.push_back(std::move(stream));

  nkq::frame ack;
  ack.type = nkq::frame_type::ack;
  ack.ack.largest = 39;
  ack.ack.bitmap = 0b1011;
  ack.ack.max_data = 1 << 16;
  p.frames.push_back(ack);

  nkq::frame token;
  token.type = nkq::frame_type::new_token;
  token.token.token = 77;
  p.frames.push_back(token);

  nkq::frame close;
  close.type = nkq::frame_type::close;
  close.close.error = 4;
  p.frames.push_back(close);
  return p;
}

TEST(nkq_wire, roundtrips_every_frame_type) {
  const nkq::wire_packet p = sample_packet();
  const buffer wire = nkq::encode(p);
  const auto back = nkq::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, p.type);
  EXPECT_EQ(back->conn_id, p.conn_id);
  EXPECT_EQ(back->pn, p.pn);
  EXPECT_EQ(back->token, p.token);
  ASSERT_EQ(back->frames.size(), p.frames.size());
  const auto& sf = back->frames[0].stream;
  EXPECT_EQ(back->frames[0].type, nkq::frame_type::stream);
  EXPECT_EQ(sf.offset, 8192u);
  EXPECT_TRUE(sf.fin);
  ASSERT_EQ(sf.data.size(), 1000u);
  EXPECT_TRUE(sf.data.matches_pattern(3));
  EXPECT_EQ(back->frames[1].ack.largest, 39u);
  EXPECT_EQ(back->frames[1].ack.bitmap, 0b1011u);
  EXPECT_EQ(back->frames[1].ack.max_data, std::uint64_t{1} << 16);
  EXPECT_EQ(back->frames[2].token.token, 77u);
  EXPECT_EQ(back->frames[3].close.error, 4u);
  EXPECT_TRUE(p.ack_eliciting());
}

TEST(nkq_wire, rejects_truncation_at_every_length) {
  const nkq::wire_packet p = sample_packet();
  const buffer wire = nkq::encode(p);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const buffer cut_wire = wire.prefix(len);
    const auto cut = nkq::decode(cut_wire);
    if (!cut.has_value()) continue;  // rejected — fine
    // A cut landing exactly on a frame boundary decodes to a shorter but
    // self-consistent packet; anything mid-frame must be rejected. Either
    // way, never a crash and never phantom frames.
    ASSERT_LT(cut->frames.size(), p.frames.size()) << "prefix length " << len;
    const buffer re = nkq::encode(*cut);
    ASSERT_EQ(re.size(), len) << "boundary decode must re-encode to the cut";
  }
}

// Deterministic handshake fuzz: random mutations and random garbage must
// never crash the decoder, and whatever does decode must re-encode without
// violating the caps. Runs under UBSan in CI (--gtest_filter='*fuzz*').
TEST(nkq_fuzz, decoder_survives_mutated_and_random_datagrams) {
  std::uint64_t rng = 0x6e6b71u;
  const buffer base = nkq::encode(sample_packet());
  const auto base_bytes = base.bytes();

  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::byte> work(base_bytes.begin(), base_bytes.end());
    const int mode = static_cast<int>(splitmix(rng) % 3);
    if (mode == 0) {
      // Flip 1..8 bytes in place.
      const std::size_t flips = 1 + splitmix(rng) % 8;
      for (std::size_t f = 0; f < flips; ++f) {
        work[splitmix(rng) % work.size()] =
            static_cast<std::byte>(splitmix(rng));
      }
    } else if (mode == 1) {
      // Truncate to a random prefix.
      work.resize(splitmix(rng) % (work.size() + 1));
    } else {
      // Pure noise, 0..256 bytes.
      work.resize(splitmix(rng) % 257);
      for (auto& b : work) b = static_cast<std::byte>(splitmix(rng));
    }
    const auto decoded =
        nkq::decode(buffer::copy_of(work.data(), work.size()));
    if (decoded.has_value()) {
      EXPECT_LE(decoded->frames.size(), nkq::max_frames_per_packet);
      for (const auto& f : decoded->frames) {
        EXPECT_LE(f.stream.data.size(), nkq::max_stream_frame_bytes);
      }
      (void)nkq::encode(*decoded);  // must not trap either
    }
  }
}

// End-to-end over NetKernel: an nkq tenant moves a pattern-validated bulk
// transfer across the testbed while chaos pulses push the wire to 5% loss.
// Loss recovery must deliver every byte intact and book retransmits.
TEST(nkq_e2e, lossy_pulses_bulk_transfer_recovers_all_bytes) {
  apps::testbed bed{apps::datacenter_params(21)};
  const auto cc = tcp::cc_algorithm::cubic;

  core::nsm_config nsm_cfg;
  nsm_cfg.transport = "nkq";
  nsm_cfg.cc = cc;
  nsm_cfg.tcp = apps::datacenter_tcp(cc);
  virt::vm_config vm_cfg;
  vm_cfg.name = "tx-vm";
  nsm_cfg.name = "nsm-tx";
  auto tx = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "rx-vm";
  nsm_cfg.name = "nsm-rx";
  auto rx = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*rx.api, 5001, /*validate=*/true};
  sink.start();
  apps::bulk_sender_config scfg;
  // 2 x 16 MB takes >6 ms at 40 GbE line rate, so the transfer straddles
  // every pulse below instead of finishing before the first one fires.
  scfg.flows = 2;
  scfg.bytes_per_flow = 16 << 20;
  apps::bulk_sender sender{*tx.api, {rx.module->config().address, 5001},
                           scfg};
  sender.start();

  sim::chaos_schedule chaos{bed.sim(), 21};
  for (int pulse = 0; pulse < 3; ++pulse) {
    chaos.pulse("wire-lossy", milliseconds(1 + 3 * pulse), milliseconds(2),
                [&bed](bool on) {
                  bed.wire().forward().set_loss_rate(on ? 0.05 : 0.0);
                  bed.wire().backward().set_loss_rate(on ? 0.05 : 0.0);
                });
  }
  chaos.arm();

  std::uint64_t retransmits = 0;
  for (int i = 0; i < 3000 && sink.flows_finished() < 2; ++i) {
    bed.run_for(milliseconds(1));
    // Sample mid-flight: rows vanish once flows close.
    for (const auto& row : bed.netkernel(side::a).flow_table()) {
      if (std::string_view{row.info.transport} == "nkq") {
        retransmits = std::max(retransmits, row.info.retransmits);
      }
    }
  }

  EXPECT_EQ(sink.flows_finished(), 2u);
  EXPECT_EQ(sink.total_bytes(), 2u * (16u << 20));
  EXPECT_TRUE(sink.pattern_ok()) << "corruption under loss recovery";
  EXPECT_GT(retransmits, 0u) << "pulses at 5% loss must cost retransmits";
}

// 0-RTT: the second connection to the same server presents the cached
// token and completes immediately instead of waiting out the handshake.
TEST(nkq_e2e, zero_rtt_resumption_cuts_reconnect_latency) {
  apps::testbed bed{apps::wan_params(33, 0.0)};
  const auto cc = tcp::cc_algorithm::bbr;

  core::nsm_config nsm_cfg;
  nsm_cfg.transport = "nkq";
  nsm_cfg.cc = cc;
  nsm_cfg.tcp = apps::wan_tcp(cc);
  virt::vm_config vm_cfg;
  vm_cfg.name = "client-vm";
  nsm_cfg.name = "nsm-client";
  auto cl = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "server-vm";
  nsm_cfg.name = "nsm-server";
  auto sv = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  apps::bulk_sink sink{*sv.api, 6001, false};
  sink.start();
  const net::socket_addr dest{sv.module->config().address, 6001};

  auto connect_once = [&](sim_time& latency) {
    auto s = cl.api->open().value();
    bool connected = false;
    sim_time done{};
    cl.api->on_event(s, [&](apps::app_socket, apps::app_event t, errc) {
      if (t == stack::socket_event_type::connected && !connected) {
        connected = true;
        done = bed.sim().now();
      }
    });
    const sim_time start = bed.sim().now();
    ASSERT_EQ(cl.api->connect(s, dest).error(), errc::ok);
    for (int i = 0; i < 2000 && !connected; ++i) bed.run_for(milliseconds(1));
    ASSERT_TRUE(connected);
    latency = done - start;
    (void)cl.api->close(s);
    cl.api->drop_handler(s);
    // Let the close and the (instant) resumed handshake cross the WAN so
    // the server books it before the next measurement.
    bed.run_for(milliseconds(900));
  };

  sim_time cold{};
  sim_time resumed{};
  connect_once(cold);
  connect_once(resumed);

  // Cold pays at least one 350 ms RTT; resumed must be at most half.
  EXPECT_GE(cold, milliseconds(350));
  EXPECT_LE(resumed * 2, cold);

  auto* snt = dynamic_cast<nkq::nkq_transport*>(&sv.module->transport());
  auto* cnt = dynamic_cast<nkq::nkq_transport*>(&cl.module->transport());
  ASSERT_NE(snt, nullptr);
  ASSERT_NE(cnt, nullptr);
  EXPECT_EQ(snt->stats().handshakes_cold, 1u);
  EXPECT_EQ(snt->stats().handshakes_resumed, 1u);
  EXPECT_EQ(snt->stats().tokens_rejected, 0u);
  EXPECT_EQ(cnt->stats().zero_rtt_connects, 1u);
}

// Receive-side reassembly fed directly: frames out of order, duplicated,
// and overlapping the way an nkq sender overlaps them (a retransmission is
// its first transmission with the acked front clipped off, so overlapping
// ranges share their end). The exact stream comes out, and on_readable
// fires once per frame that advances the in-order edge, then at EOF.
TEST(nkq_connection, reassembles_out_of_order_duplicate_and_overlapping) {
  sim::simulator sim{1};
  int readable = 0;
  nkq::connection::callbacks cb;
  cb.emit = [](buffer) {};
  cb.on_readable = [&readable] { ++readable; };
  nkq::connection conn{sim, nkq::nkq_config{}, 7, /*server=*/true,
                       /*issue_token=*/0, std::move(cb)};

  constexpr std::uint64_t total = 4000;
  const buffer stream = buffer::pattern(total, 0);
  std::uint64_t pn = 0;
  const auto feed = [&](std::uint64_t begin, std::uint64_t end, bool fin) {
    nkq::wire_packet p;
    p.type = nkq::packet_type::data;
    p.conn_id = 7;
    p.pn = pn++;
    nkq::frame f;
    f.type = nkq::frame_type::stream;
    f.stream.offset = begin;
    f.stream.fin = fin;
    f.stream.data = stream.slice(begin, end - begin);
    p.frames.push_back(std::move(f));
    conn.on_packet(p);
  };

  feed(3000, 3600, false);  // out of order
  feed(2400, 3600, false);  // overlaps the held tail, same end
  feed(2400, 3600, false);  // duplicate
  EXPECT_EQ(readable, 0);
  EXPECT_EQ(conn.recv(total).error(), errc::would_block);
  feed(0, 1200, false);  // fills the front: one advance
  EXPECT_EQ(readable, 1);
  feed(600, 1200, false);  // already delivered
  EXPECT_EQ(readable, 1);
  feed(1200, 2400, false);  // fills the gap: releases everything held
  EXPECT_EQ(readable, 2);
  feed(3600, total, true);
  EXPECT_EQ(readable, 3);

  const auto got = conn.recv(2 * total);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), stream);
  EXPECT_EQ(conn.stats().bytes_received, total);
  EXPECT_EQ(conn.recv(1).error(), errc::closed);  // EOF
}

}  // namespace
