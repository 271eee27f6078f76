// Unit tests for addressing, packet model and wire codecs.
#include <gtest/gtest.h>

#include <cstring>

#include "net/address.hpp"
#include "net/packet.hpp"
#include "net/wire.hpp"

namespace nk::net {
namespace {

TEST(address, parse_valid) {
  auto a = ipv4_addr::parse("10.0.1.200");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "10.0.1.200");
  EXPECT_EQ(a->value, (ipv4_addr::from_octets(10, 0, 1, 200).value));
}

TEST(address, parse_rejects_malformed) {
  EXPECT_FALSE(ipv4_addr::parse("").has_value());
  EXPECT_FALSE(ipv4_addr::parse("1.2.3").has_value());
  EXPECT_FALSE(ipv4_addr::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(ipv4_addr::parse("256.0.0.1").has_value());
  EXPECT_FALSE(ipv4_addr::parse("a.b.c.d").has_value());
  EXPECT_FALSE(ipv4_addr::parse("1..2.3").has_value());
}

TEST(address, ordering_and_hash) {
  const auto a = ipv4_addr::from_octets(10, 0, 0, 1);
  const auto b = ipv4_addr::from_octets(10, 0, 0, 2);
  EXPECT_LT(a, b);
  EXPECT_NE(std::hash<ipv4_addr>{}(a), std::hash<ipv4_addr>{}(b));
}

TEST(four_tuple, receiver_view_swaps_endpoints) {
  packet p;
  p.ip.src = ipv4_addr::from_octets(1, 1, 1, 1);
  p.ip.dst = ipv4_addr::from_octets(2, 2, 2, 2);
  p.tcp().src_port = 1000;
  p.tcp().dst_port = 80;
  const four_tuple t = p.tuple_at_receiver();
  EXPECT_EQ(t.local.port, 80);
  EXPECT_EQ(t.remote.port, 1000);
  EXPECT_EQ(t.local.ip, p.ip.dst);
}

TEST(packet, wire_size_accounts_headers) {
  packet p;
  p.payload = buffer::zeroed(1000);
  // 18 (eth) + 20 (ip) + 32 (tcp+ts) + payload.
  EXPECT_EQ(p.wire_size(), 18u + 20 + 32 + 1000);
  packet u;
  u.l4 = udp_header{};
  EXPECT_EQ(u.wire_size(), 18u + 20 + 8);
}

TEST(checksum, rfc1071_known_vector) {
  // Classic example: the checksum of a buffer with its checksum inserted
  // verifies to zero.
  const std::uint8_t raw[] = {0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40,
                              0x00, 0x40, 0x06, 0x00, 0x00, 0xac, 0x10,
                              0x0a, 0x63, 0xac, 0x10, 0x0a, 0x0c};
  auto* bytes = reinterpret_cast<const std::byte*>(raw);
  const std::uint16_t sum = internet_checksum({bytes, sizeof raw});
  // Insert and re-verify.
  std::uint8_t patched[sizeof raw];
  std::memcpy(patched, raw, sizeof raw);
  patched[10] = static_cast<std::uint8_t>(sum >> 8);
  patched[11] = static_cast<std::uint8_t>(sum & 0xff);
  EXPECT_EQ(internet_checksum(
                {reinterpret_cast<const std::byte*>(patched), sizeof raw}),
            0);
}

packet sample_tcp_packet() {
  packet p;
  p.ip.src = ipv4_addr::from_octets(10, 0, 1, 10);
  p.ip.dst = ipv4_addr::from_octets(10, 0, 2, 10);
  p.ip.ecn = ecn_codepoint::ect0;
  p.ip.ttl = 61;
  p.ip.id = 0xbeef;
  tcp_header h;
  h.src_port = 49152;
  h.dst_port = 5001;
  h.seq = 0x12345678;
  h.ack = 0x9abcdef0;
  h.flags.ack = true;
  h.flags.psh = true;
  h.wnd = 262144;  // multiple of 128 so window scaling is lossless
  h.ts_val = 777;
  h.ts_ecr = 555;
  h.sack_count = 2;
  h.sacks[0] = sack_block{0x9abd0000, 0x9abd05b4};
  h.sacks[1] = sack_block{0x9abe0000, 0x9abe0b68};
  p.l4 = h;
  p.payload = buffer::pattern(300, 42);
  return p;
}

TEST(wire, tcp_roundtrip) {
  const packet p = sample_tcp_packet();
  const auto bytes = serialize(p);
  auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.ok());
  const packet& q = parsed.value();
  EXPECT_EQ(q.ip.src, p.ip.src);
  EXPECT_EQ(q.ip.dst, p.ip.dst);
  EXPECT_EQ(q.ip.ecn, ecn_codepoint::ect0);
  EXPECT_EQ(q.ip.ttl, 61);
  EXPECT_EQ(q.tcp().seq, p.tcp().seq);
  EXPECT_EQ(q.tcp().ack, p.tcp().ack);
  EXPECT_EQ(q.tcp().flags, p.tcp().flags);
  EXPECT_EQ(q.tcp().wnd, p.tcp().wnd);
  EXPECT_EQ(q.tcp().ts_val, 777u);
  EXPECT_EQ(q.tcp().ts_ecr, 555u);
  ASSERT_EQ(q.tcp().sack_count, 2);
  EXPECT_EQ(q.tcp().sacks[0], p.tcp().sacks[0]);
  EXPECT_EQ(q.tcp().sacks[1], p.tcp().sacks[1]);
  EXPECT_EQ(q.payload, p.payload);
}

TEST(wire, udp_roundtrip) {
  packet p;
  p.ip.src = ipv4_addr::from_octets(1, 2, 3, 4);
  p.ip.dst = ipv4_addr::from_octets(5, 6, 7, 8);
  p.ip.proto = ip_proto::udp;
  udp_header h;
  h.src_port = 9999;
  h.dst_port = 53;
  p.l4 = h;
  p.payload = buffer::pattern(100, 7);
  const auto bytes = serialize(p);
  auto parsed = parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().udp().dst_port, 53);
  EXPECT_EQ(parsed.value().payload, p.payload);
}

TEST(wire, detects_ip_header_corruption) {
  auto bytes = serialize(sample_tcp_packet());
  bytes[14] ^= std::byte{0xff};  // flip a src-address byte
  EXPECT_FALSE(parse(bytes).ok());
}

TEST(wire, detects_payload_corruption) {
  auto bytes = serialize(sample_tcp_packet());
  bytes[bytes.size() - 1] ^= std::byte{0x01};
  EXPECT_FALSE(parse(bytes).ok());
}

TEST(wire, detects_flag_corruption) {
  auto bytes = serialize(sample_tcp_packet());
  bytes[20 + 13] ^= std::byte{0x02};  // flip SYN inside the TCP header
  EXPECT_FALSE(parse(bytes).ok());
}

TEST(wire, rejects_truncated_input) {
  const auto bytes = serialize(sample_tcp_packet());
  EXPECT_FALSE(parse(std::span{bytes}.first(10)).ok());
  EXPECT_FALSE(parse({}).ok());
}

TEST(wire, all_tcp_flags_roundtrip) {
  packet p = sample_tcp_packet();
  p.tcp().flags = tcp_flags{.syn = true, .ack = true, .fin = true,
                            .rst = false, .psh = true, .ece = true,
                            .cwr = true};
  p.payload = {};
  auto parsed = parse(serialize(p));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().tcp().flags, p.tcp().flags);
}

TEST(wire, window_scaling_quantizes) {
  packet p = sample_tcp_packet();
  p.tcp().wnd = 1000;  // not a multiple of 128: scaled wire value truncates
  auto parsed = parse(serialize(p));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().tcp().wnd, (1000u >> 7) << 7);
}

TEST(packet, summary_is_informative) {
  const packet p = sample_tcp_packet();
  const std::string s = p.summary();
  EXPECT_NE(s.find("10.0.1.10"), std::string::npos);
  EXPECT_NE(s.find("5001"), std::string::npos);
  EXPECT_NE(s.find("len=300"), std::string::npos);
}

}  // namespace
}  // namespace nk::net
