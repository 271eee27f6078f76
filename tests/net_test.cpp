// Unit tests for addressing and the packet model.
#include <gtest/gtest.h>


#include "net/address.hpp"
#include "net/packet.hpp"

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

}  // namespace
}  // namespace nk::net
