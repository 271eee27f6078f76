// In-simulator packet representation.
//
// Packets are never serialized: the fast path passes structured headers
// plus a zero-copy payload slice, and wire_size() charges the link for the
// bytes the real headers would take.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <variant>

#include "common/buffer.hpp"
#include "net/address.hpp"

namespace nk::net {

enum class ip_proto : std::uint8_t { tcp = 6, udp = 17 };

// RFC 3168 ECN codepoints carried in the IP header.
enum class ecn_codepoint : std::uint8_t {
  not_ect = 0,
  ect1 = 1,
  ect0 = 2,
  ce = 3,
};

struct ipv4_header {
  ipv4_addr src{};
  ipv4_addr dst{};
  ip_proto proto = ip_proto::tcp;
  ecn_codepoint ecn = ecn_codepoint::not_ect;
  std::uint8_t ttl = 64;
  std::uint16_t id = 0;

  static constexpr std::size_t wire_bytes = 20;
};

struct tcp_flags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  bool psh = false;
  bool ece = false;  // ECN-echo
  bool cwr = false;  // congestion window reduced

  friend bool operator==(const tcp_flags&, const tcp_flags&) = default;
};

// RFC 2018 SACK block in wire sequence space.
struct sack_block {
  std::uint32_t start = 0;  // first sequence of the block
  std::uint32_t end = 0;    // one past the last sequence

  friend bool operator==(const sack_block&, const sack_block&) = default;
};

struct tcp_header {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  tcp_flags flags{};
  // Advertised receive window in bytes, descaled (RFC 7323 window scaling
  // is not modeled: no wire field narrows it).
  std::uint32_t wnd = 0;
  // RFC 7323 timestamps, always present in this stack (10-byte option,
  // padded to 12 on the wire).
  std::uint32_t ts_val = 0;
  std::uint32_t ts_ecr = 0;
  // RFC 2018 selective acknowledgment (up to 3 blocks beside timestamps).
  std::uint8_t sack_count = 0;
  std::array<sack_block, 3> sacks{};

  // Header + TS option + SACK option (2 + 8n, padded to 4).
  [[nodiscard]] std::size_t header_bytes() const {
    const std::size_t base = 20 + 12;
    if (sack_count == 0) return base;
    const std::size_t opt = 2 + 8 * std::size_t{sack_count};
    return base + ((opt + 3) / 4) * 4;
  }

  static constexpr std::size_t wire_bytes = 20 + 12;  // without SACK
};

struct udp_header {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  static constexpr std::size_t wire_bytes = 8;
};

// TCP Small Queues accounting: the wire bytes one connection has handed
// below its stack that have not left the host yet. Shared by the connection
// and the tickets of its packets, so either may go first.
struct tx_account {
  std::size_t queued_bytes = 0;
  // Runs after every release while the connection lives; the connection
  // clears it when it goes away.
  std::function<void()> on_release;
};

// A packet's claim on its sender's tx_account. Moving a packet moves the
// claim; a copied packet holds nothing. Destroying a held ticket (or
// assigning over it) returns its bytes, so a dropped, lost or locally
// delivered packet cannot leak them.
class tx_ticket {
 public:
  tx_ticket() = default;
  tx_ticket(std::shared_ptr<tx_account> account, std::size_t bytes)
      : account_{std::move(account)}, bytes_{bytes} {
    account_->queued_bytes += bytes_;
  }
  tx_ticket(const tx_ticket&) noexcept {}
  tx_ticket& operator=(const tx_ticket& other) noexcept {
    if (this != &other) release();
    return *this;
  }
  tx_ticket(tx_ticket&& other) noexcept
      : account_{std::move(other.account_)},
        bytes_{std::exchange(other.bytes_, 0)} {}
  tx_ticket& operator=(tx_ticket&& other) noexcept {
    if (this != &other) {
      release();
      account_ = std::move(other.account_);
      bytes_ = std::exchange(other.bytes_, 0);
    }
    return *this;
  }
  ~tx_ticket() { release(); }

 private:
  void release() {
    if (!account_) return;
    const std::shared_ptr<tx_account> account = std::move(account_);
    account->queued_bytes -= std::exchange(bytes_, 0);
    if (account->on_release) account->on_release();
  }

  std::shared_ptr<tx_account> account_;
  std::size_t bytes_ = 0;
};

struct packet {
  ipv4_header ip{};
  std::variant<tcp_header, udp_header> l4{tcp_header{}};
  buffer payload{};
  // Held from the sending connection's output path until the packet
  // finishes serializing on the first link it crosses (TCP Small Queues).
  tx_ticket ticket{};

  [[nodiscard]] bool is_tcp() const {
    return std::holds_alternative<tcp_header>(l4);
  }
  [[nodiscard]] tcp_header& tcp() { return std::get<tcp_header>(l4); }
  [[nodiscard]] const tcp_header& tcp() const {
    return std::get<tcp_header>(l4);
  }
  [[nodiscard]] udp_header& udp() { return std::get<udp_header>(l4); }
  [[nodiscard]] const udp_header& udp() const {
    return std::get<udp_header>(l4);
  }

  [[nodiscard]] std::uint16_t src_port() const {
    return is_tcp() ? tcp().src_port : udp().src_port;
  }
  [[nodiscard]] std::uint16_t dst_port() const {
    return is_tcp() ? tcp().dst_port : udp().dst_port;
  }

  [[nodiscard]] four_tuple tuple_at_receiver() const {
    return {{ip.dst, dst_port()}, {ip.src, src_port()}};
  }

  // Bytes this packet occupies on an Ethernet link, including L2 framing
  // (14B header + 4B FCS; preamble/IPG are accounted by the link model).
  [[nodiscard]] std::size_t wire_size() const {
    const std::size_t l4_bytes =
        is_tcp() ? tcp().header_bytes() : udp_header::wire_bytes;
    return 18 + ipv4_header::wire_bytes + l4_bytes + payload.size();
  }
};

}  // namespace nk::net
