// Wire codecs: serialize a net::packet to real IPv4/TCP/UDP bytes and parse
// them back, with RFC 1071 checksums. The simulation's fast path does not
// serialize per packet; these codecs keep the packet model honest (tested
// round-trip + checksum properties).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "net/packet.hpp"

namespace nk::net {

// RFC 1071 internet checksum over `data` (+ optional initial sum).
[[nodiscard]] std::uint16_t internet_checksum(std::span<const std::byte> data,
                                              std::uint32_t initial = 0);

struct wire_options {
  // Window-scale shift applied when narrowing tcp_header::wnd (32-bit,
  // descaled) to the 16-bit wire field, as if negotiated at handshake.
  unsigned window_shift = 7;
};

// Serializes IP + L4 headers + payload to wire bytes (no L2 framing).
[[nodiscard]] std::vector<std::byte> serialize(const packet& p,
                                               const wire_options& opt = {});

// Parses wire bytes produced by serialize(); verifies both checksums.
[[nodiscard]] result<packet> parse(std::span<const std::byte> data,
                                   const wire_options& opt = {});

}  // namespace nk::net
