// nkq wire format (DESIGN.md §15): a QUIC-shaped datagram protocol carried
// over the stack's UDP plane.
//
//   packet  := magic(u8) type(u8) conn_id(u64) pn(u64) [token(u64) if
//              type==initial] frame*
//   frame   := STREAM  (1) offset(u64) fin(u8) len(u32) bytes[len]
//            | ACK     (2) largest(u64) bitmap(u64) max_data(u64)
//            | NEW_TOKEN (3) token(u64)
//            | PING    (4)
//            | CLOSE   (5) error(u32)
//
// All integers little-endian, fixed width. One packet-number space; the ACK
// frame acknowledges `largest` plus every pn whose bit is set in `bitmap`
// (bit i => largest-1-i), and piggybacks connection-level flow control
// (`max_data`: the highest stream offset the receiver will buffer).
//
// decode() is the handshake-fuzz surface: it must return nullopt on any
// truncated, oversized or garbage input, never read out of bounds, and
// never allocate unbounded memory (frame count and stream length caps).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/buffer.hpp"

namespace nk::nkq {

inline constexpr std::uint8_t wire_magic = 0xC9;

enum class packet_type : std::uint8_t {
  initial = 1,  // client hello; carries the resumption token (0 = cold)
  accept = 2,   // server hello; NEW_TOKEN rides in it
  data = 3,     // everything after the handshake
};

enum class frame_type : std::uint8_t {
  stream = 1,
  ack = 2,
  new_token = 3,
  ping = 4,
  close = 5,
};

struct stream_frame {
  std::uint64_t offset = 0;
  bool fin = false;
  buffer data;
};

struct ack_frame {
  std::uint64_t largest = 0;
  std::uint64_t bitmap = 0;  // bit i acknowledges pn largest-1-i
  std::uint64_t max_data = 0;
};

struct token_frame {
  std::uint64_t token = 0;
};

struct close_frame {
  std::uint32_t error = 0;
};

struct frame {
  frame_type type = frame_type::ping;
  stream_frame stream;  // valid when type == stream
  ack_frame ack;        // valid when type == ack
  token_frame token;    // valid when type == new_token
  close_frame close;    // valid when type == close
};

struct wire_packet {
  packet_type type = packet_type::data;
  std::uint64_t conn_id = 0;
  std::uint64_t pn = 0;
  std::uint64_t token = 0;  // initial packets only
  std::vector<frame> frames;

  // True when the packet must be tracked for retransmission / elicits an
  // immediate ACK (carries anything other than pure acknowledgment).
  [[nodiscard]] bool ack_eliciting() const {
    for (const auto& f : frames) {
      if (f.type != frame_type::ack) return true;
    }
    return type == packet_type::initial;
  }
};

// Hard caps enforced by decode() so hostile datagrams cannot balloon state.
inline constexpr std::size_t max_frames_per_packet = 64;
inline constexpr std::size_t max_stream_frame_bytes = 64 * 1024;

[[nodiscard]] buffer encode(const wire_packet& p);
[[nodiscard]] std::optional<wire_packet> decode(const buffer& datagram);

// Per-packet overhead of the fixed header plus one stream frame's framing,
// used by the connection to size stream frames against the MSS.
inline constexpr std::size_t stream_frame_overhead = 1 + 8 + 1 + 4;

}  // namespace nk::nkq
