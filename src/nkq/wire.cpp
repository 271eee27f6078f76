#include "nkq/wire.hpp"

#include <cstring>

namespace nk::nkq {

namespace {

class writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(std::span<const std::byte> b) {
    out_.insert(out_.end(), b.begin(), b.end());
  }
  [[nodiscard]] buffer take() const {
    return buffer::copy_of(std::span<const std::byte>{out_});
  }

 private:
  std::vector<std::byte> out_;
};

class reader {
 public:
  explicit reader(const buffer& b) : bytes_{b.bytes()} {}

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  [[nodiscard]] bool u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }
  [[nodiscard]] bool u32(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= std::uint32_t{static_cast<std::uint8_t>(bytes_[pos_++])} << (8 * i);
    }
    return true;
  }
  [[nodiscard]] bool u64(std::uint64_t& v) {
    if (remaining() < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= std::uint64_t{static_cast<std::uint8_t>(bytes_[pos_++])} << (8 * i);
    }
    return true;
  }
  [[nodiscard]] bool raw(std::size_t len, std::span<const std::byte>& out) {
    if (remaining() < len) return false;
    out = bytes_.subspan(pos_, len);
    pos_ += len;
    return true;
  }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

buffer encode(const wire_packet& p) {
  writer w;
  w.u8(wire_magic);
  w.u8(static_cast<std::uint8_t>(p.type));
  w.u64(p.conn_id);
  w.u64(p.pn);
  if (p.type == packet_type::initial) w.u64(p.token);
  for (const auto& f : p.frames) {
    w.u8(static_cast<std::uint8_t>(f.type));
    switch (f.type) {
      case frame_type::stream:
        w.u64(f.stream.offset);
        w.u8(f.stream.fin ? 1 : 0);
        w.u32(static_cast<std::uint32_t>(f.stream.data.size()));
        w.bytes(f.stream.data.bytes());
        break;
      case frame_type::ack:
        w.u64(f.ack.largest);
        w.u64(f.ack.bitmap);
        w.u64(f.ack.max_data);
        break;
      case frame_type::new_token:
        w.u64(f.token.token);
        break;
      case frame_type::ping:
        break;
      case frame_type::close:
        w.u32(f.close.error);
        break;
    }
  }
  return w.take();
}

std::optional<wire_packet> decode(const buffer& datagram) {
  reader r{datagram};
  std::uint8_t magic = 0;
  std::uint8_t type = 0;
  if (!r.u8(magic) || magic != wire_magic) return std::nullopt;
  if (!r.u8(type)) return std::nullopt;
  if (type < static_cast<std::uint8_t>(packet_type::initial) ||
      type > static_cast<std::uint8_t>(packet_type::data)) {
    return std::nullopt;
  }

  wire_packet p;
  p.type = static_cast<packet_type>(type);
  if (!r.u64(p.conn_id) || !r.u64(p.pn)) return std::nullopt;
  if (p.type == packet_type::initial && !r.u64(p.token)) return std::nullopt;

  while (r.remaining() > 0) {
    if (p.frames.size() >= max_frames_per_packet) return std::nullopt;
    std::uint8_t ft = 0;
    if (!r.u8(ft)) return std::nullopt;
    frame f;
    switch (static_cast<frame_type>(ft)) {
      case frame_type::stream: {
        f.type = frame_type::stream;
        std::uint8_t fin = 0;
        std::uint32_t len = 0;
        if (!r.u64(f.stream.offset) || !r.u8(fin) || !r.u32(len)) {
          return std::nullopt;
        }
        if (fin > 1 || len > max_stream_frame_bytes) return std::nullopt;
        f.stream.fin = fin != 0;
        std::span<const std::byte> body;
        if (!r.raw(len, body)) return std::nullopt;
        f.stream.data = buffer::copy_of(body);
        break;
      }
      case frame_type::ack:
        f.type = frame_type::ack;
        if (!r.u64(f.ack.largest) || !r.u64(f.ack.bitmap) ||
            !r.u64(f.ack.max_data)) {
          return std::nullopt;
        }
        break;
      case frame_type::new_token:
        f.type = frame_type::new_token;
        if (!r.u64(f.token.token)) return std::nullopt;
        break;
      case frame_type::ping:
        f.type = frame_type::ping;
        break;
      case frame_type::close:
        f.type = frame_type::close;
        if (!r.u32(f.close.error)) return std::nullopt;
        break;
      default:
        return std::nullopt;  // unknown frame type: reject the datagram
    }
    p.frames.push_back(std::move(f));
  }
  return p;
}

}  // namespace nk::nkq
