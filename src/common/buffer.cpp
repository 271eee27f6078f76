#include "common/buffer.hpp"

#include <algorithm>
#include <cstring>

#include "common/hash.hpp"

namespace nk {

buffer buffer::copy_of(std::span<const std::byte> bytes) {
  auto s = std::make_shared<storage>(bytes.begin(), bytes.end());
  const std::size_t n = s->size();
  return buffer{std::move(s), 0, n};
}

buffer buffer::copy_of(const void* data, std::size_t len) {
  return copy_of({static_cast<const std::byte*>(data), len});
}

std::byte buffer::pattern_byte(std::uint64_t off) {
  // Mix the offset so adjacent bytes differ and period is far beyond any
  // window size a test will use.
  return static_cast<std::byte>(mix64(off) & 0xff);
}

buffer buffer::pattern(std::size_t len, std::uint64_t stream_offset) {
  auto s = std::make_shared<storage>(len);
  for (std::size_t i = 0; i < len; ++i) {
    (*s)[i] = pattern_byte(stream_offset + i);
  }
  return buffer{std::move(s), 0, len};
}

buffer buffer::zeroed(std::size_t len) {
  return buffer{std::make_shared<storage>(len), 0, len};
}

buffer buffer::slice(std::size_t off, std::size_t len) const {
  if (off >= len_) return {};
  return buffer{storage_, off_ + off, std::min(len, len_ - off)};
}

bool buffer::matches_pattern(std::uint64_t stream_offset) const {
  const auto b = bytes();
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (b[i] != pattern_byte(stream_offset + i)) return false;
  }
  return true;
}

bool operator==(const buffer& a, const buffer& b) {
  const auto sa = a.bytes();
  const auto sb = b.bytes();
  return sa.size() == sb.size() &&
         (sa.empty() || std::memcmp(sa.data(), sb.data(), sa.size()) == 0);
}

void buffer_chain::append(buffer b) {
  if (b.empty()) return;
  size_ += b.size();
  parts_.push_back(std::move(b));
}

void buffer_chain::append(buffer_chain&& other) {
  for (auto& part : other.parts_) {
    size_ += part.size();
    parts_.push_back(std::move(part));
  }
  other.parts_.clear();
  other.size_ = 0;
}

buffer buffer_chain::peek(std::size_t offset, std::size_t len) const {
  if (offset >= size_ || len == 0) return {};
  len = std::min(len, size_ - offset);

  // Find the part containing `offset`.
  std::size_t i = 0;
  while (offset >= parts_[i].size()) {
    offset -= parts_[i].size();
    ++i;
  }
  // Fast path: the whole range lives in one part — return a shared slice.
  if (parts_[i].size() - offset >= len) return parts_[i].slice(offset, len);

  // Slow path: assemble a copy spanning multiple parts.
  std::vector<std::byte> out;
  out.reserve(len);
  while (len > 0) {
    const auto part = parts_[i].slice(offset, len).bytes();
    out.insert(out.end(), part.begin(), part.end());
    len -= part.size();
    offset = 0;
    ++i;
  }
  return buffer::copy_of(out);
}

void buffer_chain::consume(std::size_t len) {
  len = std::min(len, size_);
  size_ -= len;
  while (len > 0) {
    buffer& front = parts_.front();
    if (front.size() <= len) {
      len -= front.size();
      parts_.pop_front();
    } else {
      front = front.suffix_from(len);
      len = 0;
    }
  }
}

buffer buffer_chain::pop(std::size_t len) {
  buffer out = peek(0, len);
  consume(out.size());
  return out;
}

void buffer_chain::clear() {
  parts_.clear();
  size_ = 0;
}

}  // namespace nk
