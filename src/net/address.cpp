#include "net/address.hpp"

#include <array>
#include <charconv>

namespace nk::net {

std::optional<ipv4_addr> ipv4_addr::parse(std::string_view text) {
  std::array<std::uint8_t, 4> octets{};
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (pos >= text.size() || text[pos] != '.') return std::nullopt;
      ++pos;
    }
    unsigned value = 0;
    const auto* begin = text.data() + pos;
    const auto* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr == begin || value > 255) return std::nullopt;
    octets[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(value);
    pos += static_cast<std::size_t>(ptr - begin);
  }
  if (pos != text.size()) return std::nullopt;
  return from_octets(octets[0], octets[1], octets[2], octets[3]);
}

std::string ipv4_addr::to_string() const {
  return std::to_string((value >> 24) & 0xff) + '.' +
         std::to_string((value >> 16) & 0xff) + '.' +
         std::to_string((value >> 8) & 0xff) + '.' +
         std::to_string(value & 0xff);
}

}  // namespace nk::net
