// IPv4 addressing types shared across the stack, the physical layer and
// the virtualization layer.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace nk::net {

struct ipv4_addr {
  std::uint32_t value = 0;  // host byte order

  static constexpr ipv4_addr from_octets(std::uint8_t a, std::uint8_t b,
                                         std::uint8_t c, std::uint8_t d) {
    return ipv4_addr{(std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                     (std::uint32_t{c} << 8) | std::uint32_t{d}};
  }

  // Parses dotted-quad notation; nullopt on malformed input.
  static std::optional<ipv4_addr> parse(std::string_view text);

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] bool is_unspecified() const { return value == 0; }

  auto operator<=>(const ipv4_addr&) const = default;
};

inline constexpr ipv4_addr any_addr{};

struct socket_addr {
  ipv4_addr ip{};
  std::uint16_t port = 0;

  auto operator<=>(const socket_addr&) const = default;
};

// TCP/UDP connection 4-tuple; demultiplexing key inside a stack.
struct four_tuple {
  socket_addr local{};
  socket_addr remote{};

  auto operator<=>(const four_tuple&) const = default;
};

}  // namespace nk::net

template <>
struct std::hash<nk::net::ipv4_addr> {
  std::size_t operator()(const nk::net::ipv4_addr& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value);
  }
};

template <>
struct std::hash<nk::net::socket_addr> {
  std::size_t operator()(const nk::net::socket_addr& a) const noexcept {
    return std::hash<std::uint64_t>{}((std::uint64_t{a.ip.value} << 16) ^
                                      a.port);
  }
};

template <>
struct std::hash<nk::net::four_tuple> {
  std::size_t operator()(const nk::net::four_tuple& t) const noexcept {
    const auto h1 = std::hash<nk::net::socket_addr>{}(t.local);
    const auto h2 = std::hash<nk::net::socket_addr>{}(t.remote);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
};
