// Protocol-plugin contract (DESIGN.md §15): the NSM/ServiceLib boundary
// speaks this interface, not tcp::tcb. A transport owns socket lifecycle,
// tx/rx, its own timers/CC, and per-flow telemetry; ServiceLib never looks
// past it. netstack implements it directly (named "tcp"), and src/nkq/
// ships a second implementation ("nkq") — a UDP-based reliable transport
// with QUIC-like streams — proving the paper's stack-as-a-service claim for
// tenant-defined protocols (Chamelio model). The NSM serves the one its
// nsm_config::transport names (core/nsm.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/buffer.hpp"
#include "common/result.hpp"
#include "net/address.hpp"
#include "obs/flow_info.hpp"
#include "obs/metrics.hpp"
#include "tcp/tcb.hpp"

namespace nk::stack {

using socket_id = std::uint64_t;

enum class socket_event_type {
  connected,     // active open completed
  accept_ready,  // listener has >=1 pending connection
  readable,      // data or EOF available
  writable,      // send-buffer space available
  closed,        // connection fully closed
  error,         // connection failed/reset; `error` field holds the reason
};

struct socket_event {
  socket_id sock = 0;
  socket_event_type type = socket_event_type::error;
  errc error = errc::ok;
};

// Socket-level transport contract. Socket ids share the netstack id space
// conventions (0 is "no socket"); a transport that mints its own ids must
// keep them disjoint from the ids it passes through from the base stack
// (nkq allocates from 1<<32 upward). tcp::tcp_config doubles as the
// per-socket option carrier for every transport — buffer sizes and the CC
// algorithm mean the same thing everywhere, so ServiceLib's setsockopt
// plumbing is transport-agnostic; nullopt takes the transport's defaults.
class transport {
 public:
  using event_handler = std::function<void(const socket_event&)>;

  virtual ~transport() = default;

  // Name of this transport, as nsm_config::transport spells it ("tcp" or
  // "nkq").
  [[nodiscard]] virtual std::string_view kind() const = 0;

  // Connection-oriented sockets.
  [[nodiscard]] virtual result<socket_id> listen(
      std::uint16_t port, std::optional<tcp::tcp_config> cfg = {}) = 0;
  [[nodiscard]] virtual result<socket_id> connect(
      net::socket_addr remote, std::optional<tcp::tcp_config> cfg = {}) = 0;
  // Pops one pending connection from a listener (would_block if none).
  [[nodiscard]] virtual result<socket_id> accept(socket_id listener) = 0;
  [[nodiscard]] virtual result<std::size_t> send(socket_id sock,
                                                 buffer data) = 0;
  [[nodiscard]] virtual result<buffer> recv(socket_id sock,
                                            std::size_t max) = 0;
  // Cumulative stream bytes the peer has acknowledged; nullopt once the
  // transport no longer knows the socket.
  [[nodiscard]] virtual std::optional<std::uint64_t> acked_bytes(
      socket_id sock) = 0;
  // Stream bytes transmitted at least once: the highest payload offset ever
  // sent, never lowered when loss recovery rewinds. Connection setup and
  // teardown markers (SYN, FIN) are not payload. nullopt once the transport
  // no longer knows the socket.
  //
  // Every advance of either count that the application's own call did not
  // cause (an ACK, a timer) raises `writable`, once, after the
  // transmissions that event caused: ServiceLib then hands acknowledged
  // chunks back to the pool and credits transmitted ones in the same event.
  [[nodiscard]] virtual std::optional<std::uint64_t> sent_bytes(
      socket_id sock) = 0;
  virtual status shutdown_write(socket_id sock) = 0;
  virtual status close(socket_id sock) = 0;
  // Drops a socket of any kind at once (the NSM crash path): a connection
  // is reset, a listener stops accepting and takes its not-yet-accepted
  // connections with it, a datagram socket unbinds its port.
  virtual status abort(socket_id sock) = 0;

  // Datagram passthrough: every transport rides the same UDP plane, so the
  // guest's plain datagram sockets keep working regardless of the
  // connection protocol the tenant picked. Port 0 picks an ephemeral port.
  [[nodiscard]] virtual result<socket_id> udp_open(std::uint16_t port = 0) = 0;
  [[nodiscard]] virtual result<std::size_t> udp_send_to(
      socket_id sock, net::socket_addr dest, buffer data) = 0;
  [[nodiscard]] virtual result<std::pair<net::socket_addr, buffer>>
  udp_recv_from(socket_id sock) = 0;

  // Callback delivery toward ServiceLib: events are dispatched from a fresh
  // simulator event, never re-entrantly from inside protocol processing.
  virtual void set_event_handler(event_handler handler) = 0;

  // Peer address of a connection socket (ServiceLib's ev_accept payload);
  // nullopt for listeners/datagram/unknown ids.
  [[nodiscard]] virtual std::optional<net::socket_addr> remote_of(
      socket_id sock) = 0;

  // Per-flow telemetry snapshot with `transport` filled in; nullopt for
  // listeners, datagram sockets and unknown ids.
  [[nodiscard]] virtual std::optional<obs::nk_flow_info> flow_info(
      socket_id sock) = 0;

  // Exposes the transport's counters to a metrics registry as callback
  // gauges under `<prefix>_...`. The registry must not outlive it.
  virtual void register_metrics(obs::metrics_registry& reg,
                                const std::string& prefix) = 0;
};

}  // namespace nk::stack
