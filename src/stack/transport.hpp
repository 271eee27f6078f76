// Protocol-plugin contract (DESIGN.md §15): the NSM/ServiceLib boundary
// speaks this interface, not tcp::tcb. A transport owns socket lifecycle,
// tx/rx, its own timers/CC, and per-flow telemetry; ServiceLib never looks
// past it. netstack's TCP implements it (tcp_transport below, named "tcp"),
// and src/nkq/ ships a second implementation ("nkq") — a UDP-based
// reliable transport with QUIC-like streams — proving the paper's
// stack-as-a-service claim for tenant-defined protocols (Chamelio model).
// The NSM builds the one its nsm_config::transport names (core/nsm.cpp).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/buffer.hpp"
#include "common/result.hpp"
#include "net/address.hpp"
#include "obs/flow_info.hpp"
#include "obs/metrics.hpp"
#include "stack/netstack.hpp"
#include "tcp/tcb.hpp"

namespace nk::stack {

// Socket-level transport contract. Socket ids share the netstack id space
// conventions (0 is "no socket"); a transport that mints its own ids must
// keep them disjoint from the ids it passes through from the base stack
// (nkq allocates from 1<<32 upward). tcp::tcp_config doubles as the
// per-socket option carrier for every transport — buffer sizes and the CC
// algorithm mean the same thing everywhere, so ServiceLib's setsockopt
// plumbing is transport-agnostic.
class transport {
 public:
  virtual ~transport() = default;

  // Name of this transport, as nsm_config::transport spells it ("tcp" or
  // "nkq").
  [[nodiscard]] virtual std::string_view kind() const = 0;

  // Connection-oriented sockets.
  [[nodiscard]] virtual result<socket_id> listen(
      std::uint16_t port, const tcp::tcp_config& cfg) = 0;
  [[nodiscard]] virtual result<socket_id> connect(
      net::socket_addr remote, const tcp::tcp_config& cfg) = 0;
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
  virtual status abort(socket_id sock) = 0;

  // Datagram passthrough: every transport rides the same UDP plane, so the
  // guest's plain datagram sockets keep working regardless of the
  // connection protocol the tenant picked.
  [[nodiscard]] virtual result<socket_id> udp_open(std::uint16_t port) = 0;
  [[nodiscard]] virtual result<std::size_t> udp_send_to(
      socket_id sock, net::socket_addr dest, buffer data) = 0;
  [[nodiscard]] virtual result<std::pair<net::socket_addr, buffer>>
  udp_recv_from(socket_id sock) = 0;

  // Event delivery toward ServiceLib. Same contract as netstack: events are
  // dispatched from a fresh simulator event, never re-entrantly.
  virtual void set_event_handler(netstack::event_handler handler) = 0;

  // Peer address of a connection socket (ServiceLib's ev_accept payload);
  // nullopt for listeners/datagram/unknown ids.
  [[nodiscard]] virtual std::optional<net::socket_addr> remote_of(
      socket_id sock) = 0;

  // Per-flow telemetry snapshot with `transport` filled in; nullopt for
  // listeners, datagram sockets and unknown ids.
  [[nodiscard]] virtual std::optional<obs::nk_flow_info> flow_info(
      socket_id sock) = 0;

  // Transport-specific counters under `<prefix>_...` (default: none).
  virtual void register_metrics(obs::metrics_registry& reg,
                                const std::string& prefix) {
    (void)reg;
    (void)prefix;
  }
};

// The builtin transport: netstack's TCP, adapted 1:1. Owns no state of its
// own — the stack keeps being the single source of truth, so legacy callers
// that reach for nsm::stack() directly observe the same sockets.
class tcp_transport final : public transport {
 public:
  explicit tcp_transport(netstack& base) : net_{base} {}

  [[nodiscard]] std::string_view kind() const override { return "tcp"; }

  [[nodiscard]] result<socket_id> listen(std::uint16_t port,
                                         const tcp::tcp_config& cfg) override {
    return net_.tcp_listen(port, cfg);
  }
  [[nodiscard]] result<socket_id> connect(
      net::socket_addr remote, const tcp::tcp_config& cfg) override {
    return net_.tcp_connect(remote, cfg);
  }
  [[nodiscard]] result<socket_id> accept(socket_id listener) override {
    return net_.accept(listener);
  }
  [[nodiscard]] result<std::size_t> send(socket_id sock,
                                         buffer data) override {
    return net_.send(sock, std::move(data));
  }
  [[nodiscard]] result<buffer> recv(socket_id sock, std::size_t max) override {
    return net_.recv(sock, max);
  }
  [[nodiscard]] std::optional<std::uint64_t> acked_bytes(
      socket_id sock) override {
    if (auto* t = net_.tcb_of(sock)) return t->acked_bytes();
    return std::nullopt;
  }
  [[nodiscard]] std::optional<std::uint64_t> sent_bytes(
      socket_id sock) override {
    if (auto* t = net_.tcb_of(sock)) return t->sent_bytes();
    return std::nullopt;
  }
  status shutdown_write(socket_id sock) override {
    return net_.shutdown_write(sock);
  }
  status close(socket_id sock) override { return net_.close(sock); }
  status abort(socket_id sock) override { return net_.abort(sock); }

  [[nodiscard]] result<socket_id> udp_open(std::uint16_t port) override {
    return net_.udp_open(port);
  }
  [[nodiscard]] result<std::size_t> udp_send_to(socket_id sock,
                                                net::socket_addr dest,
                                                buffer data) override {
    return net_.udp_send_to(sock, dest, std::move(data));
  }
  [[nodiscard]] result<std::pair<net::socket_addr, buffer>> udp_recv_from(
      socket_id sock) override {
    return net_.udp_recv_from(sock);
  }

  void set_event_handler(netstack::event_handler handler) override {
    net_.set_event_handler(std::move(handler));
  }

  [[nodiscard]] std::optional<net::socket_addr> remote_of(
      socket_id sock) override {
    if (auto* t = net_.tcb_of(sock)) return t->tuple().remote;
    return std::nullopt;
  }

  [[nodiscard]] std::optional<obs::nk_flow_info> flow_info(
      socket_id sock) override {
    return net_.flow_info(sock);
  }

 private:
  netstack& net_;
};

}  // namespace nk::stack
