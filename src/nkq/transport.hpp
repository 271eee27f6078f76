// nkq_transport: the stack::transport implementation for the tenant-defined
// "nkq" protocol. Connections ride the base netstack's UDP plane — the
// listener owns one UDP socket per port, clients one ephemeral UDP socket
// per connection — and demultiplex by the 64-bit connection ID in every
// datagram header, so NAT-style rebinding of the peer's UDP port is
// harmless.
//
// 0-RTT resumption: the server mints `token_for(client_addr)` (a keyed hash
// over a per-transport secret) in the accept packet; the client caches it
// per destination and presents it on the next connect, making the new
// connection writable immediately. Validation is stateless — no server-side
// token table to exhaust.
//
// Cost model: tx charges through netstack::udp_send_to (same per-packet +
// per-byte pricing every guest pays); rx inherits deliver_udp's
// zero-rx-cost semantics. Plain UDP sockets pass through to the base stack
// untouched, with events forwarded to the upstream handler.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "nkq/connection.hpp"
#include "stack/netstack.hpp"
#include "stack/transport.hpp"

namespace nk::nkq {

struct nkq_transport_stats {
  std::uint64_t handshakes_cold = 0;     // server accepts without a token
  std::uint64_t handshakes_resumed = 0;  // server accepts with a valid token
  std::uint64_t zero_rtt_connects = 0;   // client connects using a cached token
  std::uint64_t tokens_issued = 0;
  std::uint64_t tokens_rejected = 0;  // presented token failed validation
  std::uint64_t decode_errors = 0;    // datagrams decode() refused
  std::uint64_t no_connection = 0;    // valid packet, unknown conn_id
};

class nkq_transport final : public stack::transport {
 public:
  explicit nkq_transport(stack::netstack& base, nkq_config cfg = {});
  ~nkq_transport() override;  // cancels the pending dispatch and reaps

  [[nodiscard]] std::string_view kind() const override { return "nkq"; }

  [[nodiscard]] result<stack::socket_id> listen(
      std::uint16_t port, std::optional<tcp::tcp_config> cfg = {}) override;
  [[nodiscard]] result<stack::socket_id> connect(
      net::socket_addr remote,
      std::optional<tcp::tcp_config> cfg = {}) override;
  [[nodiscard]] result<stack::socket_id> accept(
      stack::socket_id listener) override;
  [[nodiscard]] result<std::size_t> send(stack::socket_id sock,
                                         buffer data) override;
  [[nodiscard]] result<buffer> recv(stack::socket_id sock,
                                    std::size_t max) override;
  [[nodiscard]] std::optional<std::uint64_t> acked_bytes(
      stack::socket_id sock) override;
  [[nodiscard]] std::optional<std::uint64_t> sent_bytes(
      stack::socket_id sock) override;
  status shutdown_write(stack::socket_id sock) override;
  status close(stack::socket_id sock) override;
  status abort(stack::socket_id sock) override;

  [[nodiscard]] result<stack::socket_id> udp_open(
      std::uint16_t port = 0) override;
  [[nodiscard]] result<std::size_t> udp_send_to(stack::socket_id sock,
                                                net::socket_addr dest,
                                                buffer data) override;
  [[nodiscard]] result<std::pair<net::socket_addr, buffer>> udp_recv_from(
      stack::socket_id sock) override;

  void set_event_handler(event_handler handler) override;

  [[nodiscard]] std::optional<net::socket_addr> remote_of(
      stack::socket_id sock) override;
  [[nodiscard]] std::optional<obs::nk_flow_info> flow_info(
      stack::socket_id sock) override;

  void register_metrics(obs::metrics_registry& reg,
                        const std::string& prefix) override;

  [[nodiscard]] const nkq_transport_stats& stats() const { return stats_; }

 private:
  struct listener_sock {
    stack::socket_id usock = 0;  // base-stack UDP socket bound to `port`
    std::uint16_t port = 0;
    nkq_config cfg{};
    std::deque<stack::socket_id> pending;  // accepted-but-unclaimed children
  };
  struct conn_sock {
    std::unique_ptr<connection> conn;
    stack::socket_id usock = 0;  // own (client) or the listener's (server)
    net::socket_addr remote{};
    stack::socket_id listener = 0;  // 0 for active opens
    bool server = false;
    bool closing = false;  // app closed; draining, reap when terminal
  };

  // The per-socket options applied onto the transport's defaults.
  [[nodiscard]] nkq_config derive_config(
      const std::optional<tcp::tcp_config>& cfg) const;
  [[nodiscard]] std::uint64_t token_for(net::socket_addr peer) const;
  void on_base_event(const stack::socket_event& ev);
  void drain_datagrams(stack::socket_id usock);
  void handle_datagram(stack::socket_id usock, net::socket_addr from,
                       const wire_packet& p);
  [[nodiscard]] stack::socket_id spawn_server_connection(
      stack::socket_id listener_id, net::socket_addr from,
      const wire_packet& first);
  [[nodiscard]] connection::callbacks callbacks_for(stack::socket_id sock);
  void push_event(stack::socket_event ev);
  void dispatch_events();
  void reap(stack::socket_id sock);
  // Reaps `sock` from a fresh event (we may be inside its connection).
  void reap_later(stack::socket_id sock);

  stack::netstack& net_;
  nkq_config defaults_;
  std::uint64_t secret_;  // token-minting key, derived from the stack address

  stack::socket_id next_socket_ = std::uint64_t{1} << 32;
  std::uint64_t next_conn_id_ = 1;
  std::unordered_map<stack::socket_id, listener_sock> listeners_;
  std::unordered_map<stack::socket_id, conn_sock> conns_;
  std::unordered_map<std::uint64_t, stack::socket_id> by_conn_;  // conn_id ->
  // base UDP socket -> owning listener (server demux) or connection (client).
  std::unordered_map<stack::socket_id, stack::socket_id> usock_owner_;
  std::unordered_map<net::socket_addr, std::uint64_t> token_cache_;

  event_handler upstream_;
  std::deque<stack::socket_event> events_;
  sim::timer dispatch_;
  std::deque<sim::timer> reaps_;  // zero-delay, so fired ones lead

  nkq_transport_stats stats_;
};

}  // namespace nk::nkq
