#include "nkq/transport.hpp"

#include <algorithm>
#include <utility>

#include "common/hash.hpp"

namespace nk::nkq {

nkq_transport::nkq_transport(stack::netstack& base, nkq_config cfg)
    : net_{base},
      defaults_{cfg},
      secret_{mix64(0x6e6b71ULL ^ (std::uint64_t{base.address().value} << 17))} {
  net_.set_event_handler([this](const stack::socket_event& ev) {
    on_base_event(ev);
  });
}

nkq_transport::~nkq_transport() {
  dispatch_.cancel();
  for (auto& r : reaps_) r.cancel();
}

nkq_config nkq_transport::derive_config(
    const std::optional<tcp::tcp_config>& cfg) const {
  nkq_config out = defaults_;
  if (cfg.has_value()) {
    out.cc = cfg->cc;
    out.send_buffer = cfg->send_buffer;
    out.recv_buffer = cfg->recv_buffer;
  }
  return out;
}

std::uint64_t nkq_transport::token_for(net::socket_addr peer) const {
  // Keyed on the peer's IP only: a reconnecting client binds a fresh
  // ephemeral port, and the token must still validate (QUIC address
  // validation is per-address, not per-4-tuple).
  return mix64(secret_ ^ std::uint64_t{peer.ip.value}) | 1;
}

// --- socket API ----------------------------------------------------------------

result<stack::socket_id> nkq_transport::listen(
    std::uint16_t port, std::optional<tcp::tcp_config> cfg) {
  auto usock = net_.udp_open(port);
  if (!usock.ok()) return usock.error();
  const stack::socket_id id = next_socket_++;
  listener_sock ls;
  ls.usock = usock.value();
  ls.port = port;
  ls.cfg = derive_config(cfg);
  usock_owner_[usock.value()] = id;
  listeners_.emplace(id, std::move(ls));
  return id;
}

result<stack::socket_id> nkq_transport::connect(
    net::socket_addr remote, std::optional<tcp::tcp_config> cfg) {
  auto usock = net_.udp_open(0);
  if (!usock.ok()) return usock.error();
  const stack::socket_id id = next_socket_++;
  const std::uint64_t conn_id =
      mix64((next_conn_id_++ << 20) ^ std::uint64_t{net_.address().value});
  conn_sock cs;
  cs.usock = usock.value();
  cs.remote = remote;
  cs.server = false;
  cs.conn = std::make_unique<connection>(net_.simulator(), derive_config(cfg),
                                         conn_id, /*server=*/false,
                                         /*issue_token=*/0, callbacks_for(id));
  usock_owner_[usock.value()] = id;
  by_conn_[conn_id] = id;

  std::uint64_t token = 0;
  if (auto it = token_cache_.find(remote); it != token_cache_.end()) {
    token = it->second;
    ++stats_.zero_rtt_connects;
  }
  auto& slot = conns_.emplace(id, std::move(cs)).first->second;
  slot.conn->connect(token);
  return id;
}

result<stack::socket_id> nkq_transport::accept(stack::socket_id listener) {
  auto it = listeners_.find(listener);
  if (it == listeners_.end()) return errc::not_found;
  if (it->second.pending.empty()) return errc::would_block;
  const stack::socket_id child = it->second.pending.front();
  it->second.pending.pop_front();
  return child;
}

result<std::size_t> nkq_transport::send(stack::socket_id sock, buffer data) {
  auto it = conns_.find(sock);
  if (it == conns_.end()) return errc::not_found;
  return it->second.conn->send(std::move(data));
}

result<buffer> nkq_transport::recv(stack::socket_id sock, std::size_t max) {
  auto it = conns_.find(sock);
  if (it == conns_.end()) return errc::not_found;
  return it->second.conn->recv(max);
}

std::optional<std::uint64_t> nkq_transport::acked_bytes(
    stack::socket_id sock) {
  auto it = conns_.find(sock);
  if (it == conns_.end()) return std::nullopt;
  return it->second.conn->acked_bytes();
}

std::optional<std::uint64_t> nkq_transport::sent_bytes(stack::socket_id sock) {
  auto it = conns_.find(sock);
  if (it == conns_.end()) return std::nullopt;
  return it->second.conn->sent_bytes();
}

status nkq_transport::shutdown_write(stack::socket_id sock) {
  auto it = conns_.find(sock);
  if (it == conns_.end()) return errc::not_found;
  it->second.conn->shutdown_write();
  return errc::ok;
}

status nkq_transport::close(stack::socket_id sock) {
  if (auto lit = listeners_.find(sock); lit != listeners_.end()) {
    // Children sharing the listener's UDP socket die with it.
    for (const stack::socket_id child : lit->second.pending) {
      (void)abort(child);
    }
    usock_owner_.erase(lit->second.usock);
    (void)net_.close(lit->second.usock);
    listeners_.erase(lit);
    return errc::ok;
  }
  auto it = conns_.find(sock);
  if (it == conns_.end()) return net_.close(sock);  // a passthrough socket
  // Mark before closing: a synchronous drain completion fires on_closed
  // re-entrantly and must see the flag (suppresses app events, schedules
  // the reap). A connection still draining keeps its demux entries so
  // acks and retransmissions flow until every byte is delivered.
  it->second.closing = true;
  it->second.conn->close();
  if (it->second.conn->state() == conn_state::closed) reap_later(sock);
  return errc::ok;
}

void nkq_transport::reap_later(stack::socket_id sock) {
  while (!reaps_.empty() && !reaps_.front().pending()) reaps_.pop_front();
  reaps_.push_back(net_.simulator().schedule(sim_time::zero(),
                                             [this, sock] { reap(sock); }));
}

void nkq_transport::reap(stack::socket_id sock) {
  auto it = conns_.find(sock);
  if (it == conns_.end()) return;
  by_conn_.erase(it->second.conn->conn_id());
  if (!it->second.server) {
    usock_owner_.erase(it->second.usock);
    (void)net_.close(it->second.usock);
  }
  conns_.erase(it);
}

status nkq_transport::abort(stack::socket_id sock) {
  if (listeners_.contains(sock)) return close(sock);
  auto it = conns_.find(sock);
  if (it == conns_.end()) return net_.abort(sock);  // a passthrough socket
  it->second.conn->abort();
  reap(sock);
  return errc::ok;
}

// --- datagram passthrough ------------------------------------------------------

result<stack::socket_id> nkq_transport::udp_open(std::uint16_t port) {
  return net_.udp_open(port);
}

result<std::size_t> nkq_transport::udp_send_to(stack::socket_id sock,
                                               net::socket_addr dest,
                                               buffer data) {
  return net_.udp_send_to(sock, dest, std::move(data));
}

result<std::pair<net::socket_addr, buffer>> nkq_transport::udp_recv_from(
    stack::socket_id sock) {
  return net_.udp_recv_from(sock);
}

// --- events / rx path ----------------------------------------------------------

void nkq_transport::set_event_handler(event_handler handler) {
  upstream_ = std::move(handler);
}

void nkq_transport::on_base_event(const stack::socket_event& ev) {
  // Internal UDP sockets (listeners + client connections) are drained here;
  // everything else belongs to the guest's passthrough sockets.
  if (ev.type == stack::socket_event_type::readable &&
      usock_owner_.contains(ev.sock)) {
    drain_datagrams(ev.sock);
    return;
  }
  if (upstream_) upstream_(ev);
}

void nkq_transport::drain_datagrams(stack::socket_id usock) {
  while (true) {
    auto dg = net_.udp_recv_from(usock);
    if (!dg.ok()) break;
    auto decoded = decode(dg.value().second);
    if (!decoded.has_value()) {
      ++stats_.decode_errors;
      continue;
    }
    handle_datagram(usock, dg.value().first, decoded.value());
  }
}

void nkq_transport::handle_datagram(stack::socket_id usock,
                                    net::socket_addr from,
                                    const wire_packet& p) {
  if (auto it = by_conn_.find(p.conn_id); it != by_conn_.end()) {
    auto cit = conns_.find(it->second);
    if (cit != conns_.end()) {
      cit->second.remote = from;  // follow peer rebinding
      cit->second.conn->on_packet(p);
    }
    return;
  }
  // Unknown conn_id: only an initial on a listener's socket creates state.
  const auto oit = usock_owner_.find(usock);
  if (oit == usock_owner_.end()) return;
  auto lit = listeners_.find(oit->second);
  if (lit == listeners_.end() || p.type != packet_type::initial) {
    ++stats_.no_connection;
    return;
  }
  (void)spawn_server_connection(oit->second, from, p);
}

stack::socket_id nkq_transport::spawn_server_connection(
    stack::socket_id listener_id, net::socket_addr from,
    const wire_packet& first) {
  auto& ls = listeners_.at(listener_id);
  const stack::socket_id id = next_socket_++;
  conn_sock cs;
  cs.usock = ls.usock;
  cs.remote = from;
  cs.listener = listener_id;
  cs.server = true;
  const std::uint64_t expect = token_for(from);
  const bool resumed = first.token != 0 && first.token == expect;
  if (first.token != 0 && !resumed) ++stats_.tokens_rejected;
  resumed ? ++stats_.handshakes_resumed : ++stats_.handshakes_cold;
  ++stats_.tokens_issued;
  cs.conn = std::make_unique<connection>(
      net_.simulator(), ls.cfg, first.conn_id, /*server=*/true,
      /*issue_token=*/expect, callbacks_for(id));
  if (resumed) cs.conn->mark_resumed();
  by_conn_[first.conn_id] = id;
  auto& slot = conns_.emplace(id, std::move(cs)).first->second;
  ls.pending.push_back(id);
  push_event({listener_id, stack::socket_event_type::accept_ready, errc::ok});
  slot.conn->on_packet(first);
  return id;
}

connection::callbacks nkq_transport::callbacks_for(stack::socket_id sock) {
  connection::callbacks cb;
  cb.emit = [this, sock](buffer datagram) {
    auto it = conns_.find(sock);
    if (it == conns_.end()) return;
    (void)net_.udp_send_to(it->second.usock, it->second.remote,
                           std::move(datagram));
  };
  cb.on_connected = [this, sock] {
    auto it = conns_.find(sock);
    if (it == conns_.end() || it->second.server) return;
    push_event({sock, stack::socket_event_type::connected, errc::ok});
  };
  cb.on_readable = [this, sock] {
    push_event({sock, stack::socket_event_type::readable, errc::ok});
  };
  cb.on_writable = [this, sock] {
    push_event({sock, stack::socket_event_type::writable, errc::ok});
  };
  cb.on_token = [this, sock](std::uint64_t token) {
    auto it = conns_.find(sock);
    if (it == conns_.end()) return;
    token_cache_[it->second.remote] = token;
  };
  cb.on_closed = [this, sock](errc err) {
    if (auto it = conns_.find(sock);
        it != conns_.end() && it->second.closing) {
      // Locally-initiated close finished draining (or timed out): tear the
      // entry down off this frame. The event still goes up — ServiceLib
      // holds the unacknowledged bytes' chunks until it hears the end.
      reap_later(sock);
    }
    if (err == errc::ok) {
      push_event({sock, stack::socket_event_type::closed, errc::ok});
    } else {
      push_event({sock, stack::socket_event_type::error, err});
    }
  };
  return cb;
}

void nkq_transport::push_event(stack::socket_event ev) {
  events_.push_back(ev);
  if (dispatch_.pending()) return;
  dispatch_ = net_.simulator().schedule(sim_time::zero(),
                                        [this] { dispatch_events(); });
}

void nkq_transport::dispatch_events() {
  while (!events_.empty()) {
    const stack::socket_event ev = events_.front();
    events_.pop_front();
    if (upstream_) upstream_(ev);
  }
}

// --- introspection -------------------------------------------------------------

std::optional<net::socket_addr> nkq_transport::remote_of(
    stack::socket_id sock) {
  auto it = conns_.find(sock);
  if (it == conns_.end()) return std::nullopt;
  return it->second.remote;
}

std::optional<obs::nk_flow_info> nkq_transport::flow_info(
    stack::socket_id sock) {
  auto it = conns_.find(sock);
  if (it == conns_.end()) return std::nullopt;
  return it->second.conn->flow_info();
}

void nkq_transport::register_metrics(obs::metrics_registry& reg,
                                     const std::string& prefix) {
  const auto g = [&](const char* name, auto getter) {
    reg.register_gauge_fn(prefix + name, [this, getter] {
      return static_cast<double>(getter(*this));
    });
  };
  g("_handshakes_cold",
    [](const nkq_transport& t) { return t.stats_.handshakes_cold; });
  g("_handshakes_resumed",
    [](const nkq_transport& t) { return t.stats_.handshakes_resumed; });
  g("_zero_rtt_connects",
    [](const nkq_transport& t) { return t.stats_.zero_rtt_connects; });
  g("_tokens_issued",
    [](const nkq_transport& t) { return t.stats_.tokens_issued; });
  g("_tokens_rejected",
    [](const nkq_transport& t) { return t.stats_.tokens_rejected; });
  g("_decode_errors",
    [](const nkq_transport& t) { return t.stats_.decode_errors; });
  g("_no_connection",
    [](const nkq_transport& t) { return t.stats_.no_connection; });
  g("_connections",
    [](const nkq_transport& t) { return t.conns_.size(); });
}

}  // namespace nk::nkq
