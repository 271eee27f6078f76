#include "stack/netstack.hpp"

#include "obs/profiler.hpp"

#include <cassert>

namespace nk::stack {

netstack::netstack(sim::simulator& s, netstack_config cfg, net::ipv4_addr addr)
    : sim_{s},
      cfg_{std::move(cfg)},
      addr_{addr},
      next_ephemeral_{ephemeral_base} {}

netstack::~netstack() {
  dispatch_.cancel();
  for (auto& reap : reaps_) reap.cancel();
}

void netstack::bind_nic(phys::nic& dev) {
  dev_ = &dev;
  dev.set_receive_handler([this](net::packet p) { packet_arrived(std::move(p)); });
}

void netstack::add_core(sim::cpu_core& core) { cores_.push_back(&core); }

void netstack::register_metrics(obs::metrics_registry& reg,
                                const std::string& prefix) {
  reg.register_gauge_fn(prefix + "_tx_packets",
                        [this] { return double(stats_.tx_packets); });
  reg.register_gauge_fn(prefix + "_tx_bursts",
                        [this] { return double(stats_.tx_bursts); });
  reg.register_gauge_fn(prefix + "_rx_packets",
                        [this] { return double(stats_.rx_packets); });
  reg.register_gauge_fn(prefix + "_rx_no_socket",
                        [this] { return double(stats_.rx_no_socket); });
  reg.register_gauge_fn(prefix + "_resets_sent",
                        [this] { return double(stats_.resets_sent); });
  reg.register_gauge_fn(prefix + "_connections_opened",
                        [this] { return double(stats_.connections_opened); });
  reg.register_gauge_fn(prefix + "_connections_accepted",
                        [this] { return double(stats_.connections_accepted); });
  reg.register_gauge_fn(prefix + "_open_sockets",
                        [this] { return double(sockets_.size()); });
}

sim::cpu_core* netstack::pick_core() {
  if (cores_.empty()) return nullptr;
  sim::cpu_core* core = cores_[next_core_ % cores_.size()];
  ++next_core_;
  return core;
}

// --- event plumbing -----------------------------------------------------------

void netstack::push_event(socket_event ev) {
  events_.push_back(ev);
  if (handler_ && !dispatch_.pending()) {
    // Deliver from a fresh simulator event so application callbacks never
    // run re-entrantly inside TCP processing.
    dispatch_ = sim_.schedule(sim_time::zero(), [this] { dispatch_events(); });
  }
}

void netstack::dispatch_events() {
  while (handler_ && !events_.empty()) {
    socket_event ev = events_.front();
    events_.pop_front();
    handler_(ev);
  }
}

void netstack::set_event_handler(event_handler handler) {
  handler_ = std::move(handler);
  if (handler_ && !events_.empty() && !dispatch_.pending()) {
    dispatch_ = sim_.schedule(sim_time::zero(), [this] { dispatch_events(); });
  }
}

// --- port allocation -----------------------------------------------------------

result<std::uint16_t> netstack::allocate_ephemeral_port() {
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const std::uint16_t port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ >= 65535 ? ephemeral_base
                                               : next_ephemeral_ + 1;
    if (!tcp_listeners_.contains(port)) {
      // A port may still collide on the full 4-tuple; that is checked by
      // the caller when registering in the demux table.
      return port;
    }
  }
  return errc::resource_exhausted;
}

// --- TCP socket management -------------------------------------------------------

socket_id netstack::make_connection(net::four_tuple tuple,
                                    const tcp::tcp_config& cfg,
                                    socket_id listener) {
  const socket_id sock = next_socket_++;
  connection_state conn;
  conn.core = pick_core();
  conn.listener = listener;

  tcp::tcb::environment env;
  env.sim = &sim_;
  sim::cpu_core* core = conn.core;
  env.emit = [this, core](std::span<net::packet> burst) {
    transmit(core, burst);
  };
  env.on_connected = [this, sock] {
    push_event({sock, socket_event_type::connected, errc::ok});
  };
  env.on_accept_ready = [this, sock, listener] {
    auto* entry = connection_of(sock);
    if (entry == nullptr || entry->reported_established) return;
    entry->reported_established = true;
    if (auto it = sockets_.find(listener); it != sockets_.end()) {
      auto& ls = std::get<listener_state>(it->second.state);
      if (ls.pending.size() < ls.backlog) {
        ls.pending.push_back(sock);
        ++stats_.connections_accepted;
        push_event({listener, socket_event_type::accept_ready, errc::ok});
        return;
      }
    }
    // Listener vanished or backlog full: refuse the connection.
    if (auto* c = connection_of(sock)) c->tcb->abort();
  };
  env.on_readable = [this, sock] {
    push_event({sock, socket_event_type::readable, errc::ok});
  };
  env.on_writable = [this, sock] {
    push_event({sock, socket_event_type::writable, errc::ok});
  };
  env.on_closed = [this, sock, tuple](errc reason) {
    push_event({sock,
                reason == errc::ok ? socket_event_type::closed
                                   : socket_event_type::error,
                reason});
    tcp_demux_.erase(tuple);
    // Reap the socket entry once the tcb has unwound (we may be inside one
    // of its member functions right now).
    while (!reaps_.empty() && !reaps_.front().pending()) reaps_.pop_front();
    reaps_.push_back(sim_.schedule(sim_time::zero(), [this, sock] {
      if (auto* c = connection_of(sock);
          c != nullptr && c->tcb->state() == tcp::tcp_state::closed) {
        sockets_.erase(sock);
      }
    }));
  };

  const auto iss = static_cast<std::uint32_t>(sim_.random().next_u64());
  conn.tcb = std::make_unique<tcp::tcb>(std::move(env), cfg, tuple, iss);

  sockets_[sock] = socket_entry{std::move(conn)};
  tcp_demux_[tuple] = sock;
  return sock;
}

result<socket_id> netstack::listen(std::uint16_t port,
                                   std::optional<tcp::tcp_config> cfg) {
  if (port == 0) return errc::invalid_argument;
  if (tcp_listeners_.contains(port)) return errc::in_use;
  const socket_id sock = next_socket_++;
  listener_state ls;
  ls.port = port;
  ls.cfg = cfg.value_or(cfg_.tcp);
  sockets_[sock] = socket_entry{std::move(ls)};
  tcp_listeners_[port] = sock;
  return sock;
}

result<socket_id> netstack::connect(net::socket_addr remote,
                                    std::optional<tcp::tcp_config> cfg) {
  auto port = allocate_ephemeral_port();
  if (!port) return port.error();
  const net::four_tuple tuple{{addr_, port.value()}, remote};
  if (tcp_demux_.contains(tuple)) return errc::in_use;
  const socket_id sock = make_connection(tuple, cfg.value_or(cfg_.tcp), 0);
  ++stats_.connections_opened;
  connection_of(sock)->tcb->connect();
  return sock;
}

result<socket_id> netstack::accept(socket_id listener) {
  auto it = sockets_.find(listener);
  if (it == sockets_.end()) return errc::not_found;
  auto* ls = std::get_if<listener_state>(&it->second.state);
  if (ls == nullptr) return errc::invalid_argument;
  while (!ls->pending.empty()) {
    const socket_id sock = ls->pending.front();
    ls->pending.pop_front();
    if (sockets_.contains(sock)) return sock;  // skip died-in-backlog conns
  }
  return errc::would_block;
}

netstack::connection_state* netstack::connection_of(socket_id sock) {
  auto it = sockets_.find(sock);
  if (it == sockets_.end()) return nullptr;
  return std::get_if<connection_state>(&it->second.state);
}

const netstack::connection_state* netstack::connection_of(
    socket_id sock) const {
  auto it = sockets_.find(sock);
  if (it == sockets_.end()) return nullptr;
  return std::get_if<connection_state>(&it->second.state);
}

result<std::size_t> netstack::send(socket_id sock, buffer data) {
  auto* conn = connection_of(sock);
  if (conn == nullptr) return errc::not_found;
  return conn->tcb->send(std::move(data));
}

result<buffer> netstack::recv(socket_id sock, std::size_t max) {
  auto* conn = connection_of(sock);
  if (conn == nullptr) return errc::not_found;
  buffer out = conn->tcb->receive(max);
  if (out.empty() && conn->tcb->eof_pending()) return errc::closed;
  if (out.empty()) return errc::would_block;
  return out;
}

status netstack::shutdown_write(socket_id sock) {
  auto* conn = connection_of(sock);
  if (conn == nullptr) return errc::not_found;
  conn->tcb->shutdown_write();
  return {};
}

status netstack::close(socket_id sock) {
  auto it = sockets_.find(sock);
  if (it == sockets_.end()) return errc::not_found;
  if (auto* ls = std::get_if<listener_state>(&it->second.state)) {
    tcp_listeners_.erase(ls->port);
    sockets_.erase(it);
    return {};
  }
  if (auto* us = std::get_if<udp_state>(&it->second.state)) {
    udp_ports_.erase(us->port);
    sockets_.erase(it);
    return {};
  }
  auto* conn = std::get_if<connection_state>(&it->second.state);
  conn->tcb->close();
  // The entry stays until the state machine reaches CLOSED; if it already
  // is (e.g. close() during handshake), reap now.
  if (conn->tcb->state() == tcp::tcp_state::closed) {
    tcp_demux_.erase(conn->tcb->tuple());
    sockets_.erase(it);
  }
  return {};
}

status netstack::abort(socket_id sock) {
  auto it = sockets_.find(sock);
  if (it == sockets_.end()) return errc::not_found;
  if (auto* ls = std::get_if<listener_state>(&it->second.state)) {
    // The connections nobody accepted yet die with their listener.
    const std::deque<socket_id> pending = std::move(ls->pending);
    (void)close(sock);
    for (const socket_id child : pending) (void)abort(child);
    return {};
  }
  auto* conn = std::get_if<connection_state>(&it->second.state);
  if (conn == nullptr) return close(sock);  // a datagram socket unbinds
  conn->tcb->abort();
  tcp_demux_.erase(conn->tcb->tuple());
  sockets_.erase(sock);
  return {};
}

bool netstack::eof(socket_id sock) const {
  const auto* conn = connection_of(sock);
  return conn == nullptr || conn->tcb->eof_pending();
}

tcp::tcb* netstack::tcb_of(socket_id sock) {
  auto* conn = connection_of(sock);
  return conn ? conn->tcb.get() : nullptr;
}

std::optional<std::uint64_t> netstack::acked_bytes(socket_id sock) {
  if (auto* t = tcb_of(sock)) return t->acked_bytes();
  return std::nullopt;
}

std::optional<std::uint64_t> netstack::sent_bytes(socket_id sock) {
  if (auto* t = tcb_of(sock)) return t->sent_bytes();
  return std::nullopt;
}

std::optional<net::socket_addr> netstack::remote_of(socket_id sock) {
  if (auto* t = tcb_of(sock)) return t->tuple().remote;
  return std::nullopt;
}

std::optional<obs::nk_flow_info> netstack::flow_info(socket_id sock) {
  tcp::tcb* t = tcb_of(sock);
  if (t == nullptr) return std::nullopt;
  return t->flow_info();
}

// --- UDP -----------------------------------------------------------------------

result<socket_id> netstack::udp_open(std::uint16_t port) {
  if (port == 0) {
    auto ephemeral = allocate_ephemeral_port();
    if (!ephemeral) return ephemeral.error();
    port = ephemeral.value();
  }
  if (udp_ports_.contains(port)) return errc::in_use;
  const socket_id sock = next_socket_++;
  udp_state us;
  us.port = port;
  sockets_[sock] = socket_entry{std::move(us)};
  udp_ports_[port] = sock;
  return sock;
}

result<std::size_t> netstack::udp_send_to(socket_id sock,
                                          net::socket_addr dest, buffer data) {
  auto it = sockets_.find(sock);
  if (it == sockets_.end()) return errc::not_found;
  auto* us = std::get_if<udp_state>(&it->second.state);
  if (us == nullptr) return errc::invalid_argument;

  net::packet p;
  p.ip.src = addr_;
  p.ip.dst = dest.ip;
  p.ip.proto = net::ip_proto::udp;
  net::udp_header h;
  h.src_port = us->port;
  h.dst_port = dest.port;
  p.l4 = h;
  const std::size_t len = data.size();
  p.payload = std::move(data);
  transmit(pick_core(), {&p, 1});
  return len;
}

result<std::pair<net::socket_addr, buffer>> netstack::udp_recv_from(
    socket_id sock) {
  auto it = sockets_.find(sock);
  if (it == sockets_.end()) return errc::not_found;
  auto* us = std::get_if<udp_state>(&it->second.state);
  if (us == nullptr) return errc::invalid_argument;
  if (us->rx.empty()) return errc::would_block;
  auto dgram = std::move(us->rx.front());
  us->rx.pop_front();
  return dgram;
}

// --- data path --------------------------------------------------------------------

void netstack::transmit(sim::cpu_core* core, std::span<net::packet> burst) {
  NK_PROF("netstack", "tx");
  stats_.tx_packets += burst.size();
  ++stats_.tx_bursts;
  std::size_t bytes = 0;
  for (const auto& p : burst) bytes += p.wire_size();
  const sim_time cost = cfg_.tx_cost.of(bytes);
  if (core == nullptr || cost == sim_time::zero()) {
    for (auto& p : burst) send_frame(std::move(p));
    return;
  }
  // GSO: the burst pays the per-packet cost once, then leaves as the
  // MSS-sized frames it was built from. The frames wait on the core's
  // queue, not in the completion, so std::function holds the completion
  // without allocating; the core runs its work in FIFO order, so each
  // completion releases the oldest burst on its queue.
  tx_queue& q = tx_queues_[core];
  q.burst_sizes.push_back(burst.size());
  for (auto& p : burst) q.frames.push_back(std::move(p));
  core->execute(cost, [this, &q] {
    for (std::size_t n = q.burst_sizes.front(); n > 0; --n) {
      send_frame(std::move(q.frames.front()));
      q.frames.pop_front();
    }
    q.burst_sizes.pop_front();
  });
}

void netstack::send_frame(net::packet p) {
  if (dev_ != nullptr) dev_->transmit(std::move(p));
}

void netstack::send_rst_for(const net::packet& p) {
  if (!p.is_tcp() || p.tcp().flags.rst) return;
  ++stats_.resets_sent;
  net::packet rst;
  rst.ip.src = addr_;
  rst.ip.dst = p.ip.src;
  rst.ip.proto = net::ip_proto::tcp;
  net::tcp_header h;
  h.src_port = p.tcp().dst_port;
  h.dst_port = p.tcp().src_port;
  h.seq = p.tcp().ack;
  h.ack = p.tcp().seq + static_cast<std::uint32_t>(p.payload.size()) +
          (p.tcp().flags.syn ? 1 : 0) + (p.tcp().flags.fin ? 1 : 0);
  h.flags.rst = true;
  h.flags.ack = true;
  rst.l4 = h;
  transmit(nullptr, {&rst, 1});
}

void netstack::packet_arrived(net::packet p) {
  NK_PROF("netstack", "rx");
  ++stats_.rx_packets;
  if (p.is_tcp()) {
    deliver_tcp(std::move(p));
  } else {
    deliver_udp(std::move(p));
  }
}

void netstack::deliver_tcp(net::packet p) {
  const net::four_tuple tuple = p.tuple_at_receiver();

  socket_id sock = 0;
  if (auto it = tcp_demux_.find(tuple); it != tcp_demux_.end()) {
    sock = it->second;
  } else if (p.tcp().flags.syn && !p.tcp().flags.ack) {
    // New connection attempt: look for a listener.
    auto lit = tcp_listeners_.find(p.tcp().dst_port);
    if (lit == tcp_listeners_.end()) {
      ++stats_.rx_no_socket;
      send_rst_for(p);
      return;
    }
    auto& ls = std::get<listener_state>(sockets_[lit->second].state);
    sock = make_connection(tuple, ls.cfg, lit->second);
    auto* conn = connection_of(sock);
    const sim_time cost = cfg_.rx_cost.of(p.wire_size());
    sim::cpu_core* core = conn->core;
    if (core != nullptr && cost > sim_time::zero()) {
      core->execute(cost, [this, sock, p = std::move(p)]() mutable {
        if (auto* c = connection_of(sock)) c->tcb->accept_from_syn(p);
      });
    } else {
      conn->tcb->accept_from_syn(p);
    }
    return;
  } else {
    ++stats_.rx_no_socket;
    send_rst_for(p);
    return;
  }

  auto* conn = connection_of(sock);
  if (conn == nullptr) return;
  const sim_time cost = cfg_.rx_cost.of(p.wire_size());
  sim::cpu_core* core = conn->core;
  if (core != nullptr && cost > sim_time::zero()) {
    core->execute(cost, [this, sock, p = std::move(p)]() mutable {
      if (auto* c = connection_of(sock)) {
        c->tcb->segment_arrived(p);
        if (c->tcb->state() == tcp::tcp_state::closed) sockets_.erase(sock);
      }
    });
    return;
  }
  conn->tcb->segment_arrived(p);
  if (conn->tcb->state() == tcp::tcp_state::closed) sockets_.erase(sock);
}

void netstack::deliver_udp(net::packet p) {
  auto it = udp_ports_.find(p.udp().dst_port);
  if (it == udp_ports_.end()) {
    ++stats_.rx_no_socket;
    return;
  }
  auto& us = std::get<udp_state>(sockets_[it->second].state);
  const net::socket_addr from{p.ip.src, p.udp().src_port};
  us.rx.emplace_back(from, std::move(p.payload));
  push_event({it->second, socket_event_type::readable, errc::ok});
}

}  // namespace nk::stack
