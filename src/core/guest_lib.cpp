#include "core/guest_lib.hpp"

#include <algorithm>
#include <cstring>

#include "core/core_engine.hpp"
#include "obs/profiler.hpp"
#include "shm/steering.hpp"

namespace nk::core {

namespace {
constexpr std::size_t drain_batch = 128;
}

guest_lib::guest_lib(virt::machine& vm, channel& ch, core_engine& engine,
                     const netkernel_costs& costs, const notify_config& ncfg,
                     obs::nqe_tracer* tracer, const guest_lib_config& cfg)
    : vm_{vm},
      ch_{ch},
      engine_{engine},
      costs_{costs},
      cfg_{cfg},
      tracer_{tracer} {
  job_lanes_.reserve(ch.shards());
  for (std::size_t s = 0; s < ch.shards(); ++s) {
    job_lanes_.emplace_back(ch.vm_q(s).job);
  }
  pump_ = std::make_unique<queue_pump>(engine.simulator(), ncfg,
                                       [this] { return drain(); });
  pump_->start();
}

guest_lib::~guest_lib() = default;

sim::cpu_core* guest_lib::pick_core() {
  const auto& cores = vm_.vcpus();
  if (cores.empty()) return nullptr;
  sim::cpu_core* core = cores[next_core_ % cores.size()];
  ++next_core_;
  return core;
}

guest_lib::g_socket* guest_lib::socket_of(std::uint32_t fd) {
  auto it = sockets_.find(fd);
  return it == sockets_.end() ? nullptr : &it->second;
}

const guest_lib::g_socket* guest_lib::socket_of(std::uint32_t fd) const {
  auto it = sockets_.find(fd);
  return it == sockets_.end() ? nullptr : &it->second;
}

void guest_lib::submit(const g_socket& gs, shm::nqe e, sim_time extra_cost) {
  NK_PROF("guestlib", "submit");
  ++stats_.ops_issued;
  e.owner = vm_.id();
  const sim_time cost = costs_.guestlib_per_op + extra_cost;
  if (gs.core != nullptr) {
    gs.core->execute(cost, [this, e, s = gs.shard] { enqueue_job(s, e); });
    return;
  }
  enqueue_job(gs.shard, e);
}

void guest_lib::enqueue_job(std::size_t shard, shm::nqe e) {
  // Trace begins at the moment the nqe is bound for the VM-side job queue
  // (after the GuestLib interception cost), whether it lands on the ring
  // immediately or waits in the lane's stage.
  if (tracer_ != nullptr) {
    tracer_->maybe_begin(e, /*reverse=*/false, vm_.id(), ch_.nsm);
  }
  // Uncapped: jobs are never dropped; lane_backlogged gates the app instead.
  if (job_lanes_[shard].push(e, shm::staged_lane::no_cap) ==
      shm::push_result::ring) {
    engine_.notify_from_vm(vm_.id(), shard);
    return;
  }
  ++stats_.jobs_deferred;
}

std::size_t guest_lib::flush_job_lanes() {
  std::size_t n = 0;
  for (std::size_t s = 0; s < job_lanes_.size(); ++s) {
    const std::size_t lane_n = job_lanes_[s].flush();
    if (lane_n > 0) engine_.notify_from_vm(vm_.id(), s);
    n += lane_n;
  }
  // A backlog cleared below the gate: sockets blocked on their lane can
  // write again (wake_writers re-checks per socket).
  if (n > 0) wake_writers();
  return n;
}

void guest_lib::wake_writers() {
  std::vector<std::uint32_t> ready;
  for (auto& [fd, gs] : sockets_) {
    if (gs.writable_blocked && gs.inflight < cfg_.send_credit &&
        !lane_backlogged(gs.shard)) {
      gs.writable_blocked = false;
      ready.push_back(fd);
    }
  }
  for (const std::uint32_t fd : ready) {
    emit_event(fd, stack::socket_event_type::writable);
  }
}

void guest_lib::free_chunk(const shm::data_descriptor& desc) {
  // GuestLib shares the pool with ServiceLib, so a consumed chunk goes
  // straight back to the free list; a read ServiceLib stalled on chunks
  // sees it on its next re-drain.
  (void)ch_.pool.free(desc.chunk);
  ++stats_.chunks_freed_local;
}

void guest_lib::free_rx(g_socket& gs) {
  for (const auto& item : gs.rx) free_chunk(item.desc);
  for (const auto& item : gs.udp_rx) free_chunk(item.desc);
  gs.rx.clear();
  gs.udp_rx.clear();
  gs.rx_bytes = 0;
}

void guest_lib::set_flow_shard(std::uint32_t fd, std::size_t shard) {
  if (auto* gs = socket_of(fd); gs != nullptr && shard < job_lanes_.size()) {
    gs->shard = shard;
  }
}

// --- socket API ---------------------------------------------------------------------

result<std::uint32_t> guest_lib::nk_socket() {
  const std::uint32_t fd = next_fd_++;
  g_socket gs;
  gs.core = pick_core();
  gs.shard = shm::flow_shard(vm_.id(), fd, ch_.shards());
  auto [it, inserted] = sockets_.emplace(fd, gs);

  shm::nqe e;
  e.op = shm::nqe_op::req_socket;
  e.handle = fd;
  e.token = fd;
  submit(it->second, e, sim_time::zero());
  return fd;
}

status guest_lib::nk_bind(std::uint32_t fd, std::uint16_t port) {
  auto* gs = socket_of(fd);
  if (gs == nullptr) return errc::not_found;
  if (gs->ph != phase::fresh) return errc::invalid_argument;
  gs->ph = phase::bound;
  gs->port = port;

  shm::nqe e;
  e.op = shm::nqe_op::req_bind;
  e.handle = fd;
  e.arg0 = port;
  submit(*gs, e, sim_time::zero());
  return {};
}

status guest_lib::nk_listen(std::uint32_t fd, int backlog) {
  auto* gs = socket_of(fd);
  if (gs == nullptr) return errc::not_found;
  if (gs->ph != phase::bound) return errc::invalid_argument;
  gs->ph = phase::listening;

  shm::nqe e;
  e.op = shm::nqe_op::req_listen;
  e.handle = fd;
  e.arg0 = static_cast<std::uint64_t>(backlog);
  submit(*gs, e, sim_time::zero());
  return {};
}

status guest_lib::nk_connect(std::uint32_t fd, net::socket_addr remote) {
  auto* gs = socket_of(fd);
  if (gs == nullptr) return errc::not_found;
  if (gs->ph == phase::connected || gs->ph == phase::connecting) {
    return errc::already_connected;
  }
  gs->ph = phase::connecting;
  gs->remote = remote;
  gs->connect_attempts = 1;

  shm::nqe e;
  e.op = shm::nqe_op::req_connect;
  e.handle = fd;
  e.arg0 = remote.ip.value;
  e.arg1 = remote.port;
  submit(*gs, e, sim_time::zero());
  arm_connect_deadline(fd);
  return {};
}

void guest_lib::arm_connect_deadline(std::uint32_t fd) {
  if (cfg_.connect_timeout <= sim_time::zero()) return;
  engine_.simulator().schedule(cfg_.connect_timeout,
                               [this, fd] { connect_deadline_expired(fd); });
}

void guest_lib::connect_deadline_expired(std::uint32_t fd) {
  auto* gs = socket_of(fd);
  // Completed, failed, or closed in the meantime: the deadline is moot.
  if (gs == nullptr || gs->ph != phase::connecting) return;
  if (gs->connect_attempts <= cfg_.connect_retries) {
    // Resubmit: idempotent at ServiceLib against a live module, and the
    // only way to reach a replacement module after an aborted attempt.
    ++gs->connect_attempts;
    ++stats_.ops_retried;
    shm::nqe e;
    e.op = shm::nqe_op::req_connect;
    e.handle = fd;
    e.arg0 = gs->remote.ip.value;
    e.arg1 = gs->remote.port;
    submit(*gs, e, sim_time::zero());
    arm_connect_deadline(fd);
    return;
  }
  ++stats_.ops_timed_out;
  gs->ph = phase::failed;
  gs->err = errc::timed_out;
  emit_event(fd, stack::socket_event_type::error, gs->err);
}

result<std::uint32_t> guest_lib::nk_accept(std::uint32_t listener_fd) {
  auto* gs = socket_of(listener_fd);
  if (gs == nullptr) return errc::not_found;
  if (gs->ph != phase::listening) return errc::invalid_argument;
  if (gs->accept_q.empty()) return errc::would_block;
  const std::uint32_t fd = gs->accept_q.front();
  gs->accept_q.pop_front();
  return fd;
}

result<std::size_t> guest_lib::nk_send(std::uint32_t fd, buffer data) {
  NK_PROF("guestlib", "send");
  auto* gs = socket_of(fd);
  if (gs == nullptr) return errc::not_found;
  if (gs->ph == phase::failed) return gs->err == errc::ok
                                          ? errc::connection_reset
                                          : gs->err;
  if (gs->ph == phase::closed) return errc::closed;

  const std::size_t chunk_size = ch_.pool.chunk_size();
  std::size_t accepted = 0;
  while (accepted < data.size()) {
    if (gs->inflight >= cfg_.send_credit || lane_backlogged(gs->shard)) {
      gs->writable_blocked = true;
      ++stats_.send_blocked;
      break;
    }
    auto chunk = ch_.pool.alloc();
    if (!chunk) {
      gs->writable_blocked = true;
      ++stats_.send_blocked;
      break;
    }
    const std::size_t len = std::min(chunk_size, data.size() - accepted);
    auto span = ch_.pool.writable(chunk.value());
    std::memcpy(span.value().data(), data.bytes().data() + accepted, len);

    shm::nqe e;
    e.op = shm::nqe_op::req_send;
    e.handle = fd;
    e.desc = shm::data_descriptor{chunk.value(), 0,
                                  static_cast<std::uint32_t>(len)};
    e.token = (std::uint64_t{fd} << 32) | (stats_.ops_issued & 0xffffffff);
    submit(*gs, e, costs_.memcpy_cost(len));

    gs->inflight += len;
    accepted += len;
    stats_.bytes_sent += len;
  }
  if (accepted == 0) return errc::would_block;
  return accepted;
}

result<buffer> guest_lib::nk_recv(std::uint32_t fd, std::size_t max) {
  NK_PROF("guestlib", "recv");
  auto* gs = socket_of(fd);
  if (gs == nullptr) return errc::not_found;
  if (gs->rx_bytes == 0) {
    if (gs->eof) return errc::closed;
    if (gs->ph == phase::failed) return gs->err;
    ++stats_.recv_blocked;
    return errc::would_block;
  }

  std::vector<std::byte> out;
  out.reserve(std::min(max, gs->rx_bytes));
  while (out.size() < max && !gs->rx.empty()) {
    rx_item& item = gs->rx.front();
    const std::uint32_t remaining = item.desc.length - item.consumed;
    const auto take = static_cast<std::uint32_t>(
        std::min<std::size_t>(remaining, max - out.size()));

    shm::data_descriptor view = item.desc;
    view.offset += item.consumed;
    view.length = take;
    auto span = ch_.pool.readable(view);
    if (!span) return span.error();
    out.insert(out.end(), span.value().begin(), span.value().end());

    // Charge the copy out of the huge pages to this socket's vcpu.
    if (gs->core != nullptr) gs->core->execute(costs_.memcpy_cost(take), [] {});

    item.consumed += take;
    gs->rx_bytes -= take;
    if (item.consumed == item.desc.length) {
      free_chunk(item.desc);
      gs->rx.pop_front();
    }
  }
  stats_.bytes_received += out.size();
  return buffer::copy_of(out);
}

// --- UDP ----------------------------------------------------------------------------

result<std::uint32_t> guest_lib::nk_udp_open(std::uint16_t port) {
  const std::uint32_t fd = next_fd_++;
  g_socket gs;
  gs.core = pick_core();
  gs.shard = shm::flow_shard(vm_.id(), fd, ch_.shards());
  gs.udp = true;
  gs.ph = phase::connected;  // datagram sockets are immediately usable
  auto [it, inserted] = sockets_.emplace(fd, gs);

  shm::nqe e;
  e.op = shm::nqe_op::req_udp_open;
  e.handle = fd;
  e.token = fd;
  e.arg0 = port;
  submit(it->second, e, sim_time::zero());
  return fd;
}

result<std::size_t> guest_lib::nk_udp_send_to(std::uint32_t fd,
                                              net::socket_addr dest,
                                              buffer data) {
  auto* gs = socket_of(fd);
  if (gs == nullptr) return errc::not_found;
  if (!gs->udp) return errc::invalid_argument;
  if (data.size() > ch_.pool.chunk_size()) return errc::invalid_argument;
  if (gs->inflight + data.size() > cfg_.send_credit ||
      lane_backlogged(gs->shard)) {
    ++stats_.send_blocked;
    return errc::would_block;
  }
  auto chunk = ch_.pool.alloc();
  if (!chunk) {
    ++stats_.send_blocked;
    return errc::would_block;
  }
  auto span = ch_.pool.writable(chunk.value());
  std::memcpy(span.value().data(), data.bytes().data(), data.size());

  shm::nqe e;
  e.op = shm::nqe_op::req_udp_send;
  e.handle = fd;
  e.desc = shm::data_descriptor{chunk.value(), 0,
                                static_cast<std::uint32_t>(data.size())};
  e.arg0 = dest.ip.value;
  e.arg1 = dest.port;
  e.token = (std::uint64_t{fd} << 32) | (stats_.ops_issued & 0xffffffff);
  submit(*gs, e, costs_.memcpy_cost(data.size()));
  gs->inflight += data.size();
  stats_.bytes_sent += data.size();
  return data.size();
}

result<std::pair<net::socket_addr, buffer>> guest_lib::nk_udp_recv_from(
    std::uint32_t fd) {
  NK_PROF("guestlib", "udp_recv");
  auto* gs = socket_of(fd);
  if (gs == nullptr) return errc::not_found;
  if (!gs->udp) return errc::invalid_argument;
  if (gs->udp_rx.empty()) return errc::would_block;

  udp_rx_item item = gs->udp_rx.front();
  gs->udp_rx.pop_front();
  gs->rx_bytes -= item.desc.length;

  auto span = ch_.pool.readable(item.desc);
  if (!span) return span.error();
  buffer data = buffer::copy_of(span.value());
  if (gs->core != nullptr) {
    gs->core->execute(costs_.memcpy_cost(data.size()), [] {});
  }
  stats_.bytes_received += data.size();
  free_chunk(item.desc);
  return std::make_pair(item.from, std::move(data));
}

status guest_lib::nk_setsockopt(std::uint32_t fd, nk_option opt,
                                std::uint64_t value) {
  auto* gs = socket_of(fd);
  if (gs == nullptr) return errc::not_found;
  if (opt == nk_option::tcp_info) return errc::invalid_argument;  // read-only

  shm::nqe e;
  e.op = shm::nqe_op::req_setsockopt;
  e.handle = fd;
  e.arg0 = static_cast<std::uint64_t>(opt);
  e.arg1 = value;
  submit(*gs, e, sim_time::zero());
  return {};
}

result<shm::nk_sock_stats> guest_lib::nk_getsockopt(std::uint32_t fd,
                                                    nk_option opt) {
  if (opt != nk_option::tcp_info) return errc::not_supported;
  if (socket_of(fd) == nullptr) return errc::not_found;
  shm::stat_snapshot snap;
  if (!ch_.stats.ever_published() || !ch_.stats.read(snap)) {
    return errc::would_block;  // engine has not published yet
  }
  const shm::nk_sock_stats* row = snap.find(fd);
  if (row == nullptr) return errc::would_block;  // no row in last snapshot
  return *row;
}

result<shm::nk_vm_stats> guest_lib::nk_stack_stats() const {
  shm::stat_snapshot snap;
  if (!ch_.stats.ever_published() || !ch_.stats.read(snap)) {
    return errc::would_block;
  }
  return snap.vm;
}

bool guest_lib::nk_stat_snapshot(shm::stat_snapshot& out) const {
  return ch_.stats.ever_published() && ch_.stats.read(out);
}

status guest_lib::nk_stat_refresh() {
  // Not socket-bound: rides lane 0 like other control traffic. Goes through
  // enqueue_job so it is traced, staged on overflow, and — on the engine
  // side — admitted through the firewall like every guest-emitted nqe.
  NK_PROF("guestlib", "stat_refresh");
  ++stats_.ops_issued;
  shm::nqe e;
  e.op = shm::nqe_op::req_stat_refresh;
  e.owner = vm_.id();
  enqueue_job(0, e);
  return {};
}

status guest_lib::nk_shutdown(std::uint32_t fd) {
  auto* gs = socket_of(fd);
  if (gs == nullptr) return errc::not_found;

  shm::nqe e;
  e.op = shm::nqe_op::req_shutdown_wr;
  e.handle = fd;
  submit(*gs, e, sim_time::zero());
  return {};
}

status guest_lib::nk_close(std::uint32_t fd) {
  auto* gs = socket_of(fd);
  if (gs == nullptr) return errc::not_found;

  free_rx(*gs);  // unconsumed receive chunks
  shm::nqe e;
  e.op = shm::nqe_op::req_close;
  e.handle = fd;
  submit(*gs, e, sim_time::zero());
  sockets_.erase(fd);
  for (auto& [epfd, fds] : epolls_) {
    std::erase(fds, fd);
  }
  return {};
}

void guest_lib::abort_all(errc err) {
  // Locally staged jobs will never drain once the channel is torn down;
  // free the chunks their data ops still own. Their traces stay live and
  // simply never finish — retiring them here would inflate the tracer's
  // drop counter without a matching engine-side discard, breaking the
  // pipeline drop-accounting invariant.
  for (auto& lane : job_lanes_) {
    lane.scrub([&](const shm::nqe& e) {
      if (shm::owns_chunk(e) && !e.desc.empty()) free_chunk(e.desc);
    });
  }
  // Fail every socket and free its buffered receive chunks.
  std::vector<std::uint32_t> fds;
  fds.reserve(sockets_.size());
  for (auto& [fd, gs] : sockets_) {
    fds.push_back(fd);
    free_rx(gs);
    gs.accept_q.clear();
    gs.ph = phase::failed;
    gs.err = err;
    gs.eof = true;
  }
  // Events after the mutation loop: a handler may nk_close() mid-walk,
  // erasing map entries out from under an iterator.
  for (const std::uint32_t fd : fds) {
    if (socket_of(fd) != nullptr) {
      emit_event(fd, stack::socket_event_type::error, err);
    }
  }
}

std::size_t guest_lib::recv_available(std::uint32_t fd) const {
  const auto* gs = socket_of(fd);
  return gs == nullptr ? 0 : gs->rx_bytes;
}

std::size_t guest_lib::send_credit_available(std::uint32_t fd) const {
  const auto* gs = socket_of(fd);
  if (gs == nullptr) return 0;
  return gs->inflight >= cfg_.send_credit ? 0
                                          : cfg_.send_credit - gs->inflight;
}

bool guest_lib::eof(std::uint32_t fd) const {
  const auto* gs = socket_of(fd);
  return gs == nullptr || gs->eof;
}

// --- epoll ---------------------------------------------------------------------------

result<std::uint32_t> guest_lib::nk_epoll_create() {
  const std::uint32_t epfd = next_epfd_++;
  epolls_[epfd] = {};
  return epfd;
}

status guest_lib::nk_epoll_add(std::uint32_t epfd, std::uint32_t fd) {
  auto it = epolls_.find(epfd);
  if (it == epolls_.end()) return errc::not_found;
  if (socket_of(fd) == nullptr) return errc::not_found;
  if (std::find(it->second.begin(), it->second.end(), fd) !=
      it->second.end()) {
    return errc::in_use;
  }
  it->second.push_back(fd);
  return {};
}

status guest_lib::nk_epoll_del(std::uint32_t epfd, std::uint32_t fd) {
  auto it = epolls_.find(epfd);
  if (it == epolls_.end()) return errc::not_found;
  std::erase(it->second, fd);
  return {};
}

std::vector<guest_lib::epoll_event_out> guest_lib::nk_epoll_wait(
    std::uint32_t epfd, std::size_t max) {
  std::vector<epoll_event_out> ready;
  auto it = epolls_.find(epfd);
  if (it == epolls_.end()) return ready;
  for (const std::uint32_t fd : it->second) {
    if (ready.size() >= max) break;
    const auto* gs = socket_of(fd);
    if (gs == nullptr) continue;
    epoll_event_out ev;
    ev.fd = fd;
    ev.readable = gs->rx_bytes > 0 || gs->eof || !gs->accept_q.empty();
    ev.writable = gs->ph == phase::connected &&
                  gs->inflight < cfg_.send_credit;
    ev.error = gs->ph == phase::failed;
    if (ev.readable || ev.writable || ev.error) ready.push_back(ev);
  }
  return ready;
}

// --- completion/receive processing ----------------------------------------------------

void guest_lib::emit_event(std::uint32_t fd, stack::socket_event_type type,
                           errc error) {
  ++stats_.events_delivered;
  if (handler_) handler_(fd, type, error);
}

std::size_t guest_lib::drain() {
  NK_PROF("guestlib", "pump");
  // Re-drive jobs deferred on a full VM-side job ring before consuming new
  // completions; CoreEngine may have drained the ring since the overflow.
  std::size_t n = flush_job_lanes();
  shm::nqe e;
  std::size_t popped = 0;
  // All lanes, completions before events within each. The arrival lane is
  // the nqe's home shard — handle_nqe needs it to home accepted children.
  for (std::size_t s = 0; s < ch_.shards(); ++s) {
    std::size_t lane_popped = 0;
    for (shm::nqe_queue* ring :
         {&ch_.vm_q(s).completion, &ch_.vm_q(s).receive}) {
      while (popped < drain_batch && ring->pop(e)) {
        ++popped;
        ++lane_popped;
        if (tracer_ != nullptr && e.reserved != 0) {
          tracer_->stamp(e.reserved, obs::nqe_stage::vm_out_dwell);
          tracer_->finish(e.reserved);
        }
        handle_nqe(e, s);
      }
    }
    // Freed out-ring space: let this shard flush anything it has staged.
    if (lane_popped > 0) engine_.notify_vm_space(vm_.id(), s);
  }
  return n + popped;
}

void guest_lib::handle_nqe(const shm::nqe& e, std::size_t shard) {
  switch (e.op) {
    case shm::nqe_op::cmp_socket:
      return;  // fd was minted locally; nothing to learn
    case shm::nqe_op::cmp_generic: {
      auto* gs = socket_of(e.handle);
      if (gs == nullptr) return;
      if (e.status < 0) {
        gs->ph = phase::failed;
        gs->err = static_cast<errc>(-e.status);
        emit_event(e.handle, stack::socket_event_type::error, gs->err);
      }
      return;
    }
    case shm::nqe_op::cmp_connected: {
      auto* gs = socket_of(e.handle);
      if (gs == nullptr) return;
      gs->ph = phase::connected;
      emit_event(e.handle, stack::socket_event_type::connected);
      return;
    }
    case shm::nqe_op::cmp_send: {
      auto* gs = socket_of(e.handle);
      if (gs == nullptr) return;
      gs->inflight = gs->inflight >= e.arg0 ? gs->inflight - e.arg0 : 0;
      if (gs->writable_blocked && gs->inflight < cfg_.send_credit) {
        gs->writable_blocked = false;
        emit_event(e.handle, stack::socket_event_type::writable);
      }
      return;
    }
    case shm::nqe_op::ev_accept: {
      if (socket_of(e.handle) == nullptr) return;
      const auto new_fd = static_cast<std::uint32_t>(e.arg0);
      g_socket child;
      child.ph = phase::connected;
      child.core = pick_core();
      // The engine steered this event to the child's home shard (hash of
      // <NSM, cID>); the arrival lane tells the guest where to send the
      // child's own jobs.
      child.shard = shard;
      sockets_[new_fd] = child;
      // The insert may rehash the map; look the listener up afterwards.
      auto* listener = socket_of(e.handle);
      if (listener == nullptr) return;
      listener->accept_q.push_back(new_fd);
      emit_event(e.handle, stack::socket_event_type::accept_ready);
      return;
    }
    case shm::nqe_op::ev_data: {
      auto* gs = socket_of(e.handle);
      if (gs == nullptr) {
        // Socket closed locally while data was in flight.
        free_chunk(e.desc);
        return;
      }
      gs->rx.push_back(rx_item{e.desc, 0});
      gs->rx_bytes += e.desc.length;
      emit_event(e.handle, stack::socket_event_type::readable);
      return;
    }
    case shm::nqe_op::ev_udp_data: {
      auto* gs = socket_of(e.handle);
      if (gs == nullptr) {
        free_chunk(e.desc);
        return;
      }
      udp_rx_item item;
      item.desc = e.desc;
      item.from = net::socket_addr{
          net::ipv4_addr{static_cast<std::uint32_t>(e.arg0)},
          static_cast<std::uint16_t>(e.arg1)};
      gs->udp_rx.push_back(item);
      gs->rx_bytes += e.desc.length;
      emit_event(e.handle, stack::socket_event_type::readable);
      return;
    }
    case shm::nqe_op::ev_closed: {
      auto* gs = socket_of(e.handle);
      if (gs == nullptr) return;
      if (!gs->eof) {
        gs->eof = true;
        emit_event(e.handle, stack::socket_event_type::readable);
        // The readable callback may nk_close() the fd synchronously (an
        // echo server reading EOF does exactly that), erasing the map
        // entry out from under us.
        gs = socket_of(e.handle);
        if (gs == nullptr) return;
      }
      if (!gs->closed_reported) {
        gs->closed_reported = true;
        emit_event(e.handle, stack::socket_event_type::closed);
      }
      return;
    }
    case shm::nqe_op::ev_error: {
      auto* gs = socket_of(e.handle);
      if (gs == nullptr) return;
      gs->ph = phase::failed;
      gs->err = e.status < 0 ? static_cast<errc>(-e.status)
                             : errc::connection_reset;
      emit_event(e.handle, stack::socket_event_type::error, gs->err);
      return;
    }
    default:
      return;
  }
}

}  // namespace nk::core
