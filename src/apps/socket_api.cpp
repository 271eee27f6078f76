#include "apps/socket_api.hpp"

namespace nk::apps {

// --- native -------------------------------------------------------------------------

native_socket_api::native_socket_api(stack::netstack& stack) : stack_{stack} {
  stack_.set_event_handler([this](const stack::socket_event& ev) {
    if (auto it = by_real_.find(ev.sock); it != by_real_.end()) {
      dispatch(it->second, ev.type, ev.error);
    }
  });
}

app_socket native_socket_api::wrap(stack::socket_id real) {
  const app_socket s = next_++;
  entry e;
  e.real = real;
  sockets_[s] = e;
  by_real_[real] = s;
  return s;
}

result<app_socket> native_socket_api::open() {
  const app_socket s = next_++;
  sockets_[s] = entry{};
  return s;
}

status native_socket_api::bind(app_socket s, std::uint16_t port) {
  auto it = sockets_.find(s);
  if (it == sockets_.end()) return errc::not_found;
  it->second.port = port;
  return {};
}

status native_socket_api::listen(app_socket s, int backlog) {
  (void)backlog;
  auto it = sockets_.find(s);
  if (it == sockets_.end()) return errc::not_found;
  auto r = stack_.listen(it->second.port, it->second.cfg);
  if (!r) return r.error();
  it->second.real = r.value();
  by_real_[r.value()] = s;
  return {};
}

status native_socket_api::connect(app_socket s, net::socket_addr remote) {
  auto it = sockets_.find(s);
  if (it == sockets_.end()) return errc::not_found;
  auto r = stack_.connect(remote, it->second.cfg);
  if (!r) return r.error();
  it->second.real = r.value();
  by_real_[r.value()] = s;
  return {};
}

result<app_socket> native_socket_api::accept(app_socket listener) {
  auto it = sockets_.find(listener);
  if (it == sockets_.end()) return errc::not_found;
  auto r = stack_.accept(it->second.real);
  if (!r) return r.error();
  return wrap(r.value());
}

result<std::size_t> native_socket_api::send(app_socket s, buffer b) {
  auto it = sockets_.find(s);
  if (it == sockets_.end()) return errc::not_found;
  return stack_.send(it->second.real, std::move(b));
}

result<buffer> native_socket_api::recv(app_socket s, std::size_t max) {
  auto it = sockets_.find(s);
  if (it == sockets_.end()) return errc::not_found;
  return stack_.recv(it->second.real, max);
}

status native_socket_api::close(app_socket s) {
  auto it = sockets_.find(s);
  if (it == sockets_.end()) return errc::not_found;
  if (it->second.real != 0) {
    (void)stack_.close(it->second.real);
    by_real_.erase(it->second.real);
  }
  drop_handler(s);
  sockets_.erase(it);
  return {};
}

status native_socket_api::set_congestion_control(app_socket s,
                                                 tcp::cc_algorithm algo) {
  auto it = sockets_.find(s);
  if (it == sockets_.end()) return errc::not_found;
  if (it->second.real != 0) return errc::already_connected;
  it->second.cfg.emplace().cc = algo;
  return {};
}

bool native_socket_api::eof(app_socket s) const {
  auto it = sockets_.find(s);
  return it == sockets_.end() || it->second.real == 0 ||
         stack_.eof(it->second.real);
}

// --- netkernel ---------------------------------------------------------------------

netkernel_socket_api::netkernel_socket_api(core::guest_lib& glib)
    : glib_{glib} {
  glib_.set_event_handler(
      [this](std::uint32_t fd, stack::socket_event_type type, errc error) {
        dispatch(fd, type, error);
      });
}

result<app_socket> netkernel_socket_api::open() {
  auto r = glib_.nk_socket();
  if (!r) return r.error();
  return app_socket{r.value()};
}

status netkernel_socket_api::bind(app_socket s, std::uint16_t port) {
  return glib_.nk_bind(static_cast<std::uint32_t>(s), port);
}

status netkernel_socket_api::listen(app_socket s, int backlog) {
  return glib_.nk_listen(static_cast<std::uint32_t>(s), backlog);
}

status netkernel_socket_api::connect(app_socket s, net::socket_addr remote) {
  return glib_.nk_connect(static_cast<std::uint32_t>(s), remote);
}

result<app_socket> netkernel_socket_api::accept(app_socket listener) {
  auto r = glib_.nk_accept(static_cast<std::uint32_t>(listener));
  if (!r) return r.error();
  return app_socket{r.value()};
}

result<std::size_t> netkernel_socket_api::send(app_socket s, buffer b) {
  return glib_.nk_send(static_cast<std::uint32_t>(s), std::move(b));
}

result<buffer> netkernel_socket_api::recv(app_socket s, std::size_t max) {
  return glib_.nk_recv(static_cast<std::uint32_t>(s), max);
}

status netkernel_socket_api::close(app_socket s) {
  drop_handler(s);
  return glib_.nk_close(static_cast<std::uint32_t>(s));
}

status netkernel_socket_api::set_congestion_control(app_socket s,
                                                    tcp::cc_algorithm algo) {
  return glib_.nk_setsockopt(static_cast<std::uint32_t>(s),
                             core::nk_option::congestion_control,
                             static_cast<std::uint64_t>(algo));
}

bool netkernel_socket_api::eof(app_socket s) const {
  return glib_.eof(static_cast<std::uint32_t>(s));
}

}  // namespace nk::apps
