// A uniform application-facing socket interface over BOTH architectures:
//
//   * native_socket_api  — calls straight into an in-guest stack::netstack
//     (Figure 1a, the legacy path);
//   * netkernel_socket_api — calls into core::guest_lib, i.e. through
//     NetKernel's queues to the NSM (Figure 1b).
//
// The paper's compatibility claim is that applications keep the classical
// networking API regardless of where the stack lives; every workload in
// apps/workloads.hpp runs unmodified on either implementation, which is
// that claim made executable.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/buffer.hpp"
#include "common/result.hpp"
#include "core/guest_lib.hpp"
#include "stack/netstack.hpp"

namespace nk::apps {

using app_socket = std::uint64_t;
using app_event = stack::socket_event_type;

class socket_api {
 public:
  virtual ~socket_api() = default;

  [[nodiscard]] virtual result<app_socket> open() = 0;
  virtual status bind(app_socket s, std::uint16_t port) = 0;
  virtual status listen(app_socket s, int backlog = 128) = 0;
  virtual status connect(app_socket s, net::socket_addr remote) = 0;
  [[nodiscard]] virtual result<app_socket> accept(app_socket listener) = 0;
  [[nodiscard]] virtual result<std::size_t> send(app_socket s, buffer b) = 0;
  [[nodiscard]] virtual result<buffer> recv(app_socket s, std::size_t max) = 0;
  virtual status close(app_socket s) = 0;
  virtual status set_congestion_control(app_socket s,
                                        tcp::cc_algorithm algo) = 0;
  [[nodiscard]] virtual bool eof(app_socket s) const = 0;

  // Per-socket event callbacks (connected/readable/writable/...).
  using socket_handler = std::function<void(app_socket, app_event, errc)>;
  void on_event(app_socket s, socket_handler fn) {
    handlers_[s] = std::move(fn);
  }
  void drop_handler(app_socket s) { handlers_.erase(s); }

  [[nodiscard]] virtual std::string_view impl_name() const = 0;

 protected:
  void dispatch(app_socket s, app_event type, errc error) {
    // Invoke a copy: the handler may close its own socket (erasing this
    // map entry, destroying the std::function mid-call) or register new
    // handlers (rehashing the table) while we are inside it.
    if (auto it = handlers_.find(s); it != handlers_.end()) {
      const socket_handler fn = it->second;
      fn(s, type, error);
    }
  }

 private:
  std::unordered_map<app_socket, socket_handler> handlers_;
};

// --- legacy path ----------------------------------------------------------------

class native_socket_api final : public socket_api {
 public:
  explicit native_socket_api(stack::netstack& stack);

  [[nodiscard]] result<app_socket> open() override;
  status bind(app_socket s, std::uint16_t port) override;
  status listen(app_socket s, int backlog) override;
  status connect(app_socket s, net::socket_addr remote) override;
  [[nodiscard]] result<app_socket> accept(app_socket listener) override;
  [[nodiscard]] result<std::size_t> send(app_socket s, buffer b) override;
  [[nodiscard]] result<buffer> recv(app_socket s, std::size_t max) override;
  status close(app_socket s) override;
  status set_congestion_control(app_socket s, tcp::cc_algorithm algo) override;
  [[nodiscard]] bool eof(app_socket s) const override;
  [[nodiscard]] std::string_view impl_name() const override {
    return "native";
  }

 private:
  struct entry {
    stack::socket_id real = 0;  // 0 until listen/connect
    std::uint16_t port = 0;
    std::optional<tcp::tcp_config> cfg;  // nullopt: the stack's defaults
  };
  [[nodiscard]] app_socket wrap(stack::socket_id real);

  stack::netstack& stack_;
  std::unordered_map<app_socket, entry> sockets_;
  std::unordered_map<stack::socket_id, app_socket> by_real_;
  app_socket next_ = 1;
};

// --- NetKernel path ---------------------------------------------------------------

class netkernel_socket_api final : public socket_api {
 public:
  explicit netkernel_socket_api(core::guest_lib& glib);

  [[nodiscard]] result<app_socket> open() override;
  status bind(app_socket s, std::uint16_t port) override;
  status listen(app_socket s, int backlog) override;
  status connect(app_socket s, net::socket_addr remote) override;
  [[nodiscard]] result<app_socket> accept(app_socket listener) override;
  [[nodiscard]] result<std::size_t> send(app_socket s, buffer b) override;
  [[nodiscard]] result<buffer> recv(app_socket s, std::size_t max) override;
  status close(app_socket s) override;
  status set_congestion_control(app_socket s, tcp::cc_algorithm algo) override;
  [[nodiscard]] bool eof(app_socket s) const override;
  [[nodiscard]] std::string_view impl_name() const override {
    return "netkernel";
  }

 private:
  core::guest_lib& glib_;
};

}  // namespace nk::apps
