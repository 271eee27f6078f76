// NetKernel Queue Element (nqe) — the unit of communication between
// GuestLib, CoreEngine and ServiceLib (paper §3.2).
//
// An nqe carries an operation ID, the owner identity (VM ID + fd on the
// tenant side, NSM ID + connection ID on the service side), an optional
// data descriptor pointing into the shared huge pages, and request/response
// correlation state. It is a fixed-size trivially-copyable value: one cache
// line, so CoreEngine's per-event copy is a single-line memcpy (~12 ns in
// the paper, measured here by bench/nqe_copy).
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

namespace nk::shm {

enum class nqe_op : std::uint8_t {
  invalid = 0,

  // Requests (GuestLib -> CoreEngine -> ServiceLib), via job queues.
  req_socket,       // create a socket
  req_bind,         // arg0 = local port
  req_listen,       // arg0 = backlog
  req_connect,      // arg0 = remote ip, arg1 = remote port
  req_send,         // desc = payload in huge pages
  req_setsockopt,   // arg0 = option id, arg1 = value
  req_shutdown_wr,  // half-close, sending side
  req_close,        // release the socket
  req_udp_open,     // arg0 = local port (0 = ephemeral)
  req_udp_send,     // desc = datagram, arg0 = dest ip, arg1 = dest port
  req_stat_refresh, // publish the VM's stat page now (no completion)

  // Completions (ServiceLib -> CoreEngine -> GuestLib), via completion queues.
  cmp_generic,    // status of the correlated request (token)
  cmp_socket,     // handle = newly assigned fd / cID
  cmp_connected,  // connect finished; status 0 or error
  cmp_send,       // desc consumed by the stack; chunk may be reused

  // Events (ServiceLib -> CoreEngine -> GuestLib), via receive queues.
  ev_accept,    // new connection; handle = new fd, arg0/arg1 = peer ip/port
  ev_data,      // desc = received payload in huge pages
  ev_udp_data,  // desc = datagram, arg0 = src ip, arg1 = src port
  ev_closed,    // peer closed (FIN) or connection fully closed
  ev_error,     // status = errc value
};

[[nodiscard]] constexpr std::string_view to_string(nqe_op op) {
  switch (op) {
    case nqe_op::invalid: return "invalid";
    case nqe_op::req_socket: return "req_socket";
    case nqe_op::req_bind: return "req_bind";
    case nqe_op::req_listen: return "req_listen";
    case nqe_op::req_connect: return "req_connect";
    case nqe_op::req_send: return "req_send";
    case nqe_op::req_setsockopt: return "req_setsockopt";
    case nqe_op::req_shutdown_wr: return "req_shutdown_wr";
    case nqe_op::req_close: return "req_close";
    case nqe_op::req_udp_open: return "req_udp_open";
    case nqe_op::req_udp_send: return "req_udp_send";
    case nqe_op::req_stat_refresh: return "req_stat_refresh";
    case nqe_op::cmp_generic: return "cmp_generic";
    case nqe_op::cmp_socket: return "cmp_socket";
    case nqe_op::cmp_connected: return "cmp_connected";
    case nqe_op::cmp_send: return "cmp_send";
    case nqe_op::ev_accept: return "ev_accept";
    case nqe_op::ev_data: return "ev_data";
    case nqe_op::ev_udp_data: return "ev_udp_data";
    case nqe_op::ev_closed: return "ev_closed";
    case nqe_op::ev_error: return "ev_error";
  }
  return "unknown";
}

// Classification used by the priority queue pair (paper §3.2: handle
// connection events and data events separately to avoid HoL blocking).
[[nodiscard]] constexpr bool is_connection_event(nqe_op op) {
  switch (op) {
    case nqe_op::req_socket:
    case nqe_op::req_bind:
    case nqe_op::req_listen:
    case nqe_op::req_connect:
    case nqe_op::req_close:
    case nqe_op::req_udp_open:
    case nqe_op::cmp_socket:
    case nqe_op::cmp_connected:
    case nqe_op::ev_accept:
    case nqe_op::ev_closed:
      return true;
    default:
      return false;
  }
}

// Role gate for the CoreEngine admission firewall (DESIGN.md §14): the
// guest-writable job rings may only carry requests. A completion, event or
// invalid opcode popped from a VM queue is a forgery — only the provider
// side (ServiceLib via CoreEngine) may emit those.
[[nodiscard]] constexpr bool guest_may_emit(nqe_op op) {
  switch (op) {
    case nqe_op::req_socket:
    case nqe_op::req_bind:
    case nqe_op::req_listen:
    case nqe_op::req_connect:
    case nqe_op::req_send:
    case nqe_op::req_setsockopt:
    case nqe_op::req_shutdown_wr:
    case nqe_op::req_close:
    case nqe_op::req_udp_open:
    case nqe_op::req_udp_send:
    case nqe_op::req_stat_refresh:
      return true;
    default:
      return false;
  }
}

// Reference to one chunk of the shared huge-page region. `pool_key`
// identifies the VM↔NSM pair the pool belongs to; access through a pool
// with a different key is rejected (isolation, paper §3.1).
struct chunk_ref {
  std::uint32_t pool_key = 0;
  std::uint32_t index = 0;

  friend bool operator==(const chunk_ref&, const chunk_ref&) = default;
};

struct data_descriptor {
  chunk_ref chunk{};
  std::uint32_t offset = 0;  // byte offset within the chunk
  std::uint32_t length = 0;  // payload length

  [[nodiscard]] bool empty() const { return length == 0; }
};

struct nqe {
  nqe_op op = nqe_op::invalid;
  // NSM-incarnation tag for the channel segment the nqe crosses (fault
  // domains): CoreEngine stamps it on jobs it delivers to the NSM side and
  // ServiceLib stamps it on completions/events it emits. After a failover
  // the attachment's epoch advances, so anything still in flight from the
  // dead incarnation is recognized and discarded with accounting instead of
  // being misrouted into the replacement stack. Wraps at 255; only equality
  // with the current epoch matters.
  std::uint8_t epoch = 0;
  std::uint16_t owner = 0;   // VM ID on tenant queues, NSM ID on service queues
  std::uint32_t handle = 0;  // fd (VM side) or cID (NSM side)
  std::uint64_t token = 0;   // request/response correlation
  data_descriptor desc{};
  std::int32_t status = 0;   // 0 or negative errc on completion
  std::uint32_t arg_small = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint64_t reserved = 0;  // pad to a full cache line
};

static_assert(std::is_trivially_copyable_v<nqe>, "nqe must be memcpy-able");
static_assert(sizeof(nqe) == 64, "nqe must occupy exactly one cache line");

// Overflow policy for shm::staged_lane: which ops may be discarded (with
// their chunk freed and the drop counted) when a stage hits its cap. Only
// pure data movement qualifies — dropping a mapping, lifecycle or
// credit-release nqe (cmp_socket, cmp_send, req_close, ...) strands the
// flow forever, so those are always staged instead.
[[nodiscard]] constexpr bool droppable_on_overflow(nqe_op op) {
  switch (op) {
    case nqe_op::ev_data:
    case nqe_op::ev_udp_data:
      return true;
    default:
      return false;
  }
}

// Chunk ownership: the data-bearing ops (payload requests, data events) own
// the huge-page chunk their descriptor names. Whoever discards one frees a
// non-empty descriptor's chunk or the pool leaks; every other op must carry
// no descriptor. (GuestLib frees consumed receive chunks in place: the pool
// is shared, so no op carries a chunk back.)
[[nodiscard]] constexpr bool owns_chunk(const nqe& e) {
  switch (e.op) {
    case nqe_op::req_send:
    case nqe_op::req_udp_send:
    case nqe_op::ev_data:
    case nqe_op::ev_udp_data:
      return true;
    default:
      return false;
  }
}

}  // namespace nk::shm
