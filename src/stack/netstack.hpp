// A complete userspace network stack instance: TCP (tcp::tcb) and UDP over
// IPv4, bound to one nic, with port allocation, 4-tuple demultiplexing,
// listener/accept queues, a callback-driven event queue, and a
// per-packet CPU cost model charged to attached cores.
//
// The same class plays both roles in the paper's Figure 2: instantiated
// inside a guest VM it is the legacy in-kernel stack (baseline); mounted
// inside an NSM it is the provider-operated "network stack module" that
// ServiceLib drives (NetKernel path) through the stack::transport contract
// it implements as "tcp". The stack is moved, not changed.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "net/packet.hpp"
#include "phys/nic.hpp"
#include "sim/cpu_core.hpp"
#include "sim/simulator.hpp"
#include "stack/transport.hpp"

namespace nk::stack {

// CPU cost of moving packets through the stack. Received packets pay it
// one by one; transmitted segments pay it once per burst (GSO: a TCP output
// pass hands over up to tcp::tcb::gso_max_bytes at once), with `bytes` the
// burst's total wire bytes. Per-byte cost is fractional nanoseconds: the
// NSM stack's 0.05 ns/B and the legacy guest stack's 0.17 ns/B (with 300 ns
// per packet) are what make a single native flow CPU-bound in Figure 4.
struct processing_cost {
  sim_time per_packet = sim_time::zero();
  double ns_per_byte = 0.0;

  [[nodiscard]] sim_time of(std::size_t bytes) const {
    return per_packet + sim_time{static_cast<std::int64_t>(
                            ns_per_byte * static_cast<double>(bytes))};
  }
};

struct netstack_config {
  std::string name = "stack";
  tcp::tcp_config tcp{};      // defaults for new TCP sockets
  processing_cost tx_cost{};  // charged per transmit burst
  processing_cost rx_cost{};  // charged per received packet
};

struct netstack_stats {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bursts = 0;  // one tx_cost charge each (GSO)
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_no_socket = 0;  // RST-answered or dropped
  std::uint64_t resets_sent = 0;
  std::uint64_t connections_opened = 0;
  std::uint64_t connections_accepted = 0;
};

namespace detail {

// Per-socket state (namespace scope so std::variant can see completed
// default constructors when the netstack members are declared).
struct listener_state {
  std::uint16_t port = 0;
  std::size_t backlog = 128;
  tcp::tcp_config cfg{};
  std::deque<socket_id> pending;
};

struct connection_state {
  std::unique_ptr<tcp::tcb> tcb;
  sim::cpu_core* core = nullptr;
  socket_id listener = 0;  // 0 for active opens
  bool reported_established = false;
};

struct udp_state {
  std::uint16_t port = 0;
  std::deque<std::pair<net::socket_addr, buffer>> rx;
};

struct socket_entry {
  std::variant<listener_state, connection_state, udp_state> state;
};

}  // namespace detail

class netstack final : public transport {
 public:
  netstack(sim::simulator& s, netstack_config cfg, net::ipv4_addr addr);
  // Cancels the pending dispatch and reaps; the cores must be idle.
  ~netstack() override;

  netstack(const netstack&) = delete;
  netstack& operator=(const netstack&) = delete;

  // Wiring ------------------------------------------------------------------

  // Binds this stack to its network device (installs the rx handler).
  void bind_nic(phys::nic& dev);

  // Adds a processing core; connections are assigned cores round-robin.
  // With no cores attached, processing is free (infinitely fast CPU).
  void add_core(sim::cpu_core& core);

  [[nodiscard]] net::ipv4_addr address() const { return addr_; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] const netstack_stats& stats() const { return stats_; }
  [[nodiscard]] sim::simulator& simulator() { return sim_; }

  // The stack counters, sampled at export time (zero per-packet cost).
  void register_metrics(obs::metrics_registry& reg,
                        const std::string& prefix) override;

  // stack::transport (TCP connections, UDP datagrams) -----------------------

  [[nodiscard]] std::string_view kind() const override { return "tcp"; }

  [[nodiscard]] result<socket_id> listen(
      std::uint16_t port, std::optional<tcp::tcp_config> cfg = {}) override;
  [[nodiscard]] result<socket_id> connect(
      net::socket_addr remote,
      std::optional<tcp::tcp_config> cfg = {}) override;
  [[nodiscard]] result<socket_id> accept(socket_id listener) override;
  [[nodiscard]] result<std::size_t> send(socket_id sock, buffer data) override;
  [[nodiscard]] result<buffer> recv(socket_id sock, std::size_t max) override;
  [[nodiscard]] std::optional<std::uint64_t> acked_bytes(
      socket_id sock) override;
  [[nodiscard]] std::optional<std::uint64_t> sent_bytes(
      socket_id sock) override;

  status shutdown_write(socket_id sock) override;
  status close(socket_id sock) override;
  status abort(socket_id sock) override;

  [[nodiscard]] result<socket_id> udp_open(std::uint16_t port = 0) override;
  [[nodiscard]] result<std::size_t> udp_send_to(socket_id sock,
                                                net::socket_addr dest,
                                                buffer data) override;
  [[nodiscard]] result<std::pair<net::socket_addr, buffer>> udp_recv_from(
      socket_id sock) override;

  // Events raised while no handler is installed queue up and are
  // delivered, in order, once one is.
  void set_event_handler(event_handler handler) override;

  [[nodiscard]] std::optional<net::socket_addr> remote_of(
      socket_id sock) override;
  [[nodiscard]] std::optional<obs::nk_flow_info> flow_info(
      socket_id sock) override;

  // Introspection ----------------------------------------------------------------

  [[nodiscard]] bool eof(socket_id sock) const;

  // The connection state of a TCP socket; nullptr for listeners/UDP/unknown.
  [[nodiscard]] tcp::tcb* tcb_of(socket_id sock);

 private:
  using listener_state = detail::listener_state;
  using connection_state = detail::connection_state;
  using udp_state = detail::udp_state;
  using socket_entry = detail::socket_entry;

  // --- internals ---------------------------------------------------------------
  void packet_arrived(net::packet p);
  void deliver_tcp(net::packet p);
  void deliver_udp(net::packet p);
  // Charges tx_cost once for the whole burst (moved out of the span), then
  // hands its frames to the nic in order.
  void transmit(sim::cpu_core* core, std::span<net::packet> burst);
  void send_frame(net::packet p);
  void push_event(socket_event ev);
  void dispatch_events();
  [[nodiscard]] sim::cpu_core* pick_core();
  [[nodiscard]] result<std::uint16_t> allocate_ephemeral_port();
  [[nodiscard]] socket_id make_connection(net::four_tuple tuple,
                                          const tcp::tcp_config& cfg,
                                          socket_id listener);
  void send_rst_for(const net::packet& p);
  [[nodiscard]] connection_state* connection_of(socket_id sock);
  [[nodiscard]] const connection_state* connection_of(socket_id sock) const;

  sim::simulator& sim_;
  netstack_config cfg_;
  net::ipv4_addr addr_;
  phys::nic* dev_ = nullptr;
  std::vector<sim::cpu_core*> cores_;
  std::size_t next_core_ = 0;

  std::unordered_map<socket_id, socket_entry> sockets_;
  std::unordered_map<net::four_tuple, socket_id> tcp_demux_;
  std::unordered_map<std::uint16_t, socket_id> tcp_listeners_;
  std::unordered_map<std::uint16_t, socket_id> udp_ports_;
  socket_id next_socket_ = 1;
  // IANA dynamic-port range start; allocation wraps back here past 65535.
  static constexpr std::uint16_t ephemeral_base = 49152;
  std::uint16_t next_ephemeral_;

  std::deque<socket_event> events_;
  event_handler handler_;
  sim::timer dispatch_;
  std::deque<sim::timer> reaps_;  // zero-delay, so fired ones lead

  // Frames of the bursts each core is still paying for, oldest first.
  struct tx_queue {
    std::deque<net::packet> frames;
    std::deque<std::size_t> burst_sizes;
  };
  std::unordered_map<const sim::cpu_core*, tx_queue> tx_queues_;

  netstack_stats stats_;
};

}  // namespace nk::stack
