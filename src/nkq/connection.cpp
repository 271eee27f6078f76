#include "nkq/connection.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace nk::nkq {

namespace {
// Initial connection-level flow-control window, honored before the first
// ACK advertises the peer's real max_data (also the 0-RTT first-flight cap).
constexpr std::uint64_t initial_max_data = 64 * 1024;
// Packets this far below the largest acked pn are declared lost (RFC 9002
// packet threshold).
constexpr std::uint64_t packet_threshold = 3;
// Probe timeout: seeded from this RTT before the first sample, floored at
// min_pto, and the connection gives up after max_pto consecutive probes.
constexpr sim_time initial_rtt = milliseconds(100);
constexpr sim_time min_pto = milliseconds(5);
constexpr int max_pto = 10;
}  // namespace

connection::connection(sim::simulator& sim, const nkq_config& cfg,
                       std::uint64_t conn_id, bool server,
                       std::uint64_t issue_token, callbacks cb)
    : sim_{sim},
      cfg_{cfg},
      conn_id_{conn_id},
      server_{server},
      issue_token_{issue_token},
      cb_{std::move(cb)},
      peer_max_data_{initial_max_data},
      reassembly_{cfg.recv_buffer} {
  cc_ = tcp::make_congestion_controller(cfg.cc,
                                        static_cast<std::uint32_t>(cfg.mss));
  if (server_) {
    // A server connection exists because an initial arrived; it is
    // established from birth (the creating packet is fed via on_packet).
    state_ = conn_state::established;
    confirmed_ = true;
    cc_->on_established(sim_.now());
  }
}

connection::~connection() {
  pto_timer_.cancel();
  connected_timer_.cancel();
}

void connection::connect(std::uint64_t token) {
  if (server_ || state_ != conn_state::connecting) return;
  client_token_ = token;
  if (token != 0) {
    // 0-RTT resumption: the cached token re-admits us without waiting a
    // round trip — writable immediately, data rides the first flight.
    resumed_ = true;
    state_ = conn_state::established;
    cc_->on_established(sim_.now());
    connected_timer_ = sim_.schedule(sim_time::zero(), [this] {
      if (state_ != conn_state::closed && cb_.on_connected) cb_.on_connected();
    });
  }
  // Cold or resumed, an initial goes out now; until the first accept/ack
  // confirms the server has our connection, every packet stays
  // initial-typed so a lost first flight still creates server state.
  send_initial();
  arm_pto();
}

// --- stream API ----------------------------------------------------------------

result<std::size_t> connection::send(buffer data) {
  if (state_ == conn_state::closed || fin_pending_) return errc::closed;
  const std::size_t space = send_space();
  if (space == 0) return errc::would_block;
  const std::size_t n = std::min(space, data.size());
  send_chain_.append(data.prefix(n));
  stream_len_ += n;
  maybe_send();
  return n;
}

result<buffer> connection::recv(std::size_t max) {
  if (recv_chain_.empty()) {
    if (fin_offset_.has_value() && recv_next_ >= *fin_offset_) {
      return errc::closed;  // EOF
    }
    if (state_ == conn_state::closed) return errc::closed;
    return errc::would_block;
  }
  buffer out = recv_chain_.pop(max);
  consumed_total_ += out.size();
  // Window update: the reader drained enough that the peer deserves to hear
  // about it even with no data flowing the other way (avoids a flow-control
  // deadlock under ServiceLib read stalls).
  if (advertised_max_data() - last_advertised_max_ >= cfg_.recv_buffer / 2) {
    ack_pending_ = true;
    maybe_send();
  }
  return out;
}

void connection::shutdown_write() {
  if (state_ == conn_state::closed || fin_pending_) return;
  fin_pending_ = true;
  maybe_send();
}

void connection::close() {
  if (state_ == conn_state::closed) return;
  if (state_ == conn_state::established &&
      (!fin_acked_ || !sent_packets_.empty() || !retx_queue_.empty() ||
       next_unsent_ < stream_len_)) {
    // Graceful drain: keep loss recovery running until the peer has acked
    // every byte (and the FIN); only then does the terminal CLOSE go out.
    // A CLOSE racing ahead of retransmissions would make the peer tear
    // down with a hole in the stream.
    draining_ = true;
    fin_pending_ = true;
    maybe_send();
    maybe_finish_drain();  // everything may already be acked
    return;
  }
  finish_close(errc::ok);
}

void connection::maybe_finish_drain() {
  if (!draining_ || state_ == conn_state::closed) return;
  if (!fin_acked_ || !sent_packets_.empty() || !retx_queue_.empty()) return;
  if (next_unsent_ < stream_len_) return;
  finish_close(errc::ok);
}

void connection::finish_close(errc err) {
  wire_packet p;
  p.type = confirmed_ || server_ ? packet_type::data : packet_type::initial;
  p.conn_id = conn_id_;
  p.pn = next_pn_++;
  p.token = client_token_;
  frame f;
  f.type = frame_type::close;
  f.close.error = 0;
  p.frames.push_back(std::move(f));
  if (any_pn_rx_) p.frames.push_back(make_ack_frame());
  if (cb_.emit) cb_.emit(encode(p));
  ++stats_.packets_sent;
  state_ = conn_state::closed;
  pto_timer_.cancel();
  if (cb_.on_closed) cb_.on_closed(err);
}

void connection::abort() {
  state_ = conn_state::closed;
  pto_timer_.cancel();
}

// --- packet rx -----------------------------------------------------------------

void connection::on_packet(const wire_packet& p) {
  if (state_ == conn_state::closed) return;
  ++stats_.packets_received;
  note_pn_received(p.pn);

  bool saw_close = false;
  errc close_err = errc::ok;
  for (const auto& f : p.frames) {
    switch (f.type) {
      case frame_type::stream:
        process_stream(f.stream);
        break;
      case frame_type::ack:
        process_ack(f.ack);
        break;
      case frame_type::new_token:
        if (!server_ && cb_.on_token) cb_.on_token(f.token.token);
        break;
      case frame_type::ping:
        break;
      case frame_type::close:
        saw_close = true;
        close_err = f.close.error == 0
                        ? errc::ok
                        : static_cast<errc>(f.close.error);
        break;
    }
  }

  if (saw_close) {
    terminate(close_err);
    return;
  }

  if (!server_ && (p.type == packet_type::accept || !p.frames.empty())) {
    // Anything back from the server proves our connection exists there;
    // drop the initial framing on subsequent sends.
    confirmed_ = true;
    if (state_ == conn_state::connecting) {
      state_ = conn_state::established;
      cc_->on_established(sim_.now());
      if (cb_.on_connected) cb_.on_connected();
    }
  }

  if (server_ && p.type == packet_type::initial) {
    // Accept answers every initial (idempotent: a client that lost our
    // first accept re-sends its initial on PTO). Carries the resumption
    // token for the client's next connection and doubles as the ack.
    wire_packet acc;
    acc.type = packet_type::accept;
    acc.conn_id = conn_id_;
    acc.pn = next_pn_++;
    if (issue_token_ != 0) {
      frame tf;
      tf.type = frame_type::new_token;
      tf.token.token = issue_token_;
      acc.frames.push_back(std::move(tf));
    }
    acc.frames.push_back(make_ack_frame());
    ack_pending_ = false;
    if (cb_.emit) cb_.emit(encode(acc));
    ++stats_.packets_sent;
  }

  if (p.ack_eliciting()) ack_pending_ = true;
  maybe_send();
}

void connection::note_pn_received(std::uint64_t pn) {
  if (!any_pn_rx_) {
    any_pn_rx_ = true;
    largest_pn_rx_ = pn;
    pn_rx_bitmap_ = 0;
    return;
  }
  if (pn > largest_pn_rx_) {
    const std::uint64_t shift = pn - largest_pn_rx_;
    pn_rx_bitmap_ = shift >= 64 ? 0 : pn_rx_bitmap_ << shift;
    if (shift <= 64) pn_rx_bitmap_ |= std::uint64_t{1} << (shift - 1);
    largest_pn_rx_ = pn;
  } else if (pn < largest_pn_rx_) {
    const std::uint64_t behind = largest_pn_rx_ - pn;
    if (behind <= 64) pn_rx_bitmap_ |= std::uint64_t{1} << (behind - 1);
  }
}

frame connection::make_ack_frame() {
  frame f;
  f.type = frame_type::ack;
  f.ack.largest = largest_pn_rx_;
  f.ack.bitmap = pn_rx_bitmap_;
  f.ack.max_data = advertised_max_data();
  last_advertised_max_ = f.ack.max_data;
  return f;
}

void connection::process_stream(const stream_frame& s) {
  const std::uint64_t end = s.offset + s.data.size();
  if (s.fin && !fin_offset_.has_value()) fin_offset_ = end;
  if (!s.fin && end <= recv_next_) return;  // pure duplicate
  // Flow control: data beyond our advertised window is not buffered — and
  // crucially not acked (the pn bookkeeping already counted the packet, but
  // the sender treats unacked as lost and retransmits once the window
  // reopens; an honest sender never gets here).
  if (end > advertised_max_data()) return;
  const std::uint64_t before = recv_next_;
  buffer_chain ready = reassembly_.insert(s.offset, s.data, recv_next_);
  stats_.bytes_received += ready.size();
  recv_chain_.append(std::move(ready));
  const bool eof_now =
      fin_offset_.has_value() && recv_next_ >= *fin_offset_;
  if ((recv_next_ > before || eof_now) && cb_.on_readable) cb_.on_readable();
}

// --- ack processing / loss detection -------------------------------------------

void connection::process_ack(const ack_frame& a) {
  peer_max_data_ = std::max(peer_max_data_, a.max_data);
  const std::uint64_t sent_before = next_unsent_;

  std::uint64_t newly_acked = 0;
  bool rtt_sampled = false;
  sim_time rtt{};
  std::uint64_t delivered_at_send = delivered_;
  sim_time sent_at{};

  auto acked_by_frame = [&](std::uint64_t pn) {
    if (pn > a.largest) return false;
    if (pn == a.largest) return true;
    const std::uint64_t behind = a.largest - pn;
    return behind <= 64 && (a.bitmap & (std::uint64_t{1} << (behind - 1))) != 0;
  };

  for (auto it = sent_packets_.begin(); it != sent_packets_.end();) {
    const std::uint64_t pn = it->first;
    if (pn > a.largest) break;
    sent_packet& sp = it->second;
    if (acked_by_frame(pn)) {
      newly_acked += sp.bytes;
      bytes_in_flight_ -= std::min(bytes_in_flight_, sp.bytes);
      if (pn == a.largest) {
        rtt_sampled = true;
        rtt = sim_.now() - sp.sent_at;
        delivered_at_send = sp.delivered_at_send;
        sent_at = sp.sent_at;
      }
      for (const auto& rg : sp.ranges) {
        if (rg.fin) fin_acked_ = true;
        if (rg.len == 0) continue;
        // Merge [off, end) into the acked set.
        std::uint64_t off = rg.offset;
        std::uint64_t end = off + rg.len;
        auto next = acked_.upper_bound(off);
        if (next != acked_.begin()) {
          auto prev = std::prev(next);
          if (prev->second >= off) {
            off = prev->first;
            end = std::max(end, prev->second);
            next = acked_.erase(prev);
          }
        }
        while (next != acked_.end() && next->first <= end) {
          end = std::max(end, next->second);
          next = acked_.erase(next);
        }
        acked_[off] = end;
      }
      it = sent_packets_.erase(it);
    } else {
      ++it;
    }
  }

  if (newly_acked == 0 && !rtt_sampled) {
    // Window-update / duplicate ack: still worth a send attempt.
    maybe_send();
    if (next_unsent_ > sent_before && cb_.on_writable) cb_.on_writable();
    return;
  }

  if (a.largest > largest_acked_ || !any_acked_) {
    largest_acked_ = a.largest;
    any_acked_ = true;
  }
  if (largest_acked_ >= round_end_pn_) {
    ++round_trips_;
    round_end_pn_ = next_pn_;
  }
  if (in_recovery_ && largest_acked_ >= recovery_end_pn_) {
    in_recovery_ = false;
    cc_->on_recovery_exit(sim_.now());
  }
  pto_count_ = 0;

  if (rtt_sampled && rtt > sim_time::zero()) {
    min_rtt_ = rtt_.has_sample() ? std::min(min_rtt_, rtt) : rtt;
    rtt_.add_sample(rtt);
    const sim_time interval = sim_.now() - sent_at;
    if (interval > sim_time::zero()) {
      delivery_rate_ =
          static_cast<double>(delivered_ + newly_acked - delivered_at_send) *
          1e9 / static_cast<double>(interval.count());
    }
  }
  delivered_ += newly_acked;

  // Packet-threshold loss: tracked pns more than `packet_threshold` below
  // the largest acked are gone (every nkq packet is acked immediately, so
  // the threshold is tight).
  std::vector<std::uint64_t> lost;
  for (auto& [pn, sp] : sent_packets_) {
    if (pn + packet_threshold < a.largest) lost.push_back(pn);
  }
  for (const std::uint64_t pn : lost) {
    auto it = sent_packets_.find(pn);
    if (it == sent_packets_.end()) continue;
    on_packet_lost(pn, it->second);
    sent_packets_.erase(it);
  }

  if (cc_ != nullptr && newly_acked > 0) {
    tcp::ack_sample s;
    s.now = sim_.now();
    s.acked_bytes = newly_acked;
    s.rtt = rtt_sampled ? rtt : sim_time::zero();
    s.min_rtt = min_rtt_;
    s.in_flight = bytes_in_flight_;
    s.delivered = delivered_;
    s.delivery_rate = delivery_rate_;
    s.rate_app_limited = stream_len_ <= next_unsent_ && retx_queue_.empty();
    s.in_recovery = in_recovery_;
    s.round_trips = round_trips_;
    cc_->on_ack(s);
  }

  // Acked prefix: release send-buffer space.
  auto first = acked_.begin();
  const bool advanced = first != acked_.end() && first->first <= send_base_ &&
                        first->second > send_base_;
  if (advanced) {
    const std::uint64_t release = first->second - send_base_;
    send_chain_.consume(static_cast<std::size_t>(release));
    send_base_ = first->second;
    if (first->second <= send_base_) acked_.erase(first);
  }

  arm_pto();
  maybe_send();
  // Report the advance after the sends it clocked out, so the listener sees
  // both in one event.
  if ((advanced || next_unsent_ > sent_before) && cb_.on_writable) {
    cb_.on_writable();
  }
  maybe_finish_drain();
}

void connection::on_packet_lost(std::uint64_t pn, sent_packet& sp) {
  bytes_in_flight_ -= std::min(bytes_in_flight_, sp.bytes);
  bool retransmittable = false;
  for (const auto& rg : sp.ranges) {
    if (rg.len == 0 && !rg.fin) continue;
    retx_queue_.push_back(rg);
    retransmittable = true;
    ++stats_.retransmits;
    stats_.bytes_retransmitted += rg.len;
  }
  if (sp.initial && state_ == conn_state::connecting) {
    // Lost client hello with nothing else to carry it: count it so the
    // PTO/maybe_send path re-emits an initial.
    ++stats_.retransmits;
    retransmittable = true;
  }
  if (retransmittable && pn >= recovery_end_pn_ && !in_recovery_) {
    in_recovery_ = true;
    recovery_end_pn_ = next_pn_;
    cc_->on_fast_retransmit(tcp::loss_sample{sim_.now(), bytes_in_flight_});
  }
}

// --- tx assembly ---------------------------------------------------------------

std::optional<connection::sent_range> connection::next_stream_range() {
  // Retransmissions first, clipped against what got acked meanwhile.
  while (!retx_queue_.empty()) {
    sent_range rg = retx_queue_.front();
    retx_queue_.pop_front();
    if (rg.fin && fin_acked_) continue;
    if (rg.len == 0) {
      if (rg.fin) return rg;  // bare fin
      continue;
    }
    std::uint64_t off = rg.offset;
    std::uint64_t end = off + rg.len;
    for (const auto& [aoff, aend] : acked_) {
      if (aoff <= off && off < aend) off = std::min(end, aend);
    }
    if (off >= end) continue;
    if (end - off > cfg_.mss) {
      // Tail goes back for the next packet.
      retx_queue_.push_front(sent_range{
          off + cfg_.mss, static_cast<std::uint32_t>(end - off - cfg_.mss),
          rg.fin});
      return sent_range{off, static_cast<std::uint32_t>(cfg_.mss), false};
    }
    return sent_range{off, static_cast<std::uint32_t>(end - off),
                      rg.fin && end == stream_len_};
  }
  // New data, bounded by the peer's flow-control window.
  if (next_unsent_ < stream_len_ && next_unsent_ < peer_max_data_) {
    const std::uint64_t end =
        std::min({stream_len_, peer_max_data_, next_unsent_ + cfg_.mss});
    sent_range rg{next_unsent_, static_cast<std::uint32_t>(end - next_unsent_),
                  fin_pending_ && end == stream_len_};
    next_unsent_ = end;
    if (rg.fin) fin_sent_ = true;
    return rg;
  }
  // Bare fin once all data went out.
  if (fin_pending_ && !fin_sent_ && next_unsent_ >= stream_len_) {
    fin_sent_ = true;
    return sent_range{stream_len_, 0, true};
  }
  return std::nullopt;
}

void connection::maybe_send() {
  if (state_ == conn_state::closed || !cb_.emit) return;
  // Stream data flows only once writable: immediately for servers and
  // resumed (0-RTT) clients, after the accept for cold clients.
  const bool can_stream = state_ == conn_state::established;

  bool sent_any = false;
  while (can_stream) {
    const std::uint64_t cwnd = std::max<std::uint64_t>(
        cc_ != nullptr ? cc_->cwnd_bytes() : 0, cfg_.mss);
    if (bytes_in_flight_ + cfg_.mss > cwnd) break;
    auto rg = next_stream_range();
    if (!rg.has_value()) break;

    wire_packet p;
    p.type = !server_ && !confirmed_ ? packet_type::initial : packet_type::data;
    p.conn_id = conn_id_;
    p.pn = next_pn_++;
    p.token = client_token_;
    frame sf;
    sf.type = frame_type::stream;
    sf.stream.offset = rg->offset;
    sf.stream.fin = rg->fin;
    if (rg->len != 0) {
      sf.stream.data = send_chain_.peek(
          static_cast<std::size_t>(rg->offset - send_base_), rg->len);
    }
    p.frames.push_back(std::move(sf));
    if (any_pn_rx_) {
      p.frames.push_back(make_ack_frame());
      ack_pending_ = false;
    }

    sent_packet sp;
    sp.sent_at = sim_.now();
    sp.ranges.push_back(*rg);
    sp.bytes = rg->len;
    sp.delivered_at_send = delivered_;
    sp.initial = p.type == packet_type::initial;
    stats_.bytes_sent += rg->len;
    emit_packet(std::move(p), std::move(sp));
    sent_any = true;
  }

  if (ack_pending_ && any_pn_rx_) {
    // Nothing carried the ack: send it bare (not tracked, not ack-eliciting).
    wire_packet p;
    p.type = !server_ && !confirmed_ ? packet_type::initial : packet_type::data;
    p.conn_id = conn_id_;
    p.pn = next_pn_++;
    p.token = client_token_;
    p.frames.push_back(make_ack_frame());
    ack_pending_ = false;
    if (cb_.emit) cb_.emit(encode(p));
    ++stats_.packets_sent;
  }

  if (sent_any || !sent_packets_.empty()) arm_pto();
}

void connection::emit_packet(wire_packet p, sent_packet tracked) {
  const std::uint64_t pn = p.pn;
  if (cb_.emit) cb_.emit(encode(p));
  ++stats_.packets_sent;
  bytes_in_flight_ += tracked.bytes;
  sent_packets_[pn] = std::move(tracked);
}

void connection::send_initial() {
  wire_packet p;
  p.type = packet_type::initial;
  p.conn_id = conn_id_;
  p.pn = next_pn_++;
  p.token = client_token_;
  sent_packet sp;
  sp.sent_at = sim_.now();
  sp.initial = true;
  sp.delivered_at_send = delivered_;
  emit_packet(std::move(p), std::move(sp));
}

// --- PTO -----------------------------------------------------------------------

sim_time connection::pto_interval() const {
  sim_time base;
  if (rtt_.has_sample()) {
    base = rtt_.srtt() + std::max(rtt_.rttvar() * 4, milliseconds(1));
  } else {
    base = initial_rtt * 2;
  }
  base = std::max(base, min_pto);
  for (int i = 0; i < pto_count_; ++i) base = base * 2;
  return base;
}

void connection::arm_pto() {
  pto_timer_.cancel();
  if (sent_packets_.empty() || state_ == conn_state::closed) return;
  pto_timer_ = sim_.schedule(pto_interval(), [this] { on_pto(); });
}

void connection::on_pto() {
  if (state_ == conn_state::closed || sent_packets_.empty()) return;
  ++stats_.pto_fired;
  ++pto_count_;
  if (pto_count_ > max_pto) {
    terminate(errc::timed_out);
    return;
  }
  // Persistent silence collapses the window; a single probe does not
  // (tail-loss probes should not tank an otherwise healthy connection).
  if (pto_count_ >= 3 && cc_ != nullptr) {
    cc_->on_rto(tcp::loss_sample{sim_.now(), bytes_in_flight_});
  }
  const std::uint64_t sent_before = next_unsent_;
  // Treat the oldest in-flight packet as lost and resend its payload now.
  auto it = sent_packets_.begin();
  if (it != sent_packets_.end()) {
    const std::uint64_t pn = it->first;
    sent_packet sp = std::move(it->second);
    sent_packets_.erase(it);
    const bool was_initial = sp.initial;
    on_packet_lost(pn, sp);
    if (was_initial && state_ == conn_state::connecting) send_initial();
  }
  maybe_send();
  if (sent_packets_.empty() && state_ == conn_state::connecting) {
    send_initial();  // maybe_send had nothing to probe with
  }
  arm_pto();
  if (next_unsent_ > sent_before && cb_.on_writable) cb_.on_writable();
}

void connection::terminate(errc err) {
  if (state_ == conn_state::closed) return;
  state_ = conn_state::closed;
  pto_timer_.cancel();
  if (cb_.on_closed) cb_.on_closed(err);
}

// --- introspection -------------------------------------------------------------

obs::nk_flow_info connection::flow_info() const {
  obs::nk_flow_info fi;
  fi.transport = "nkq";
  fi.state = std::string{to_string(state_)};
  fi.cc = cc_ != nullptr ? std::string{cc_->name()} : "none";
  fi.srtt_ns = static_cast<std::uint64_t>(rtt_.srtt().count());
  fi.rttvar_ns = static_cast<std::uint64_t>(rtt_.rttvar().count());
  fi.min_rtt_ns = static_cast<std::uint64_t>(min_rtt_.count());
  fi.cwnd_bytes = cc_ != nullptr ? cc_->cwnd_bytes() : 0;
  fi.ssthresh_bytes = cc_ != nullptr ? cc_->ssthresh_bytes() : 0;
  fi.bytes_in_flight = bytes_in_flight_;
  fi.retransmits = stats_.retransmits;
  fi.bytes_retransmitted = stats_.bytes_retransmitted;
  fi.delivery_rate_bps = delivery_rate_ * 8.0;
  fi.bytes_in = stats_.bytes_received;
  fi.bytes_out = stats_.bytes_sent;
  fi.segments_in = stats_.packets_received;
  fi.segments_out = stats_.packets_sent;
  fi.sndbuf_bytes = send_chain_.size();
  fi.sndbuf_capacity = cfg_.send_buffer;
  fi.rcvbuf_bytes = recv_chain_.size();
  fi.rcvbuf_capacity = cfg_.recv_buffer;
  return fi;
}

}  // namespace nk::nkq
