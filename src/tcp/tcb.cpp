#include "tcp/tcb.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>

#include "obs/profiler.hpp"
#include "tcp/seq.hpp"

namespace nk::tcp {

namespace {
// Delayed ACK (RFC 1122 §4.2.3.2): acknowledge at least every second
// full-sized segment.
constexpr std::uint32_t ack_every_segments = 2;
// TIME_WAIT hold before the connection is fully closed (a short 2·MSL for
// datacenter RTTs).
constexpr sim_time time_wait_duration = milliseconds(500);
// SYN / SYN-ACK retransmissions before a handshake gives up (Linux
// tcp_syn_retries).
constexpr int max_syn_retries = 6;
// Wire bytes of a segment beyond its payload, at most: L2 framing, IP, and
// TCP with timestamps and three SACK blocks.
constexpr std::size_t max_segment_overhead =
    18 + net::ipv4_header::wire_bytes + net::tcp_header::wire_bytes + 28;
}  // namespace

std::string_view to_string(tcp_state s) {
  switch (s) {
    case tcp_state::closed: return "closed";
    case tcp_state::syn_sent: return "syn_sent";
    case tcp_state::syn_received: return "syn_received";
    case tcp_state::established: return "established";
    case tcp_state::fin_wait_1: return "fin_wait_1";
    case tcp_state::fin_wait_2: return "fin_wait_2";
    case tcp_state::close_wait: return "close_wait";
    case tcp_state::closing: return "closing";
    case tcp_state::last_ack: return "last_ack";
    case tcp_state::time_wait: return "time_wait";
  }
  return "unknown";
}

tcb::tcb(environment env, tcp_config cfg, net::four_tuple tuple,
         std::uint32_t initial_seq)
    : env_{std::move(env)},
      cfg_{cfg},
      tuple_{tuple},
      cc_{make_congestion_controller(cfg.cc, cfg.mss)},
      rtt_{cfg.rto},
      iss_{initial_seq},
      ecn_requested_{false},
      tsq_{std::make_shared<net::tx_account>()} {
  ecn_requested_ = cc_->wants_ecn();
  assert(env_.sim != nullptr && env_.emit);
  tsq_->on_release = [this] { tsq_released(); };
}

tcb::~tcb() {
  // Segments still below the stack outlive the connection; their releases
  // must not reach it.
  tsq_->on_release = nullptr;
  tsq_timer_.cancel();
  rto_timer_.cancel();
  delack_timer_.cancel();
  persist_timer_.cancel();
  time_wait_timer_.cancel();
  pacing_timer_.cancel();
}

std::uint32_t tcb::now_ts() const {
  // Microsecond-granularity timestamp clock (wraps at ~71 minutes, which
  // unwrapping never needs to care about — we only echo it).
  return static_cast<std::uint32_t>(env_.sim->now().count() / 1000);
}

// --- segment construction ----------------------------------------------------

net::packet tcb::make_segment(std::uint64_t seq_abs, net::tcp_flags flags,
                              buffer payload) const {
  net::packet p;
  p.ip.src = tuple_.local.ip;
  p.ip.dst = tuple_.remote.ip;
  p.ip.proto = net::ip_proto::tcp;
  // Data segments of an ECN connection are ECT(0); pure ACKs are not-ECT.
  if (ecn_enabled_ && !payload.empty()) {
    p.ip.ecn = net::ecn_codepoint::ect0;
  }
  net::tcp_header h;
  h.src_port = tuple_.local.port;
  h.dst_port = tuple_.remote.port;
  h.seq = wrap_seq(seq_abs, iss_);
  h.flags = flags;
  if (flags.ack) h.ack = wrap_seq(rcv_nxt_, irs_);
  h.wnd = advertised_window();
  h.ts_val = now_ts();
  h.ts_ecr = last_ts_val_;
  // SACK blocks advertising held out-of-order data (RFC 2018). Only three
  // blocks fit beside timestamps, so rotate through the held ranges across
  // successive ACKs — the sender's scoreboard accumulates them, and scattered
  // loss (many ranges) would otherwise leave everything beyond the first
  // three ranges invisible.
  if (flags.ack && !reasm_.empty()) {
    const auto ranges =
        reasm_.held_ranges(std::numeric_limits<std::size_t>::max());
    const std::size_t n = std::min(ranges.size(), h.sacks.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [start, end] = ranges[(sack_rotation_ + i) % ranges.size()];
      h.sacks[h.sack_count++] =
          net::sack_block{wrap_seq(start, irs_), wrap_seq(end, irs_)};
    }
    sack_rotation_ = (sack_rotation_ + n) % std::max<std::size_t>(ranges.size(), 1);
  }
  p.l4 = h;
  p.payload = std::move(payload);
  return p;
}

void tcb::emit_segment(net::packet p) {
  ++stats_.segments_sent;
  // A CE mark is echoed on the next ACK-bearing segment only, whether that
  // is a pure ACK or a reply carrying the ACK.
  if (p.tcp().flags.ack) ece_pending_ = false;
  const std::size_t bytes = p.wire_size();
  p.ticket = net::tx_ticket{tsq_, bytes};
  if (burst_bytes_ + bytes > gso_max_bytes) flush_burst();
  burst_bytes_ += bytes;
  burst_.push_back(std::move(p));
  if (!batching_) flush_burst();
}

void tcb::flush_burst() {
  if (burst_.empty()) return;
  env_.emit(burst_);
  burst_.clear();
  burst_bytes_ = 0;
}

void tcb::send_control(net::tcp_flags flags) {
  if (ecn_enabled_ && ece_pending_ && flags.ack) flags.ece = true;
  emit_segment(make_segment(snd_nxt_, flags, {}));
  if (flags.ack) {
    last_adv_wnd_ = advertised_window();
    pending_ack_segments_ = 0;
    delack_timer_.cancel();
  }
}

// --- opening -------------------------------------------------------------------

void tcb::connect() {
  assert(state_ == tcp_state::closed);
  state_ = tcp_state::syn_sent;
  transmit_range(0, 1, false);
  arm_rto();
}

void tcb::accept_from_syn(const net::packet& syn) {
  assert(state_ == tcp_state::closed);
  const auto& h = syn.tcp();
  irs_ = h.seq;
  rcv_nxt_ = 1;  // the SYN consumed one sequence slot
  last_ts_val_ = h.ts_val;
  snd_wnd_ = h.wnd;
  // ECN handshake: peer sets ECE+CWR on the SYN; we confirm with ECE on the
  // SYN-ACK iff our stack wants ECN too.
  ecn_enabled_ = ecn_requested_ && h.flags.ece && h.flags.cwr;
  state_ = tcp_state::syn_received;
  transmit_range(0, 1, false);  // SYN-ACK (records offset 0)
  arm_rto();
}

// --- application API ------------------------------------------------------------

std::size_t tcb::send_space() const {
  return cfg_.send_buffer > sendq_.size() ? cfg_.send_buffer - sendq_.size()
                                          : 0;
}

result<std::size_t> tcb::send(buffer data) {
  if (state_ == tcp_state::closed || state_ == tcp_state::time_wait) {
    return errc::not_connected;
  }
  if (fin_queued_) return errc::closed;
  const std::size_t accept = std::min(send_space(), data.size());
  if (accept == 0) return errc::would_block;
  sendq_.append(data.prefix(accept));
  app_limited_ = false;  // fresh data: rate samples are congestion-limited again
  try_send();
  return accept;
}

buffer tcb::receive(std::size_t max) {
  buffer out = recvq_.pop(max);
  maybe_send_window_update();
  return out;
}

void tcb::shutdown_write() {
  if (fin_queued_ || state_ == tcp_state::closed) return;
  fin_queued_ = true;
  // FIN occupies the offset right after the last byte the app gave us.
  fin_offset_ = sendq_base_ + sendq_.size();
  // Account for bytes already in flight beyond the queue base... the queue
  // holds all unacked bytes, so base+size is exactly one past the last byte.
  fin_offset_valid_ = true;
  try_send();
}

void tcb::close() {
  if (state_ == tcp_state::closed) return;
  if (state_ == tcp_state::syn_sent) {
    become_closed(errc::ok);
    return;
  }
  shutdown_write();
}

void tcb::abort() {
  if (state_ == tcp_state::closed) return;
  net::tcp_flags flags;
  flags.rst = true;
  flags.ack = true;
  emit_segment(make_segment(snd_nxt_, flags, {}));
  become_closed(errc::connection_reset);
}

// --- transmission ----------------------------------------------------------------

std::uint64_t tcb::effective_window() const {
  return std::min<std::uint64_t>(cc_->cwnd_bytes(), snd_wnd_);
}

buffer tcb::payload_for(std::uint64_t start, std::uint64_t end) const {
  const std::uint64_t data_begin = std::max<std::uint64_t>(start, 1);
  std::uint64_t data_end = sendq_base_ + sendq_.size();
  if (fin_offset_valid_) data_end = std::min(data_end, fin_offset_);
  if (end < data_end) data_end = end;
  if (data_begin >= data_end) return {};
  return sendq_.peek(data_begin - sendq_base_, data_end - data_begin);
}

bool tcb::fin_at(std::uint64_t off) const {
  return fin_offset_valid_ && off == fin_offset_;
}

void tcb::transmit_range(std::uint64_t start, std::uint64_t end, bool rtx) {
  net::tcp_flags flags;
  flags.ack = !(syn_at(start) && state_ == tcp_state::syn_sent);
  flags.syn = syn_at(start);
  if (flags.syn) {
    // RFC 3168: SYN carries ECE+CWR to request ECN; the SYN-ACK confirms
    // with ECE alone, and only if both ends want it.
    if (state_ == tcp_state::syn_received) {
      flags.ece = ecn_enabled_;
    } else if (ecn_requested_) {
      flags.ece = true;
      flags.cwr = true;
    }
  }
  if (fin_at(end - 1)) flags.fin = true;

  buffer payload = payload_for(start, end);
  // PSH (the BSD/Linux tcp_push rule) marks the segment that empties the
  // queued data, which includes the one carrying the FIN, and a zero-window
  // probe: the receiver ACKs those at once and every second one otherwise.
  if (!payload.empty() &&
      (end >= sendq_base_ + sendq_.size() || snd_wnd_ == 0)) {
    flags.psh = true;
  }
  if (flags.ack && ecn_enabled_ && ece_pending_) flags.ece = true;

  if (rtx || end <= rto_rewind_high_water_) {
    stats_.bytes_retransmitted += payload.size();
  } else {
    stats_.bytes_sent += payload.size();
  }

  // Sending fresh payload after receiving some marks the flow interactive:
  // later short requests hold their ACK for this side's reply to carry.
  if (!rtx && !payload.empty() && stats_.bytes_received > 0) pingpong_ = true;
  emit_segment(make_segment(start, flags, std::move(payload)));
  if (flags.ack) {
    last_adv_wnd_ = advertised_window();
    pending_ack_segments_ = 0;
    delack_timer_.cancel();
  }

  if (!rtx) {
    sent_record rec;
    rec.start = start;
    rec.end = end;
    rec.sent_at = env_.sim->now();
    rec.delivered_at_send = delivered_;
    rec.delivered_time_at_send = delivered_time_;
    rec.app_limited = app_limited_;
    // Segments re-driven after an RTO rewind are retransmissions for Karn's
    // purposes: an ACK might be for the original copy.
    rec.retransmitted = end <= rto_rewind_high_water_;
    inflight_.push_back(rec);
    snd_nxt_ = std::max(snd_nxt_, end);
  } else {
    for (auto& rec : inflight_) {
      if (rec.start < end && rec.end > start) {
        rec.retransmitted = true;
        rec.sent_at = env_.sim->now();
      }
    }
  }

  // FIN transmission drives the close-side state machine.
  if (flags.fin && !rtx) {
    if (state_ == tcp_state::established) state_ = tcp_state::fin_wait_1;
    else if (state_ == tcp_state::close_wait) state_ = tcp_state::last_ack;
  }
}

bool tcb::pacing_gate() {
  const data_rate rate = cc_->pacing_rate();
  if (rate.is_zero()) return true;
  const sim_time now = env_.sim->now();
  if (next_release_ > now) {
    if (!pacing_timer_.pending()) {
      pacing_timer_ = env_.sim->schedule(next_release_ - now, [this] {
        const std::uint64_t sent_before = sent_bytes();
        try_send();
        report_send_progress(snd_una_, sent_before);
      });
    }
    return false;
  }
  return true;
}

bool tcb::tsq_blocks(std::size_t bytes) {
  if (tsq_->queued_bytes == 0 ||
      tsq_->queued_bytes + bytes <= tsq_limit_bytes) {
    return false;
  }
  tsq_throttled_ = true;
  return true;
}

void tcb::tsq_released() {
  if (!tsq_throttled_ || tsq_timer_.pending() ||
      tsq_->queued_bytes + gso_max_bytes > tsq_limit_bytes) {
    return;
  }
  // From a fresh event, like Linux's TSQ tasklet: the release may come from
  // inside this connection's own transmit (a drop on a synchronous path) or
  // from a link being torn down.
  tsq_timer_ = env_.sim->schedule(sim_time::zero(), [this] {
    const std::uint64_t sent_before = sent_bytes();
    try_send();
    report_send_progress(snd_una_, sent_before);
  });
}

void tcb::try_send() {
  NK_PROF("tcp", "output");
  if (state_ != tcp_state::established && state_ != tcp_state::close_wait &&
      state_ != tcp_state::fin_wait_1 && state_ != tcp_state::last_ack &&
      state_ != tcp_state::closing) {
    return;
  }
  // A pass starts only with room for a whole burst below the stack.
  if (tsq_blocks(gso_max_bytes)) return;
  tsq_throttled_ = false;
  const std::size_t max_segment_bytes = cfg_.mss + max_segment_overhead;

  const std::uint64_t data_end_abs =
      fin_offset_valid_ ? fin_offset_ : sendq_base_ + sendq_.size();

  const auto charge_pacing = [this](std::uint64_t bytes) {
    if (cc_->pacing_rate().is_zero()) return;
    const sim_time now = env_.sim->now();
    const sim_time gap = cc_->pacing_rate().transmission_time(bytes);
    next_release_ = std::max(next_release_, now) + gap;
  };

  // Everything this pass sends leaves as one burst (GSO).
  batching_ = true;
  while (true) {
    const std::uint64_t wnd = effective_window();
    const std::uint64_t in_flight = bytes_in_flight();
    if (in_flight >= wnd) break;
    // The next segment must not take the connection past the TSQ limit.
    if (tsq_blocks(max_segment_bytes)) break;

    // Scoreboard-lost data retransmits first, through the same pacing and
    // window gates as fresh data — an unpaced retransmission burst would
    // re-overflow the very queue that caused the losses.
    if (lost_unretx_bytes_ > 0) {
      sent_record* lost_rec = nullptr;
      for (auto& rec : inflight_) {
        if (rec.lost) {
          lost_rec = &rec;
          break;
        }
      }
      if (lost_rec != nullptr) {
        if (!pacing_gate()) break;
        const std::uint64_t start = std::max(lost_rec->start, snd_una_);
        const std::uint64_t len = lost_rec->end - start;
        lost_rec->lost = false;
        lost_unretx_bytes_ -= lost_rec->end - lost_rec->start;
        transmit_range(start, lost_rec->end, /*rtx=*/true);
        arm_rto();
        charge_pacing(len);
        continue;
      }
      lost_unretx_bytes_ = 0;  // defensive: no matching records
    }

    const std::uint64_t cursor = std::max<std::uint64_t>(snd_nxt_, 1);
    std::uint64_t avail = data_end_abs > cursor ? data_end_abs - cursor : 0;

    if (avail == 0) {
      // Maybe a FIN remains to be sent.
      if (fin_offset_valid_ && snd_nxt_ <= fin_offset_) {
        if (!pacing_gate()) break;
        transmit_range(std::max(snd_nxt_, fin_offset_), fin_offset_ + 1,
                       false);
        arm_rto();
      } else {
        app_limited_ = true;
      }
      break;
    }

    std::uint64_t len =
        std::min<std::uint64_t>({avail, cfg_.mss, wnd - in_flight});
    if (len < avail && len < cfg_.mss) {
      // Window smaller than a full segment: send only if nothing in flight
      // (avoid silly-window segments).
      if (in_flight > 0) break;
    }
    if (cfg_.nagle && len < cfg_.mss && in_flight > 0) break;
    if (!pacing_gate()) break;

    std::uint64_t end = cursor + len;
    // Piggyback the FIN on the last data segment.
    const bool include_fin = fin_offset_valid_ && end == fin_offset_;
    if (include_fin) end += 1;

    app_limited_ = (avail == len) && !fin_offset_valid_;
    transmit_range(cursor, end, false);
    arm_rto();
    charge_pacing(len);
    if (include_fin) break;
  }
  batching_ = false;
  flush_burst();

  // Zero-window with pending data and nothing in flight: persist probing.
  if (snd_wnd_ == 0 && bytes_in_flight() == 0 &&
      data_end_abs > std::max<std::uint64_t>(snd_nxt_, 1)) {
    arm_persist();
  }
}

void tcb::retransmit_first_unacked() {
  for (const auto& rec : inflight_) {
    if (rec.end > snd_una_) {
      const std::uint64_t start = std::max(rec.start, snd_una_);
      transmit_range(start, rec.end, true);
      arm_rto();
      return;
    }
  }
}

// --- receive path ------------------------------------------------------------------

std::uint32_t tcb::advertised_window() const {
  const std::size_t used = recvq_.size() + reasm_.buffered_bytes();
  const std::size_t wnd = cfg_.recv_buffer > used ? cfg_.recv_buffer - used : 0;
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(wnd, 0xffffffffu));
}

void tcb::maybe_send_window_update() {
  if (state_ == tcp_state::closed || state_ == tcp_state::time_wait) return;
  const std::uint32_t wnd = advertised_window();
  const bool reopened = last_adv_wnd_ < cfg_.mss && wnd >= cfg_.mss;
  const bool grew = wnd >= last_adv_wnd_ + 2 * cfg_.mss;
  if (reopened || grew) send_ack_now();
}

void tcb::send_ack_now() {
  net::tcp_flags flags;
  flags.ack = true;
  send_control(flags);
}

void tcb::maybe_send_ack(bool immediate) {
  ++pending_ack_segments_;
  if (immediate || pending_ack_segments_ >= ack_every_segments) {
    send_ack_now();
    return;
  }
  if (!delack_timer_.pending()) {
    // The app did not reply in time: fall back to quick ACKs.
    delack_timer_ = env_.sim->schedule(cfg_.delayed_ack_timeout, [this] {
      pingpong_ = false;
      send_ack_now();
    });
  }
}

void tcb::handle_fin(std::uint64_t fin_abs) {
  if (fin_received_ || rcv_nxt_ > fin_abs) {
    send_ack_now();  // retransmitted FIN: just re-acknowledge
    return;
  }
  fin_seen_ = true;
  fin_abs_ = fin_abs;
  if (rcv_nxt_ != fin_abs) return;  // data still missing before the FIN
  rcv_nxt_ = fin_abs + 1;
  fin_received_ = true;

  switch (state_) {
    case tcp_state::established:
      state_ = tcp_state::close_wait;
      break;
    case tcp_state::fin_wait_1:
      // Our FIN not yet acked: simultaneous close.
      state_ = tcp_state::closing;
      break;
    case tcp_state::fin_wait_2:
      enter_time_wait();
      break;
    default:
      break;
  }
  send_ack_now();
  if (env_.on_readable) env_.on_readable();
}

void tcb::handle_payload(const net::packet& p, std::uint64_t seg_abs) {
  const auto& h = p.tcp();
  std::uint64_t payload_abs = seg_abs;
  if (h.flags.syn) payload_abs += 1;  // SYN occupies the first slot

  bool delivered_data = false;
  bool ack_now = false;
  if (!p.payload.empty()) {
    const bool out_of_order = payload_abs != rcv_nxt_;
    // A segment that fills all or part of a reassembly gap is ACKed at once
    // (RFC 5681 §4.2): it is usually the sender's retransmission.
    const bool fills_gap = !reasm_.empty();
    const std::uint64_t before = rcv_nxt_;
    buffer_chain ready = reasm_.insert(payload_abs, p.payload, rcv_nxt_);
    const std::uint64_t advanced = rcv_nxt_ - before;
    if (advanced > 0) {
      stats_.bytes_received += advanced;
      recvq_.append(std::move(ready));
      delivered_data = true;
    }
    // PSH asks for a quick ACK, except a short segment on an interactive
    // flow: its ACK waits for the reply (or the 2nd segment, or the timer).
    const bool hold_for_reply = pingpong_ && p.payload.size() < cfg_.mss;
    ack_now = out_of_order || fills_gap || h.flags.fin ||
              (h.flags.psh && !hold_for_reply);
  }

  // The FIN this segment carries, or an earlier one whose reassembly gap
  // this segment just closed.
  std::optional<std::uint64_t> fin;
  if (h.flags.fin) {
    fin = payload_abs + p.payload.size();
  } else if (fin_seen_ && !fin_received_ && rcv_nxt_ == fin_abs_) {
    fin = fin_abs_;
  }
  // handle_fin ACKs a FIN at or below rcv_nxt_, and that one ACK covers
  // this segment's data too.
  const bool fin_acks = fin && rcv_nxt_ >= *fin;
  if (!p.payload.empty() && !fin_acks) maybe_send_ack(ack_now);
  if (fin) handle_fin(*fin);

  if (delivered_data && env_.on_readable) env_.on_readable();
}

void tcb::ack_advanced(std::uint64_t newly_acked, const net::packet& p) {
  const sim_time now = env_.sim->now();
  const auto& h = p.tcp();

  delivered_time_ = now;

  // Pop fully-acked records; keep RTT/rate bookkeeping from the last one.
  // Bytes already credited to `delivered_` at SACK time are not re-counted.
  sim_time rtt_sample = sim_time::zero();
  double rate_sample = 0.0;
  bool rate_app_limited = false;
  std::uint64_t popped_span = 0;
  while (!inflight_.empty() && inflight_.front().end <= snd_una_) {
    const sent_record& rec = inflight_.front();
    popped_span += rec.end - rec.start;
    if (!rec.sacked) delivered_ += rec.end - rec.start;
    if (rec.sacked) sacked_bytes_ -= rec.end - rec.start;
    if (rec.lost) lost_unretx_bytes_ -= rec.end - rec.start;
    // RTT and rate samples only from records acknowledged directly by this
    // cumulative ACK; SACKed records were sampled when the SACK arrived,
    // and sampling them here (after they waited behind a hole) would
    // grossly inflate the estimates. During recovery even an unSACKed pop
    // may have waited behind holes (the receiver reports at most 3 blocks
    // per ACK), so sample only outside recovery.
    if (!rec.retransmitted && !rec.sacked && !in_recovery_ && dupacks_ == 0) {
      rtt_sample = now - rec.sent_at;
    }
    // Delivery-rate samples only from records that carried payload: a SYN
    // or FIN record would yield a bytes-per-RTT sample near zero and poison
    // a bandwidth filter (BBR).
    const std::uint64_t data_lo = std::max<std::uint64_t>(rec.start, 1);
    const std::uint64_t data_hi =
        fin_offset_valid_ ? std::min(rec.end, fin_offset_) : rec.end;
    const sim_time interval = now - rec.delivered_time_at_send;
    if (!rec.sacked && data_hi > data_lo && interval > sim_time::zero()) {
      rate_sample = static_cast<double>(delivered_ - rec.delivered_at_send) /
                    to_seconds(interval);
      rate_app_limited = rec.app_limited;
    }
    if (rec.delivered_at_send >= next_round_delivered_) {
      ++round_count_;
      next_round_delivered_ = delivered_;
    }
    inflight_.pop_front();
  }
  // Acked bytes with no surviving record (e.g. originals delivered after an
  // RTO rewind cleared the scoreboard) still count as delivered.
  if (newly_acked > popped_span) delivered_ += newly_acked - popped_span;

  if (rtt_sample > sim_time::zero()) {
    rtt_.add_sample(rtt_sample);
    min_rtt_.add(rtt_sample, now);
  }

  // Release acked bytes from the send queue.
  const std::uint64_t new_base = std::max<std::uint64_t>(snd_una_, 1);
  if (fin_offset_valid_ && new_base > fin_offset_) {
    // FIN acked; queue must already be empty.
    sendq_.clear();
    sendq_base_ = fin_offset_;
  } else if (new_base > sendq_base_) {
    sendq_.consume(new_base - sendq_base_);
    sendq_base_ = new_base;
  }
  stats_.bytes_acked += newly_acked;

  // Recovery bookkeeping. Partial ACK: retransmit the next hole unless the
  // SACK scoreboard already drove its retransmission.
  if (in_recovery_) {
    if (snd_una_ >= recovery_point_) {
      in_recovery_ = false;
      cc_->on_recovery_exit(now);
    } else {
      for (const auto& rec : inflight_) {
        if (rec.end > snd_una_) {
          if (!rec.sacked && !rec.retransmitted) retransmit_first_unacked();
          break;
        }
      }
    }
  }

  ack_sample sample;
  sample.now = now;
  sample.acked_bytes = newly_acked;
  sample.rtt = rtt_sample;
  sample.min_rtt = min_rtt_.valid() ? min_rtt_.value() : sim_time::zero();
  sample.ece = h.flags.ece;
  sample.in_flight = bytes_in_flight();
  sample.delivered = delivered_;
  sample.delivery_rate = rate_sample;
  if (rate_sample > 0.0) last_delivery_rate_bps_ = rate_sample * 8.0;
  sample.rate_app_limited = rate_app_limited;
  sample.in_recovery = in_recovery_;
  sample.round_trips = round_count_;
  cc_->on_ack(sample);

  // FIN-acked transitions.
  if (fin_offset_valid_ && snd_una_ >= fin_offset_ + 1) {
    if (state_ == tcp_state::fin_wait_1) state_ = tcp_state::fin_wait_2;
    else if (state_ == tcp_state::closing) enter_time_wait();
    else if (state_ == tcp_state::last_ack) become_closed(errc::ok);
  }

  // The timer guards sequence-space holes too: SACKed data above a lost
  // hole makes bytes_in_flight() zero while the hole is still outstanding.
  if (snd_una_ == snd_nxt_) {
    cancel_rto();
  } else {
    arm_rto();
  }
}

void tcb::process_sacks(const net::tcp_header& h) {
  if (h.sack_count == 0) return;
  stats_.sack_blocks_received += h.sack_count;

  for (std::uint8_t i = 0; i < h.sack_count; ++i) {
    const std::uint64_t s = unwrap_seq(h.sacks[i].start, iss_, snd_una_);
    const std::uint64_t e = unwrap_seq(h.sacks[i].end, iss_, snd_una_);
    if (e <= s || e > snd_nxt_ + (std::uint64_t{1} << 31)) continue;
    for (auto& rec : inflight_) {
      if (rec.sacked || rec.start < s || rec.end > e) continue;
      rec.sacked = true;
      sacked_bytes_ += rec.end - rec.start;
      if (rec.lost) {
        rec.lost = false;
        lost_unretx_bytes_ -= rec.end - rec.start;
      }
      highest_sacked_ = std::max(highest_sacked_, rec.end);
      // Delivery accounting at SACK time (RFC delivery-rate estimation):
      // without this, recovery makes `delivered_` advance in bursts and
      // rate samples overestimate the bottleneck badly.
      delivered_ += rec.end - rec.start;
      delivered_time_ = env_.sim->now();
      // RTT is measured when the receiver reports the bytes (now), not when
      // the cumulative ACK later catches up past earlier holes.
      if (!rec.retransmitted) {
        const sim_time sample = env_.sim->now() - rec.sent_at;
        rtt_.add_sample(sample);
        min_rtt_.add(sample, env_.sim->now());
      }
    }
  }

  // RACK-style loss inference: anything more than a reordering window below
  // the highest SACKed sequence and still unacknowledged is lost. A record
  // already retransmitted gets a round trip of grace before being marked
  // again — the SACK for its retransmission needs an RTT to come back.
  const std::uint64_t reorder_window = 3ull * cfg_.mss;
  const sim_time now = env_.sim->now();
  const sim_time grace = rtt_.has_sample() ? rtt_.srtt() : rtt_.rto();
  bool newly_lost = false;
  for (auto& rec : inflight_) {
    if (rec.sacked || rec.lost || rec.end <= snd_una_) continue;
    if (rec.end + reorder_window > highest_sacked_) continue;
    if (rec.retransmitted && now - rec.sent_at < grace) continue;
    rec.lost = true;
    lost_unretx_bytes_ += rec.end - rec.start;
    ++stats_.sack_loss_markings;
    newly_lost = true;
  }
  if (!newly_lost) return;

  if (!in_recovery_) {
    in_recovery_ = true;
    recovery_point_ = snd_nxt_;
    ++stats_.fast_retransmits;
    cc_->on_fast_retransmit({env_.sim->now(), bytes_in_flight()});
  }
  retransmit_lost();
}

void tcb::retransmit_lost() { try_send(); }

void tcb::handle_ack(const net::packet& p) {
  const auto& h = p.tcp();
  if (!h.flags.ack) return;

  const std::uint64_t ack_abs = unwrap_seq(h.ack, iss_, snd_una_);
  // Original copies sent before an RTO rewind may still be delivered, so
  // valid ACKs can exceed the rewound snd_nxt.
  if (ack_abs > std::max(snd_nxt_, rto_rewind_high_water_)) {
    return;  // acks data we never sent
  }

  const std::uint64_t old_wnd = snd_wnd_;
  snd_wnd_ = h.wnd;
  const std::uint64_t una_before = snd_una_;
  const std::uint64_t sent_before = sent_bytes();

  process_sacks(h);

  if (ack_abs > snd_una_) {
    const std::uint64_t newly = ack_abs - snd_una_;
    snd_una_ = ack_abs;
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    dupacks_ = 0;
    if (persist_timer_.pending()) persist_timer_.cancel();
    ack_advanced(newly, p);
    try_send();
    report_send_progress(una_before, sent_before);
    return;
  }

  // Duplicate ACK detection (RFC 5681): no data, no SYN/FIN, same ack, and
  // outstanding data.
  if (ack_abs == snd_una_ && snd_nxt_ > snd_una_ && p.payload.empty() &&
      !h.flags.syn && !h.flags.fin && h.wnd == old_wnd) {
    ++dupacks_;
    ++stats_.dup_acks_received;
    if (dupacks_ == 3 && !in_recovery_) {
      in_recovery_ = true;
      recovery_point_ = snd_nxt_;
      ++stats_.fast_retransmits;
      cc_->on_fast_retransmit({env_.sim->now(), bytes_in_flight()});
      retransmit_first_unacked();
    }
  }

  if (persist_timer_.pending() && snd_wnd_ > 0) persist_timer_.cancel();
  // SACK processing above may have freed window space (or marked losses
  // whose retransmission was window-blocked at the time) — always give the
  // output path a chance.
  try_send();
  report_send_progress(una_before, sent_before);
}

void tcb::report_send_progress(std::uint64_t una_before,
                               std::uint64_t sent_before) {
  const bool freed = snd_una_ > una_before && send_space() > 0;
  if ((freed || sent_bytes() > sent_before) && env_.on_writable) {
    env_.on_writable();
  }
}

void tcb::segment_arrived(const net::packet& p) {
  NK_PROF("tcp", "input");
  if (state_ == tcp_state::closed) return;
  ++stats_.segments_received;
  const auto& h = p.tcp();

  if (h.flags.rst) {
    // An RST answering our SYN means no listener at the destination.
    become_closed(state_ == tcp_state::syn_sent ? errc::connection_refused
                                                : errc::connection_reset);
    return;
  }

  last_ts_val_ = h.ts_val;

  if (p.ip.ecn == net::ecn_codepoint::ce) {
    ++stats_.ecn_ce_received;
    if (ecn_enabled_ || state_ == tcp_state::syn_sent ||
        state_ == tcp_state::syn_received) {
      ece_pending_ = true;
    }
  }

  if (state_ == tcp_state::syn_sent) {
    if (!h.flags.syn || !h.flags.ack) return;  // simultaneous open unsupported
    irs_ = h.seq;
    rcv_nxt_ = 1;
    ecn_enabled_ = ecn_requested_ && h.flags.ece && !h.flags.cwr;
    handle_ack(p);
    if (snd_una_ < 1) return;  // our SYN was not acknowledged
    state_ = tcp_state::established;
    cc_->on_established(env_.sim->now());
    send_ack_now();
    if (env_.on_connected) env_.on_connected();
    try_send();
    return;
  }

  const std::uint64_t seg_abs = unwrap_seq(h.seq, irs_, rcv_nxt_);

  if (state_ == tcp_state::syn_received) {
    handle_ack(p);
    if (snd_una_ >= 1) {
      state_ = tcp_state::established;
      cc_->on_established(env_.sim->now());
      if (env_.on_accept_ready) env_.on_accept_ready();
      handle_payload(p, seg_abs);
      try_send();
    }
    return;
  }

  if (h.flags.syn) {
    // Retransmitted SYN/SYN-ACK of an established connection: re-ack.
    send_ack_now();
    return;
  }

  handle_ack(p);
  if (state_ == tcp_state::closed) return;  // ack processing closed us
  handle_payload(p, seg_abs);
}

// --- timers -----------------------------------------------------------------------

void tcb::arm_rto() {
  rto_timer_.cancel();
  rto_timer_ = env_.sim->schedule(rtt_.rto(), [this] { on_rto_fired(); });
}

void tcb::cancel_rto() { rto_timer_.cancel(); }

void tcb::on_rto_fired() {
  if (bytes_in_flight() == 0 && !(fin_offset_valid_ && snd_una_ <= fin_offset_)) {
    return;
  }
  ++stats_.rtos;

  // Give up on a connection whose SYN goes unanswered.
  if (state_ == tcp_state::syn_sent || state_ == tcp_state::syn_received) {
    if (++syn_retries_ > max_syn_retries) {
      become_closed(errc::timed_out);
      return;
    }
  }

  rtt_.backoff();
  dupacks_ = 0;
  in_recovery_ = false;
  cc_->on_rto({env_.sim->now(), bytes_in_flight()});

  if (state_ == tcp_state::syn_sent || state_ == tcp_state::syn_received) {
    // Handshake: just resend the SYN / SYN-ACK.
    retransmit_first_unacked();
    arm_rto();
    return;
  }

  // Go-back-N: rewind the send cursor to the cumulative-ACK point and let
  // slow start re-drive transmission. Without this, holes behind snd_nxt
  // would each cost a further (backed-off) RTO, collapsing throughput after
  // any multi-segment loss burst.
  const std::uint64_t sent_before = sent_bytes();
  rto_rewind_high_water_ = std::max(rto_rewind_high_water_, snd_nxt_);
  inflight_.clear();
  sacked_bytes_ = 0;
  lost_unretx_bytes_ = 0;
  highest_sacked_ = 0;
  snd_nxt_ = snd_una_;
  next_release_ = sim_time::zero();
  try_send();
  arm_rto();
  report_send_progress(snd_una_, sent_before);
}

void tcb::arm_persist() {
  if (persist_timer_.pending()) return;
  persist_timer_ = env_.sim->schedule(rtt_.rto(), [this] { on_persist_fired(); });
}

void tcb::on_persist_fired() {
  if (snd_wnd_ > 0 || state_ == tcp_state::closed) return;
  // Zero-window probe carrying one byte of data (RFC 9293 §3.8.6.1): a bare
  // ACK would not be ack-eliciting, so it could deadlock. If unacked data
  // exists, re-probe with its first byte (it may be the receiver's missing
  // hole, whose arrival releases buffered out-of-order data); otherwise
  // probe with the next unsent byte.
  const std::uint64_t data_end =
      fin_offset_valid_ ? fin_offset_ : sendq_base_ + sendq_.size();
  if (bytes_in_flight() > 0 || snd_una_ < data_end) {
    const std::uint64_t at = std::max<std::uint64_t>(snd_una_, 1);
    if (at < data_end) {
      const std::uint64_t sent_before = sent_bytes();
      transmit_range(at, at + 1, /*rtx=*/at < snd_nxt_);
      snd_nxt_ = std::max(snd_nxt_, at + 1);
      report_send_progress(snd_una_, sent_before);
    } else {
      net::tcp_flags flags;
      flags.ack = true;
      send_control(flags);
    }
  }
  arm_persist();
}

void tcb::enter_time_wait() {
  state_ = tcp_state::time_wait;
  cancel_rto();
  time_wait_timer_ = env_.sim->schedule(time_wait_duration,
                                        [this] { become_closed(errc::ok); });
}

void tcb::become_closed(errc reason) {
  if (state_ == tcp_state::closed) return;
  state_ = tcp_state::closed;
  rto_timer_.cancel();
  delack_timer_.cancel();
  persist_timer_.cancel();
  time_wait_timer_.cancel();
  pacing_timer_.cancel();
  tsq_timer_.cancel();
  if (env_.on_closed) env_.on_closed(reason);
}

obs::nk_flow_info tcb::flow_info() const {
  obs::nk_flow_info fi;
  obs::set_stat_string(fi.state, sizeof fi.state, to_string(state_));
  obs::set_stat_string(fi.cc, sizeof fi.cc, cc_->name());
  fi.srtt_ns = static_cast<std::uint64_t>(
      rtt_.srtt().count() < 0 ? 0 : rtt_.srtt().count());
  fi.rttvar_ns = static_cast<std::uint64_t>(
      rtt_.rttvar().count() < 0 ? 0 : rtt_.rttvar().count());
  fi.min_rtt_ns = min_rtt_.valid()
                      ? static_cast<std::uint64_t>(min_rtt_.value().count())
                      : 0;
  fi.cwnd_bytes = cc_->cwnd_bytes();
  fi.ssthresh_bytes = cc_->ssthresh_bytes();
  fi.bytes_in_flight = bytes_in_flight();
  fi.retransmits = stats_.fast_retransmits + stats_.rtos;
  fi.bytes_retransmitted = stats_.bytes_retransmitted;
  fi.delivery_rate_bps = last_delivery_rate_bps_;
  fi.bytes_in = stats_.bytes_received;
  fi.bytes_out = stats_.bytes_sent;
  fi.segments_in = stats_.segments_received;
  fi.segments_out = stats_.segments_sent;
  fi.sndbuf_bytes = sendq_.size();
  fi.sndbuf_capacity = cfg_.send_buffer;
  fi.rcvbuf_bytes = recvq_.size();
  fi.rcvbuf_capacity = cfg_.recv_buffer;
  return fi;
}

}  // namespace nk::tcp
