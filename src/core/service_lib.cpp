#include "core/service_lib.hpp"

#include <algorithm>
#include <cstring>

#include "common/log.hpp"
#include "obs/profiler.hpp"
#include "shm/steering.hpp"

namespace nk::core {

namespace {
// The most bytes a guest may have written that the stack has not yet
// transmitted (Linux TCP_NOTSENT_LOWAT). A chunk's credit goes back when
// the stack transmits its last byte, so a large send buffer holds data in
// flight, not a queue in front of it.
constexpr std::uint64_t notsent_lowat = 128 * 1024;

// The guest's send credit for a socket with this send buffer.
std::uint64_t send_credit(const tcp::tcp_config& cfg) {
  return std::min<std::uint64_t>(cfg.send_buffer, notsent_lowat);
}
}  // namespace

service_lib::service_lib(nsm& owner, sim::simulator& s,
                         const netkernel_costs& costs,
                         const notify_config& ncfg, obs::nqe_tracer& tracer,
                         std::size_t overflow_limit, sla_manager& sla,
                         std::function<void(std::size_t)> notify_engine)
    : nsm_{owner},
      sim_{s},
      costs_{costs},
      overflow_limit_{overflow_limit},
      sla_{sla},
      tracer_{tracer},
      notify_engine_{std::move(notify_engine)} {
  pump_ = std::make_unique<queue_pump>(s, ncfg, [this] { drain_jobs(); });
}

service_lib::~service_lib() {
  for (auto& [cid, ps] : sockets_) ps.sla_retry.cancel();
}

void service_lib::attach_channel(channel& ch, std::uint8_t epoch) {
  served_vm svm;
  svm.ch = &ch;
  svm.epoch = epoch;
  svm.tenant = &sla_.tenant_of(ch.vm_id);
  svm.lanes.reserve(ch.shards());
  for (std::size_t s = 0; s < ch.shards(); ++s) svm.lanes.emplace_back(ch, s);
  vms_[ch.vm_id] = std::move(svm);
}

void service_lib::discard_staged(served_vm& svm) {
  auto discard = [&](const shm::nqe& e) {
    ++stats_.nqes_dropped;
    tracer_.drop(e.reserved);
    if (!e.desc.empty()) (void)svm.ch->pool.free(e.desc.chunk);
  };
  for (auto& lane : svm.lanes) {
    lane.completion.scrub(discard);
    lane.receive.scrub(discard);
  }
}

void service_lib::detach_channel(virt::vm_id vm) {
  auto it = vms_.find(vm);
  if (it == vms_.end()) return;
  served_vm& svm = it->second;
  // Staged out-nqes will never reach the departing VM; recycle their chunks.
  discard_staged(svm);
  // Close this VM's sockets on the stack and forget them. A socket still
  // holding pinned chunks is aborted, as in fail(): its unacknowledged
  // bytes live in the departing VM's pool, which no stack may read after
  // the chunks go home.
  std::vector<std::uint32_t> cids;
  cids.reserve(sockets_.size());
  for (const auto& [cid, ps] : sockets_) {
    if (ps.vm == vm) cids.push_back(cid);
  }
  for (const std::uint32_t cid : cids) {
    auto* ps = socket_by_cid(cid);
    if (ps == nullptr) continue;
    if (ps->ssock != 0 && !ps->tx.empty()) {
      (void)nsm_.transport().abort(ps->ssock);
    } else if (ps->ssock != 0 && !ps->stack_closed) {
      (void)nsm_.transport().close(ps->ssock);
    }
    drop_socket(cid);  // pinned chunks go back to the departing VM's pool
  }
  vms_.erase(vm);
}

void service_lib::fail() {
  if (failed_) return;
  failed_ = true;
  log_warn("service_lib: nsm ", nsm_.id(), " (", nsm_.name(),
           ") crashed; tenant sockets die with the module");
  tracer_.note(nsm_.id(), 0,
               "crash: serving stopped, " + std::to_string(sockets_.size()) +
                   " sockets died");
  pump_->stop();
  // Every stack-side socket dies with the module. No ev_error goes out from
  // here — a crashed stack cannot report its own death; the provider-side
  // watchdog and CoreEngine's failover abort path notify the tenants.
  for (auto& [cid, ps] : sockets_) {
    if (ps.ssock != 0) (void)nsm_.transport().abort(ps.ssock);
    ps.sla_retry.cancel();
    release_slot(ps);
    release_pins(ps);
  }
  sockets_.clear();
  by_ssock_.clear();
  // Staged completions/events reference huge-page chunks that will now
  // never be delivered; recycle them or the pool leaks across a failover.
  for (auto& [vm, svm] : vms_) {
    discard_staged(svm);
    svm.stalled_reads.clear();
  }
}

std::vector<service_lib::flow_record> service_lib::flow_table() {
  std::vector<flow_record> out;
  out.reserve(sockets_.size());
  for (const auto& [cid, ps] : sockets_) {
    if (ps.listener || ps.udp || ps.ssock == 0) continue;
    auto fi = nsm_.transport().flow_info(ps.ssock);
    if (!fi.has_value()) continue;
    const auto remote = nsm_.transport().remote_of(ps.ssock);
    out.push_back(flow_record{cid, ps.vm, remote.value_or(net::socket_addr{}),
                              std::move(*fi)});
  }
  std::sort(out.begin(), out.end(),
            [](const flow_record& a, const flow_record& b) {
              return a.cid < b.cid;
            });
  return out;
}

void service_lib::start() {
  nsm_.transport().set_event_handler(
      [this](const stack::socket_event& ev) { handle_stack_event(ev); });
  pump_->start();
}

// --- tenant quotas -------------------------------------------------------------

void service_lib::bill(served_vm& svm, sim_time cost,
                       std::function<void()> done) {
  if (sla_.charge_cycles(*svm.tenant, cost, sim_.now(), nsm_.id())) {
    // Rising edge: this period's budget is spent. Jobs stay in the rings
    // and reads stall; a period-end drain resumes them.
    pump_->wake_at(sla_.period_end(*svm.tenant));
  }
  if (done) {
    nsm_.core().execute(cost, std::move(done));
  } else {
    nsm_.core().charge(cost);
  }
}

bool service_lib::chunk_quota_hit(served_vm& svm) {
  return sla_.chunk_quota_hit(*svm.tenant, svm.ch->pool.chunks_held(),
                              sim_.now(), nsm_.id());
}

sim_time service_lib::op_cost() const {
  return costs_.servicelib_per_op + nsm_.profile().per_op_overhead;
}

bool service_lib::push_completion(served_vm& svm, std::size_t shard,
                                  shm::nqe e) {
  return push_out(svm, shard, e, /*receive=*/false);
}

bool service_lib::push_receive(served_vm& svm, std::size_t shard, shm::nqe e) {
  return push_out(svm, shard, e, /*receive=*/true);
}

bool service_lib::push_out(served_vm& svm, std::size_t shard, shm::nqe e,
                           bool receive) {
  // A dead module emits nothing: late pushes from already-committed core
  // work are discarded with their chunks recycled and the drop counted.
  // The trace still begins so the loss is visible to the tracer — the
  // accounting invariant (losses == traced drops) must survive a crash.
  if (failed_) {
    ++stats_.nqes_dropped;
    tracer_.maybe_begin(e, /*reverse=*/true, svm.ch->vm_id, nsm_.id());
    tracer_.drop(e.reserved);
    if (!e.desc.empty()) (void)svm.ch->pool.free(e.desc.chunk);
    return false;
  }
  // Pool-key isolation (DESIGN.md §14): an output descriptor must name the
  // destination channel's own pool. A foreign key is never dereferenced or
  // freed here — the chunk belongs to whatever pool minted it.
  if (!e.desc.empty() && e.desc.chunk.pool_key != svm.ch->pool.key()) {
    ++stats_.chunk_key_mismatch;
    ++stats_.nqes_dropped;
    tracer_.maybe_begin(e, /*reverse=*/true, svm.ch->vm_id, nsm_.id());
    tracer_.drop(e.reserved);
    return false;
  }
  e.owner = nsm_.id();
  e.epoch = svm.epoch;
  // A reverse-path trace begins here: the nqe enters the NSM-side out-queue
  // bound for CoreEngine and the tenant VM.
  tracer_.maybe_begin(e, /*reverse=*/true, svm.ch->vm_id, nsm_.id());
  out_stages& lane = svm.lanes[shard];
  const shm::push_result r =
      (receive ? lane.receive : lane.completion).push(e, overflow_limit_);
  if (r == shm::push_result::ring) {
    svm.ch->count_nsm_to_vm(shard);
    notify_engine_(shard);
    return true;
  }
  if (r == shm::push_result::staged) {
    ++stats_.nqes_deferred;
    return true;
  }
  // Hard cap: discard pure data with full accounting. The read paths stall
  // before this point, so reaching it means a pathological burst.
  ++stats_.nqes_dropped;
  tracer_.drop(e.reserved);
  if (!e.desc.empty()) (void)svm.ch->pool.free(e.desc.chunk);
  return false;
}

void service_lib::flush_staged(served_vm& svm) {
  for (std::size_t s = 0; s < svm.lanes.size(); ++s) {
    std::size_t lane_n = svm.lanes[s].completion.flush();
    lane_n += svm.lanes[s].receive.flush();
    if (lane_n > 0) {
      svm.ch->count_nsm_to_vm(s, lane_n);
      notify_engine_(s);
    }
  }
}

void service_lib::maybe_resume_stalled(served_vm& svm) {
  if (svm.stalled_reads.empty()) return;
  // A read stalls on chunk exhaustion, quota exhaustion or out-queue
  // pressure; resume once all have cleared on the socket's own lane.
  // GuestLib frees consumed chunks in place without a doorbell, so a
  // chunk-starved VM keeps asking for a re-drain until chunks come back.
  if (svm.ch->pool.chunks_free() == 0) {
    pump_->wake_when_idle(nsm_.core());
    return;
  }
  if (cycle_budget_exhausted(svm)) return;
  if (chunk_quota_hit(svm)) {
    pump_->wake_when_idle(nsm_.core());
    return;
  }
  auto stalled = std::move(svm.stalled_reads);
  svm.stalled_reads.clear();
  for (const std::uint32_t cid : stalled) {
    if (auto* ps = socket_by_cid(cid)) {
      if (receive_pressured(svm, ps->shard)) {
        // This socket's lane is still backed up; keep it stalled.
        svm.stalled_reads.insert(cid);
        continue;
      }
      pump_reads(*ps);
    }
  }
}

std::size_t service_lib::staged_depth(virt::vm_id vm) const {
  auto it = vms_.find(vm);
  if (it == vms_.end()) return 0;
  std::size_t n = 0;
  for (const auto& lane : it->second.lanes) n += lane.size();
  return n;
}

service_lib::proto_socket* service_lib::socket_by_cid(std::uint32_t cid) {
  auto it = sockets_.find(cid);
  return it == sockets_.end() ? nullptr : &it->second;
}

service_lib::proto_socket* service_lib::socket_by_ssock(stack::socket_id s) {
  auto it = by_ssock_.find(s);
  return it == by_ssock_.end() ? nullptr : socket_by_cid(it->second);
}

void service_lib::drop_socket(std::uint32_t cid) {
  auto it = sockets_.find(cid);
  if (it == sockets_.end()) return;
  if (it->second.ssock != 0) by_ssock_.erase(it->second.ssock);
  if (auto vit = vms_.find(it->second.vm); vit != vms_.end()) {
    vit->second.stalled_reads.erase(cid);
  }
  it->second.sla_retry.cancel();
  release_slot(it->second);
  release_pins(it->second);
  sockets_.erase(it);
}

void service_lib::release_pins(proto_socket& ps) {
  auto vit = vms_.find(ps.vm);
  for (std::size_t i = 0; i < ps.tx.size(); ++i) {
    if (i >= ps.tx.size() - ps.unsent) tracer_.finish(ps.tx[i].trace);
    if (vit != vms_.end()) (void)vit->second.ch->pool.free(ps.tx[i].chunk);
  }
  ps.tx.clear();
  ps.credited = 0;
  ps.credited_bytes = 0;
  ps.unsent = 0;
  ps.owed = 0;
}

void service_lib::release_slot(proto_socket& ps) {
  if (!ps.holds_slot) return;
  ps.holds_slot = false;
  sla_.on_connection_closed(sla_.tenant_of(ps.vm));
}

// --- job chain -----------------------------------------------------------------

void service_lib::drain_jobs() {
  if (failed_) return;
  {
    NK_PROF("servicelib", "pump");
    for (auto& [vm, svm] : vms_) {
      // Re-drain overflowed out-nqes before taking on new work, and resume
      // reads the cleared pressure had stalled.
      flush_staged(svm);
      maybe_resume_stalled(svm);
      if (cycle_budget_exhausted(svm)) {
        // Budget spent: jobs wait in the rings (pure backpressure, no
        // drop) until the period-end drain resumes them.
        pump_->wake_at(sla_.period_end(*svm.tenant));
      }
    }
  }
  // Outside the scope above: a step opens its own, so its charges land
  // under one profile path however the chain was started.
  if (!chain_running_) run_next_job();
}

void service_lib::run_next_job() {
  NK_PROF("servicelib", "pump");
  // A polling loop pops one operation, runs it to completion, then pops the
  // next: every job after this one waits in its *ring*, whose occupancy is
  // the backpressure the engine and the guest see.
  chain_running_ = false;
  if (failed_ || !pump_->running()) return;  // a dead or frozen module
  std::size_t lanes = 0;
  for (const auto& [vm, svm] : vms_) lanes += svm.lanes.size();
  auto it = vms_.find(next_vm_);
  std::size_t s = next_lane_;
  if (it == vms_.end()) {
    it = vms_.begin();
    s = 0;
  }
  bool left_behind = false;
  shm::nqe e;
  // Round robin over every VM's shard lanes, from the one after the last
  // job's. ServiceLib is the sole consumer of each nsm_q(s).job ring; the
  // lane a job arrives on is the flow's home shard, and handle_nqe learns
  // steering from it.
  for (std::size_t visited = 0; visited < lanes; ++visited, ++s) {
    if (s == it->second.lanes.size()) {
      if (++it == vms_.end()) it = vms_.begin();
      s = 0;
    }
    served_vm& svm = it->second;
    auto& ring = svm.ch->nsm_q(s).job;
    if (ring.empty_approx()) continue;
    if (cycle_budget_exhausted(svm)) {
      pump_->wake_at(sla_.period_end(*svm.tenant));
      continue;
    }
    if (nsm_.core().backlog() > drain_backlog_bound || out_backlogged(svm, s)) {
      // The core is behind, or the VM is not consuming this lane's
      // completions/events: the job stays in the ring, so pressure reaches
      // the tenant instead of growing the stage. Other lanes keep going.
      left_behind = true;
      continue;
    }
    bool popped = false;
    while (!popped && ring.try_pop(e)) {
      popped = e.epoch == svm.epoch;
      // Left over from the dead incarnation this module replaced: the
      // handles inside it refer to connections that died with the old
      // stack. Discard with accounting instead of misrouting.
      if (!popped) discard_stale(svm, e);
    }
    if (!popped) continue;
    next_vm_ = it->first;
    next_lane_ = s + 1;
    tracer_.stamp(e.reserved, obs::nqe_stage::nsm_job_dwell);
    // Bill the dispatch to the NSM core (and the VM's cycle budget). Its
    // completion hands the job to the stack and then pops the next, so the
    // stack work this job queues lands on the core ahead of the next
    // dispatch. FIFO execution preserves per-socket operation order.
    chain_running_ = true;
    bill(svm, op_cost(), [this, vm = it->first, s, e] {
      if (auto vit = vms_.find(vm); vit != vms_.end()) {
        handle_nqe(vit->second, s, e);
      }
      run_next_job();
    });
    return;
  }
  // Under batched-interrupt notification there may be no further doorbell;
  // re-drain once the committed work clears.
  if (left_behind) pump_->wake_when_idle(nsm_.core());
}

void service_lib::discard_stale(served_vm& svm, const shm::nqe& e) {
  ++stats_.stale_nqes;
  tracer_.drop(e.reserved);
  // Only CoreEngine writes the NSM job rings, and only with requests that
  // passed its role gate, so the data-bearing ops here are req_*.
  if (shm::owns_chunk(e) && !e.desc.empty()) {
    (void)svm.ch->pool.free(e.desc.chunk);
  }
}

void service_lib::handle_nqe(served_vm& svm, std::size_t shard,
                             const shm::nqe& e) {
  NK_PROF("servicelib", "dispatch");
  ++stats_.ops_processed;
  auto& stack = nsm_.transport();

  // Forward traces end here, once the op has been dispatched into the
  // stack — except req_send, which finishes when the stack accepts the
  // bytes (see pump_sends).
  if (e.reserved != 0) {
    tracer_.stamp(e.reserved, obs::nqe_stage::servicelib_dispatch);
    if (e.op != shm::nqe_op::req_send) tracer_.finish(e.reserved);
  }

  switch (e.op) {
    case shm::nqe_op::req_socket: {
      const std::uint32_t cid = e.handle;  // minted by CoreEngine
      proto_socket ps;
      ps.cid = cid;
      ps.vm = svm.ch->vm_id;
      ps.cfg = nsm_.config().tcp;
      // The arrival lane is the flow's home shard (the guest steered the
      // request by hashing <VM, fd>); every output rides the same lane.
      ps.shard = shard;
      shm::nqe out;
      out.op = shm::nqe_op::cmp_socket;
      out.handle = cid;
      out.token = e.token;
      out.arg0 = send_credit(ps.cfg);
      sockets_[cid] = std::move(ps);
      push_completion(svm, shard, out);
      return;
    }
    case shm::nqe_op::req_setsockopt: {
      auto* ps = socket_by_cid(e.handle);
      shm::nqe out;
      out.op = shm::nqe_op::cmp_generic;
      out.handle = e.handle;
      out.token = e.token;
      out.arg_small = static_cast<std::uint32_t>(e.op);
      // Echo the option and value; for a new send buffer (option 3) the
      // value is the guest's new send credit.
      out.arg0 = e.arg0;
      out.arg1 = e.arg1;
      if (ps == nullptr) {
        out.status = -static_cast<std::int32_t>(errc::not_found);
      } else if (e.arg0 == 1) {  // option 1: congestion control
        ps->cfg.cc = static_cast<tcp::cc_algorithm>(e.arg1);
      } else if (e.arg0 == 2) {  // option 2: receive buffer
        ps->cfg.recv_buffer = e.arg1;
      } else if (e.arg0 == 3) {  // option 3: send buffer
        ps->cfg.send_buffer = e.arg1;
        out.arg1 = send_credit(ps->cfg);
        // A smaller credit lowers the batch: what is owed may be due now.
        send_credit_back(svm, *ps, 0);
      } else if (e.arg0 == 4) {  // option 4: nagle on/off
        ps->cfg.nagle = e.arg1 != 0;
      } else {
        out.status = -static_cast<std::int32_t>(errc::not_supported);
      }
      push_completion(svm, shard, out);
      return;
    }
    case shm::nqe_op::req_bind: {
      auto* ps = socket_by_cid(e.handle);
      shm::nqe out;
      out.op = shm::nqe_op::cmp_generic;
      out.handle = e.handle;
      out.token = e.token;
      out.arg_small = static_cast<std::uint32_t>(e.op);
      if (ps == nullptr) {
        out.status = -static_cast<std::int32_t>(errc::not_found);
      } else {
        ps->bound_port = static_cast<std::uint16_t>(e.arg0);
      }
      push_completion(svm, shard, out);
      return;
    }
    case shm::nqe_op::req_listen: {
      auto* ps = socket_by_cid(e.handle);
      shm::nqe out;
      out.op = shm::nqe_op::cmp_generic;
      out.handle = e.handle;
      out.token = e.token;
      out.arg_small = static_cast<std::uint32_t>(e.op);
      if (ps == nullptr || ps->bound_port == 0) {
        out.status = -static_cast<std::int32_t>(errc::invalid_argument);
      } else {
        auto r = stack.listen(ps->bound_port, ps->cfg);
        if (r) {
          ps->ssock = r.value();
          ps->listener = true;
          by_ssock_[ps->ssock] = ps->cid;
        } else {
          out.status = -static_cast<std::int32_t>(r.error());
        }
      }
      push_completion(svm, shard, out);
      return;
    }
    case shm::nqe_op::req_connect: {
      auto* ps = socket_by_cid(e.handle);
      shm::nqe out;
      out.op = shm::nqe_op::cmp_generic;
      out.handle = e.handle;
      out.token = e.token;
      out.arg_small = static_cast<std::uint32_t>(e.op);
      if (ps == nullptr) {
        out.status = -static_cast<std::int32_t>(errc::not_found);
      } else if (ps->ssock != 0) {
        // The socket already has a stack connection and the guest sent
        // another connect: a forged nqe (GuestLib refuses a second connect
        // on a socket whose connect is pending, up or failed).
        // Acknowledging without a second connect leaves the first
        // connection and the connection quota untouched.
      } else if (!sla_.allow_connection(*svm.tenant)) {
        out.status = -static_cast<std::int32_t>(errc::resource_exhausted);
      } else {
        ps->holds_slot = true;
        const net::socket_addr remote{
            net::ipv4_addr{static_cast<std::uint32_t>(e.arg0)},
            static_cast<std::uint16_t>(e.arg1)};
        auto r = stack.connect(remote, ps->cfg);
        if (r) {
          ps->ssock = r.value();
          by_ssock_[ps->ssock] = ps->cid;
        } else {
          out.status = -static_cast<std::int32_t>(r.error());
        }
      }
      push_completion(svm, shard, out);
      return;
    }
    case shm::nqe_op::req_send: {
      auto* ps = socket_by_cid(e.handle);
      if (ps == nullptr || ps->ssock == 0) {
        tracer_.finish(e.reserved);
        (void)svm.ch->pool.free(e.desc.chunk);
        shm::nqe out;
        out.op = shm::nqe_op::ev_error;
        out.handle = e.handle;
        out.status = -static_cast<std::int32_t>(errc::not_connected);
        push_receive(svm, shard, out);
        return;
      }
      auto span = svm.ch->pool.readable(e.desc);
      if (!span) {
        tracer_.finish(e.reserved);
        shm::nqe out;
        out.op = shm::nqe_op::ev_error;
        out.handle = e.handle;
        out.status = -static_cast<std::int32_t>(span.error());
        push_receive(svm, shard, out);
        return;
      }
      // Zero-copy transmit: the stack sends straight from the tenant's
      // chunk, as the NIC would DMA it, so nothing is billed here. The
      // simulator's copy_of stands in for that DMA read: packets outlive
      // the ACK at the receiver, so they cannot alias the pool.
      ps->queued += e.desc.length;
      ps->tx.push_back(tx_pin{e.desc.chunk, ps->queued, e.desc.length,
                              e.reserved, buffer::copy_of(span.value())});
      ++ps->unsent;
      pump_sends(*ps);
      return;
    }
    case shm::nqe_op::req_udp_open: {
      const std::uint32_t cid = e.handle;  // minted by CoreEngine
      proto_socket ps;
      ps.cid = cid;
      ps.vm = svm.ch->vm_id;
      ps.udp = true;
      ps.cfg = nsm_.config().tcp;
      ps.shard = shard;  // home lane: where the creating request arrived
      shm::nqe out;
      out.op = shm::nqe_op::cmp_socket;
      out.handle = cid;
      out.token = e.token;
      out.arg0 = send_credit(ps.cfg);
      auto r = stack.udp_open(static_cast<std::uint16_t>(e.arg0));
      if (r) {
        ps.ssock = r.value();
        by_ssock_[ps.ssock] = cid;
      } else {
        out.status = -static_cast<std::int32_t>(r.error());
      }
      sockets_[cid] = std::move(ps);
      push_completion(svm, shard, out);
      return;
    }
    case shm::nqe_op::req_udp_send: {
      auto* ps = socket_by_cid(e.handle);
      auto span = svm.ch->pool.readable(e.desc);
      if (ps == nullptr || ps->ssock == 0 || !ps->udp || !span) {
        if (span) (void)svm.ch->pool.free(e.desc.chunk);
        shm::nqe out;
        out.op = shm::nqe_op::ev_error;
        out.handle = e.handle;
        out.status = -static_cast<std::int32_t>(errc::not_found);
        push_receive(svm, shard, out);
        return;
      }
      // Zero-copy like req_send (copy_of is the DMA read); the datagram
      // leaves at once, so its chunk goes home right after the hand-off.
      buffer data = buffer::copy_of(span.value());
      const net::socket_addr dest{
          net::ipv4_addr{static_cast<std::uint32_t>(e.arg0)},
          static_cast<std::uint16_t>(e.arg1)};
      const std::uint64_t len = data.size();
      // Datagrams over the rate cap are dropped.
      if (sla_.allow_send(*svm.tenant, len, sim_.now()) &&
          stack.udp_send_to(ps->ssock, dest, std::move(data)).ok()) {
        stats_.bytes_to_stack += len;
        sla_.record_send(*svm.tenant, len);
      }
      (void)svm.ch->pool.free(e.desc.chunk);
      // Credit back to GuestLib regardless (datagram semantics).
      send_credit_back(svm, *ps, len);
      return;
    }
    case shm::nqe_op::req_shutdown_wr: {
      auto* ps = socket_by_cid(e.handle);
      if (ps != nullptr && ps->ssock != 0) {
        ps->shutdown_pending = true;
        pump_sends(*ps);  // issues it once the parked sends are taken
      }
      return;
    }
    case shm::nqe_op::req_close: {
      auto* ps = socket_by_cid(e.handle);
      if (ps == nullptr) return;
      if (ps->ssock == 0) {
        drop_socket(e.handle);
        return;
      }
      // The guest is done with the connection: its quota slot frees now,
      // even if the socket lingers for its pinned chunks.
      release_slot(*ps);
      ps->guest_closed = true;
      pump_sends(*ps);  // closes once the parked sends are taken
      return;
    }
    default:
      return;  // unknown/unsupported op: ignore
  }
}

// --- stack events -----------------------------------------------------------------

void service_lib::handle_stack_event(const stack::socket_event& ev) {
  NK_PROF("servicelib", "stack_event");
  if (failed_) return;
  auto* ps = socket_by_ssock(ev.sock);
  if (ps == nullptr) return;
  // find, not operator[]: a stack event racing a detach must not implant a
  // served_vm with a null channel.
  auto vit = vms_.find(ps->vm);
  if (vit == vms_.end()) return;
  served_vm& svm = vit->second;
  if (ps->guest_closed) {
    // Closed by the guest, still holding pinned chunks: only the ack
    // progress and the end of the connection matter now.
    if (ev.type == stack::socket_event_type::writable) {
      pump_sends(*ps);
    } else if (ev.type == stack::socket_event_type::closed ||
               ev.type == stack::socket_event_type::error) {
      drop_socket(ps->cid);
    }
    return;
  }

  switch (ev.type) {
    case stack::socket_event_type::connected: {
      shm::nqe out;
      out.op = shm::nqe_op::cmp_connected;
      out.handle = ps->cid;
      push_completion(svm, ps->shard, out);
      return;
    }
    case stack::socket_event_type::accept_ready: {
      auto& stack = nsm_.transport();
      // Inserting children below may rehash sockets_, invalidating ps; keep
      // the listener's fields by value.
      const std::uint32_t listener_cid = ps->cid;
      const virt::vm_id vm = ps->vm;
      const tcp::tcp_config cfg = ps->cfg;
      while (true) {
        auto r = stack.accept(ev.sock);
        if (!r) break;
        const std::uint32_t cid = next_cid_++ | child_cid_base;
        proto_socket child;
        child.cid = cid;
        child.vm = vm;
        child.cfg = cfg;
        child.ssock = r.value();
        // Accepted children are steered by <NSM, cID> — the guest has no fd
        // yet, so this is the only key both sides can compute. The engine
        // learns the shard from the arrival lane of the ev_accept.
        child.shard = shm::nsm_shard(nsm_.id(), cid, svm.lanes.size());
        // The quota never refuses an accept; the child takes a slot only
        // while one is free.
        child.holds_slot = sla_.allow_connection(*svm.tenant);
        const std::size_t child_shard = child.shard;
        sockets_[cid] = std::move(child);
        by_ssock_[r.value()] = cid;

        shm::nqe out;
        out.op = shm::nqe_op::ev_accept;
        out.handle = listener_cid;  // listener
        out.arg0 = cid;             // the new connection
        out.arg_small = static_cast<std::uint32_t>(send_credit(cfg));
        if (auto remote = stack.remote_of(r.value())) {
          out.arg1 =
              (std::uint64_t{remote->ip.value} << 16) | remote->port;
        }
        ++stats_.accept_events;
        // The event rides the child's home lane, not the listener's: its
        // arrival ring is how the engine and the guest learn the steering.
        push_receive(svm, child_shard, out);
      }
      return;
    }
    case stack::socket_event_type::readable:
      pump_reads(*ps);
      return;
    case stack::socket_event_type::writable:
      pump_sends(*ps);
      return;
    case stack::socket_event_type::closed:
    case stack::socket_event_type::error: {
      shm::nqe out;
      out.op = ev.type == stack::socket_event_type::closed
                   ? shm::nqe_op::ev_closed
                   : shm::nqe_op::ev_error;
      out.handle = ps->cid;
      out.status = -static_cast<std::int32_t>(ev.error);
      push_receive(svm, ps->shard, out);
      drop_socket(ps->cid);
      return;
    }
  }
}

bool service_lib::read_stalled(served_vm& svm, const proto_socket& ps) {
  bool redrain = false;
  if (svm.ch->pool.chunks_free() == 0) {
    // Backpressure: the VM has not consumed earlier data. Leave the rest in
    // the stack's receive buffer (its rwnd will close) and resume on a
    // re-drain once the VM has freed a chunk.
    ++stats_.chunk_stalls;
    redrain = true;
  } else if (cycle_budget_exhausted(svm)) {
    // Cycle quota: data stays in the transport's receive buffer (its
    // flow-control window closes toward the peer) — backpressure, not loss.
    // The period-end wakeup resumes the read.
    ++stats_.quota_stalls;
  } else if (chunk_quota_hit(svm)) {
    ++stats_.chunk_quota_stalls;
    redrain = true;
  } else if (receive_pressured(svm, ps.shard)) {
    // Out-queue pressure: this lane's receive ring (or its overflow stage)
    // is backed up. Leave data in the stack and resume once it drains.
    ++stats_.queue_stalls;
  } else {
    return false;
  }
  svm.stalled_reads.insert(ps.cid);
  if (redrain) pump_->wake_when_idle(nsm_.core());
  return true;
}

void service_lib::pump_reads(proto_socket& ps) {
  NK_PROF("servicelib", ps.udp ? "pump_udp_reads" : "pump_reads");
  if (ps.ssock == 0) return;
  // find, not operator[]: never implant a null-channel served_vm.
  auto vit = vms_.find(ps.vm);
  if (vit == vms_.end()) return;
  served_vm& svm = vit->second;
  auto& stack = nsm_.transport();
  const std::size_t chunk_size = svm.ch->pool.chunk_size();
  const std::size_t shard = ps.shard;

  while (true) {
    if (read_stalled(svm, ps)) return;
    shm::nqe out;
    out.handle = ps.cid;
    buffer data;
    if (ps.udp) {
      auto r = stack.udp_recv_from(ps.ssock);
      if (!r) return;
      auto [from, datagram] = std::move(r).value();
      // A datagram larger than a chunk cannot be represented; drop it (the
      // region broker sizes chunks >= the expected datagram MTU, but a
      // sender outside NetKernel is not bound by it).
      if (datagram.size() > chunk_size) {
        ++stats_.oversize_datagrams;
        continue;
      }
      data = std::move(datagram);
      out.op = shm::nqe_op::ev_udp_data;
      out.arg0 = from.ip.value;
      out.arg1 = from.port;
    } else {
      auto r = stack.recv(ps.ssock, chunk_size);
      if (!r) {
        if (r.error() == errc::closed) {
          // EOF: the peer half-closed; tell the VM. Route through the core
          // so the EOF cannot overtake data events still queued there.
          out.op = shm::nqe_op::ev_closed;
          nsm_.core().execute(sim_time::zero(),
                              [this, vm = ps.vm, shard, out] {
                                if (auto it = vms_.find(vm); it != vms_.end()) {
                                  push_receive(it->second, shard, out);
                                }
                              });
        }
        return;
      }
      data = std::move(r).value();
      out.op = shm::nqe_op::ev_data;
    }
    auto chunk = svm.ch->pool.alloc();
    if (!chunk) return;  // raced to exhaustion; the stall path will resume

    auto span = svm.ch->pool.writable(chunk.value());
    std::memcpy(span.value().data(), data.bytes().data(), data.size());
    stats_.bytes_from_stack += data.size();
    ++stats_.data_events;
    sla_.record_receive(*svm.tenant, data.size());

    out.desc = shm::data_descriptor{chunk.value(), 0,
                                    static_cast<std::uint32_t>(data.size())};
    bill(svm, costs_.memcpy_cost(data.size()), [this, vm = ps.vm, shard, out] {
      if (auto it = vms_.find(vm); it != vms_.end()) {
        push_receive(it->second, shard, out);
      }
    });
  }
}

void service_lib::send_credit_back(served_vm& svm, proto_socket& ps,
                                   std::uint64_t bytes) {
  // The engine forgets a flow at the guest's close: what is owed then is
  // nobody's.
  if (ps.guest_closed) return;
  ps.owed += bytes;
  // A stream's credit goes up in batches: one cmp_send per chunk's worth,
  // so a sub-chunk writer (an RPC) no longer costs a completion per write.
  // The batch is at most half the credit, so a guest blocked on credit
  // always gets it back: GuestLib blocks a stream only once its
  // outstanding bytes reach the credit, and less than half of them are
  // owed here, so more than half are still in the rings, unsent, or
  // waiting for their ACK. Each of those bytes is credited in time, and
  // together they lift `owed` past the batch. A cmp_send never returns
  // more than the guest has outstanding: every owed byte is one it wrote
  // and has not been credited for.
  //
  // A datagram socket owes nothing. Its binding outlives an NSM failover
  // (CoreEngine replays it), so credit owed by the dead module would be
  // lost for good and shrink the guest's credit with every failover until
  // the socket stalls. A TCP connection dies with its module, owed credit
  // and all.
  const std::uint64_t batch =
      ps.udp ? 0
             : std::min<std::uint64_t>(svm.ch->pool.chunk_size(),
                                       send_credit(ps.cfg) / 2);
  if (ps.owed == 0 || ps.owed < batch) return;
  shm::nqe out;
  out.op = shm::nqe_op::cmp_send;
  out.handle = ps.cid;
  out.arg0 = ps.owed;
  ps.owed = 0;
  push_completion(svm, ps.shard, out);
}

void service_lib::pump_sends(proto_socket& ps) {
  NK_PROF("servicelib", "pump_sends");
  if (ps.ssock == 0) return;
  // find, not operator[]: never implant a null-channel served_vm.
  auto vit = vms_.find(ps.vm);
  if (vit == vms_.end()) return;
  served_vm& svm = vit->second;
  auto& stack = nsm_.transport();

  // Chunks whose last byte the peer acknowledged go home; one not credited
  // at transmit time is credited now.
  if (const auto acked = stack.acked_bytes(ps.ssock)) {
    while (!ps.tx.empty() && ps.tx.front().end <= *acked) {
      const tx_pin& pin = ps.tx.front();
      (void)svm.ch->pool.free(pin.chunk);
      if (ps.credited > 0) {
        --ps.credited;
        ps.credited_bytes -= pin.len;
      } else {
        send_credit_back(svm, ps, pin.len);
      }
      ps.tx.pop_front();
    }
  }

  const bool all_taken = push_unsent(svm, ps);

  // Transmitted chunks return their credit while they stay pinned, as long
  // as the pinned bytes stay within the send buffer: credited-but-unacked
  // bytes plus the guest's credit never exceed it. With a send buffer at
  // or below the low-water mark there is no room, and every credit waits
  // for the ACK.
  const std::uint64_t room = ps.cfg.send_buffer - send_credit(ps.cfg);
  if (const auto sent = stack.sent_bytes(ps.ssock)) {
    while (ps.credited < ps.tx.size()) {
      const tx_pin& pin = ps.tx[ps.credited];
      if (pin.end > *sent || ps.credited_bytes + pin.len > room) break;
      send_credit_back(svm, ps, pin.len);
      ps.credited_bytes += pin.len;
      ++ps.credited;
    }
  }
  if (!all_taken) return;

  // Every byte queued ahead of a shutdown or close is in the stack now.
  if (ps.shutdown_pending) {
    ps.shutdown_pending = false;
    (void)stack.shutdown_write(ps.ssock);
  }
  if (ps.guest_closed && !ps.stack_closed) {
    ps.stack_closed = true;
    (void)stack.close(ps.ssock);
  }
  // A closed socket lingers only while the stack still holds its bytes.
  if (ps.stack_closed &&
      (ps.tx.empty() || !stack.acked_bytes(ps.ssock).has_value())) {
    drop_socket(ps.cid);  // invalidates ps
  }
}

bool service_lib::push_unsent(served_vm& svm, proto_socket& ps) {
  auto& stack = nsm_.transport();
  while (ps.unsent > 0) {
    tx_pin& pin = ps.tx[ps.tx.size() - ps.unsent];
    if (!sla_.allow_send(*svm.tenant, pin.unsent.size(), sim_.now())) {
      if (!ps.sla_retry.pending()) {
        const sim_time at =
            sla_.retry_at(*svm.tenant, pin.unsent.size(), sim_.now());
        const std::uint32_t cid = ps.cid;
        ps.sla_retry = sim_.schedule_at(
            std::max(at, sim_.now() + microseconds(1)), [this, cid] {
              if (auto* p = socket_by_cid(cid)) pump_sends(*p);
            });
      }
      return false;
    }

    auto r = stack.send(ps.ssock, pin.unsent);
    if (!r) {
      if (r.error() == errc::would_block) return false;  // wait for writable
      // Connection went away: report, and return every chunk uncredited.
      if (!ps.guest_closed) {
        shm::nqe out;
        out.op = shm::nqe_op::ev_error;
        out.handle = ps.cid;
        out.status = -static_cast<std::int32_t>(r.error());
        push_receive(svm, ps.shard, out);
      }
      release_pins(ps);
      return true;
    }
    const std::size_t accepted = r.value();
    stats_.bytes_to_stack += accepted;
    sla_.record_send(*svm.tenant, accepted);
    if (accepted < pin.unsent.size()) {
      pin.unsent = pin.unsent.suffix_from(accepted);
      return false;  // stack buffer full; resume on writable
    }
    if (pin.trace != 0) {
      tracer_.stamp(pin.trace, obs::nqe_stage::stack_accept);
      tracer_.finish(pin.trace);
    }
    pin.unsent = buffer{};
    --ps.unsent;
  }
  return true;
}

}  // namespace nk::core
