#include "core/hostile.hpp"

#include "core/core_engine.hpp"

namespace nk::core {

namespace {

// Opcodes a guest may never emit (completions, events, invalid).
constexpr shm::nqe_op forged_ops[] = {
    shm::nqe_op::invalid,       shm::nqe_op::cmp_generic,
    shm::nqe_op::cmp_socket,    shm::nqe_op::cmp_connected,
    shm::nqe_op::cmp_send,      shm::nqe_op::ev_accept,
    shm::nqe_op::ev_data,       shm::nqe_op::ev_udp_data,
    shm::nqe_op::ev_closed,     shm::nqe_op::ev_error,
};

// fd-addressed requests with no benign unknown-fd exception (req_close keeps
// the legacy unroutable path) and no descriptor, so the only thing wrong
// with the forgery is the fd itself.
constexpr shm::nqe_op fd_ops[] = {
    shm::nqe_op::req_bind,       shm::nqe_op::req_listen,
    shm::nqe_op::req_connect,    shm::nqe_op::req_setsockopt,
    shm::nqe_op::req_shutdown_wr,
};

constexpr shm::nqe_op data_ops[] = {
    shm::nqe_op::req_send,
    shm::nqe_op::req_udp_send,
};

}  // namespace

hostile_guest::hostile_guest(core_engine& engine, virt::vm_id vm,
                             std::uint64_t seed)
    : engine_{engine}, vm_{vm}, rng_{seed} {}

bool hostile_guest::inject() {
  return inject(static_cast<attack>(rng_.next_below(5)));
}

bool hostile_guest::inject(attack kind) {
  channel* ch = engine_.channel_of(vm_);
  if (ch == nullptr) {
    // Already detached (quarantine worked, or the VM never attached).
    ++stats_.no_channel;
    return false;
  }

  // Every forgery carries reserved = 0 (a raw-ring attacker holds no trace
  // id) and is invalid by construction, so rejection accounting can be
  // checked exactly against `injected`.
  shm::nqe e;
  e.owner = static_cast<std::uint16_t>(vm_);
  switch (kind) {
    case attack::bad_op:
      e.op = forged_ops[rng_.next_below(std::size(forged_ops))];
      e.handle = static_cast<std::uint32_t>(rng_.next_below(1 << 16));
      break;
    case attack::bad_fd:
      // [0x40000000, 0x50000000): far above any GuestLib-minted fd, below
      // the engine-owned accept range — never a flow this VM owns.
      e.op = fd_ops[rng_.next_below(std::size(fd_ops))];
      e.handle = 0x40000000u |
                 static_cast<std::uint32_t>(rng_.next_below(0x10000000));
      break;
    case attack::bad_chunk: {
      // A descriptor no pool vouches for: foreign key (never this
      // channel's, so the engine must not free through it) and a random —
      // possibly out-of-range — index. Half the time it rides a data op,
      // half the time it is smuggled onto a control op.
      shm::data_descriptor desc;
      desc.chunk.pool_key =
          ch->pool.key() + 1 + static_cast<std::uint32_t>(rng_.next_below(1000));
      desc.chunk.index =
          static_cast<std::uint32_t>(rng_.next_below(2 * ch->pool.chunk_count()));
      desc.length = 1 + static_cast<std::uint32_t>(
                            rng_.next_below(ch->pool.chunk_size()));
      e.op = rng_.chance(0.5) ? data_ops[rng_.next_below(std::size(data_ops))]
                              : shm::nqe_op::req_bind;
      e.handle = static_cast<std::uint32_t>(rng_.next_below(1 << 16));
      e.desc = desc;
      break;
    }
    case attack::bad_epoch:
      e.op = shm::nqe_op::req_bind;
      e.handle = static_cast<std::uint32_t>(rng_.next_below(1 << 16));
      if (rng_.chance(0.5)) {
        e.epoch = static_cast<std::uint8_t>(1 + rng_.next_below(255));
      } else {
        e.owner = static_cast<std::uint16_t>(vm_ + 1 + rng_.next_below(100));
      }
      break;
    case attack::bad_token:
      // Creating op whose correlation token does not match the fd it mints.
      e.op = rng_.chance(0.5) ? shm::nqe_op::req_socket
                              : shm::nqe_op::req_udp_open;
      e.handle = static_cast<std::uint32_t>(rng_.next_below(1 << 16));
      e.token = e.handle | ((1 + rng_.next_below(0xffff)) << 32);
      break;
    case attack::stat_forge: {
      // req_stat_refresh forgeries: the op itself is guest-emittable, so
      // each variant corrupts exactly one field the firewall must catch —
      // a foreign owner, a stamped epoch, or a smuggled descriptor (a
      // refresh never carries data; a valid-looking desc on it is how an
      // attacker would aim a downstream free at someone else's credit).
      e.op = shm::nqe_op::req_stat_refresh;
      const auto variant = rng_.next_below(3);
      if (variant == 0) {
        e.owner = static_cast<std::uint16_t>(vm_ + 1 + rng_.next_below(100));
      } else if (variant == 1) {
        e.epoch = static_cast<std::uint8_t>(1 + rng_.next_below(255));
      } else {
        shm::data_descriptor desc;
        desc.chunk.pool_key = ch->pool.key() + 1 +
                              static_cast<std::uint32_t>(rng_.next_below(1000));
        desc.chunk.index = static_cast<std::uint32_t>(
            rng_.next_below(2 * ch->pool.chunk_count()));
        desc.length = 1 + static_cast<std::uint32_t>(
                              rng_.next_below(ch->pool.chunk_size()));
        e.desc = desc;
      }
      break;
    }
  }

  const auto s = static_cast<std::size_t>(rng_.next_below(ch->shards()));
  if (!ch->vm_q(s).job.push(e)) {
    ++stats_.ring_full;
    return false;
  }
  ++stats_.injected;
  engine_.notify_from_vm(vm_, s);
  return true;
}

std::size_t hostile_guest::storm(std::size_t count) {
  std::size_t landed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (inject()) ++landed;
  }
  return landed;
}

}  // namespace nk::core
