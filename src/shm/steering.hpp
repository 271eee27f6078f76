// RSS-style flow steering for the sharded CoreEngine.
//
// A multi-queue CoreEngine partitions the connection-mapping table across N
// independent shards, each pumping its own per-shard ring set of every
// channel (the software analogue of NIC receive-side scaling). The steering
// function maps a flow identity to its owning shard; every party that
// produces nqes for a flow — GuestLib (by <VM, fd>), ServiceLib (by cID for
// stack-initiated flows) — uses it so a flow's entire nqe stream stays on
// one shard and no shard ever touches another's mutable state on the data
// path.
//
// The mixer matters: <VM, fd> and cID keys are tiny sequential integers,
// and libstdc++'s std::hash<uint64_t> is the identity function, which would
// collapse low-entropy keys onto a handful of shards (and a handful of
// hash-table buckets). nk::mix64, splitmix64's finalizer, is a
// full-avalanche mixer, so sequential keys spread uniformly across any
// shard count.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/hash.hpp"

namespace nk::shm {

// Owning shard of a tenant-side flow identity <VM, fd>.
[[nodiscard]] constexpr std::size_t flow_shard(std::uint32_t vm,
                                               std::uint32_t fd,
                                               std::size_t shards) {
  if (shards <= 1) return 0;
  return static_cast<std::size_t>(mix64((std::uint64_t{vm} << 32) | fd) %
                                  shards);
}

// Owning shard of a service-side flow identity <NSM, cID>. Used for flows
// the stack originates (accepted connections): ServiceLib knows the cID
// before CoreEngine has minted the tenant fd, so the cID hash picks the
// child's home shard and every party derives the same answer.
[[nodiscard]] constexpr std::size_t nsm_shard(std::uint16_t nsm,
                                              std::uint32_t cid,
                                              std::size_t shards) {
  if (shards <= 1) return 0;
  return static_cast<std::size_t>(mix64((std::uint64_t{nsm} << 32) | cid) %
                                  shards);
}

}  // namespace nk::shm
