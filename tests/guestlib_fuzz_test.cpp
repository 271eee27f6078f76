// GuestLib robustness fuzz: random sequences of socket-API calls against a
// live NetKernel channel must never crash, corrupt chunk accounting, or
// wedge the channel. The adversary mixes valid and invalid fds, premature
// operations, and interleaved closes while the simulation runs.
//
// The raw-ring fuzzers below go a layer deeper: they bypass GuestLib
// entirely and write forged/garbage nqes straight into the guest-writable
// job rings — the hostile-tenant threat model of DESIGN.md §14. The
// admission firewall must reject every one with exact per-reason
// accounting, leak nothing, and keep serving well-behaved tenants.
#include <gtest/gtest.h>

#include <vector>

#include "apps/scenario.hpp"
#include "common/rng.hpp"
#include "core/hostile.hpp"
#include "shm/steering.hpp"

namespace nk::core {
namespace {

using apps::side;
using apps::testbed;

class guestlib_fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(guestlib_fuzz, random_op_sequences_hold_invariants) {
  testbed bed{apps::datacenter_params(GetParam())};
  nsm_config nsm_cfg;
  nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
  virt::vm_config vm_cfg;
  vm_cfg.name = "fuzz-vm";
  auto tenant = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
  vm_cfg.name = "peer-vm";
  nsm_cfg.name = "nsm-peer";
  auto peer = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);

  // A live echo service so some connects succeed.
  auto& gp = *peer.glib;
  const auto lfd = gp.nk_socket().value();
  ASSERT_TRUE(gp.nk_bind(lfd, 7000).ok());
  ASSERT_TRUE(gp.nk_listen(lfd).ok());
  gp.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                           errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      while (gp.nk_accept(lfd).ok()) {
      }
    }
  });

  auto& glib = *tenant.glib;
  rng random{GetParam() * 7919 + 13};
  std::vector<std::uint32_t> fds;
  const net::socket_addr good{peer.module->config().address, 7000};
  const net::socket_addr bad{peer.module->config().address, 9};

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = random.next_below(12);
    const std::uint32_t fd =
        fds.empty() || random.chance(0.1)
            ? static_cast<std::uint32_t>(random.next_below(1 << 20))
            : fds[random.next_below(fds.size())];
    switch (op) {
      case 0:
        if (auto r = glib.nk_socket()) fds.push_back(r.value());
        break;
      case 1:
        if (auto r = glib.nk_udp_open(
                static_cast<std::uint16_t>(random.next_below(65536)))) {
          fds.push_back(r.value());
        }
        break;
      case 2:
        (void)glib.nk_bind(fd, static_cast<std::uint16_t>(
                                   random.next_below(65536)));
        break;
      case 3:
        (void)glib.nk_listen(fd);
        break;
      case 4:
        (void)glib.nk_connect(fd, random.chance(0.8) ? good : bad);
        break;
      case 5:
        (void)glib.nk_send(fd, buffer::pattern(random.next_below(32768), 0));
        break;
      case 6:
        (void)glib.nk_recv(fd, 1 + random.next_below(65536));
        break;
      case 7:
        (void)glib.nk_udp_send_to(fd, good,
                                  buffer::pattern(random.next_below(4096), 0));
        break;
      case 8:
        (void)glib.nk_udp_recv_from(fd);
        break;
      case 9:
        (void)glib.nk_shutdown(fd);
        break;
      case 10:
        (void)glib.nk_close(fd);
        std::erase(fds, fd);
        break;
      case 11:
        (void)glib.nk_accept(fd);
        break;
      default:
        break;
    }
    if (random.chance(0.3)) {
      bed.run_for(microseconds(1 + random.next_below(2000)));
    }
  }
  // Quiesce, close everything, and let completions settle.
  for (const auto fd : fds) (void)glib.nk_close(fd);
  bed.run_for(seconds(3));

  // Invariant: every huge-page chunk came home.
  auto* ch = bed.netkernel(side::a).channel_of(tenant.vm->id());
  ASSERT_NE(ch, nullptr);
  EXPECT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count());
  // Invariant: the channel queues drained (nothing wedged).
  EXPECT_EQ(ch->vm_job_depth(), 0u);
  EXPECT_EQ(ch->nsm_job_depth(), 0u);
  // Invariant: no cmp_send returned more credit than was outstanding.
  EXPECT_EQ(glib.stats().over_credits, 0u);
}

INSTANTIATE_TEST_SUITE_P(seeds, guestlib_fuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

// --- raw-ring hostile fuzz (admission firewall) ----------------------------

// Rig for the raw-ring tests: one target VM whose rings we abuse directly,
// one well-behaved peer VM on the other host proving the engine keeps
// serving clean tenants. The firewall's escalation is disabled (an
// effectively infinite violation budget) so every forgery is individually
// rejected and the counters can be checked for exact equality.
struct raw_ring_rig {
  explicit raw_ring_rig(std::uint64_t seed)
      : params{[&] {
          auto p = apps::datacenter_params(seed);
          p.netkernel.shards = 2;
          p.netkernel.firewall.violation_burst = 1ull << 30;
          return p;
        }()},
        bed{params} {
    nsm_config nsm_cfg;
    nsm_cfg.tcp = apps::datacenter_tcp(tcp::cc_algorithm::cubic);
    virt::vm_config vm_cfg;
    vm_cfg.name = "target-vm";
    target = bed.add_netkernel_vm(side::a, vm_cfg, nsm_cfg);
    vm_cfg.name = "peer-vm";
    nsm_cfg.name = "nsm-peer";
    peer = bed.add_netkernel_vm(side::b, vm_cfg, nsm_cfg);
  }

  [[nodiscard]] core_engine& engine() { return bed.netkernel(side::a); }

  [[nodiscard]] std::uint64_t rejected_total() {
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < engine().shards(); ++s) {
      n += engine().shard_stats(s).rejected_nqes;
    }
    return n;
  }

  [[nodiscard]] std::uint64_t rejected_by_reason_sum() {
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < engine().shards(); ++s) {
      for (const auto c : engine().shard_rejected_reasons(s)) n += c;
    }
    return n;
  }

  void expect_invariants() {
    // Nothing leaked from the abused pool...
    auto* ch = engine().channel_of(target.vm->id());
    ASSERT_NE(ch, nullptr);
    EXPECT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count());
    // ...and every shard's books balance, forgeries included.
    for (std::size_t s = 0; s < engine().shards(); ++s) {
      const auto& st = engine().shard_stats(s);
      EXPECT_EQ(st.unroutable_nqes + st.nqes_dropped + st.stale_nqes +
                    st.rejected_nqes,
                engine().shard_traces_dropped(s) +
                    engine().shard_discards_untraced(s))
          << "shard " << s;
    }
  }

  apps::testbed_params params;
  testbed bed;
  apps::nk_tenant target;
  apps::nk_tenant peer;
};

class raw_ring_fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(raw_ring_fuzz, forged_nqes_rejected_exactly_no_leak) {
  raw_ring_rig rig{GetParam()};
  hostile_guest attacker{rig.engine(), rig.target.vm->id(),
                         GetParam() * 6364136223846793005ull + 1};

  // Directed forgeries across every attack category, interleaved with sim
  // progress so rings drain and refill.
  rng random{GetParam() ^ 0xabcdefull};
  for (int round = 0; round < 20; ++round) {
    attacker.storm(15);
    rig.bed.run_for(microseconds(200 + random.next_below(500)));
  }
  rig.bed.run_for(milliseconds(50));

  const auto& st = attacker.stats();
  EXPECT_GT(st.injected, 0u);
  EXPECT_EQ(st.no_channel, 0u);  // no escalation: the VM stays attached
  // With escalation off, every landed forgery is individually rejected.
  EXPECT_EQ(rig.rejected_total(), st.injected);
  EXPECT_EQ(rig.rejected_by_reason_sum(), rig.rejected_total());
  EXPECT_EQ(rig.engine()
                .metrics()
                .value_of("engine_nqes_rejected")
                .value_or(0.0),
            static_cast<double>(st.injected));
  rig.expect_invariants();
  EXPECT_FALSE(rig.engine().quarantined(rig.target.vm->id()));
}

TEST_P(raw_ring_fuzz, random_garbage_nqes_never_crash_or_leak) {
  raw_ring_rig rig{GetParam()};
  auto* ch = rig.engine().channel_of(rig.target.vm->id());
  ASSERT_NE(ch, nullptr);

  // Fully random nqe fields. Every one is force-invalidated (bad epoch at
  // minimum, often also a garbage opcode / foreign desc / forged owner), so
  // rejections must equal landed pushes exactly.
  rng random{GetParam() * 2862933555777941757ull + 3};
  std::uint64_t landed = 0;
  for (int i = 0; i < 400; ++i) {
    shm::nqe e;
    e.op = static_cast<shm::nqe_op>(random.next_below(256));
    e.epoch = static_cast<std::uint8_t>(1 + random.next_below(255));
    e.owner = static_cast<std::uint16_t>(random.next_below(1 << 16));
    e.handle = static_cast<std::uint32_t>(random.next_u64());
    e.token = random.next_u64();
    e.status = static_cast<std::int32_t>(random.next_u64());
    e.arg0 = random.next_u64();
    e.arg1 = random.next_u64();
    if (random.chance(0.5)) {
      e.desc.chunk.pool_key = static_cast<std::uint32_t>(random.next_u64());
      e.desc.chunk.index = static_cast<std::uint32_t>(random.next_below(1 << 20));
      e.desc.offset = static_cast<std::uint32_t>(random.next_below(1 << 16));
      e.desc.length = static_cast<std::uint32_t>(random.next_below(1 << 16));
    }
    const auto s = static_cast<std::size_t>(random.next_below(ch->shards()));
    if (ch->vm_q(s).job.push(e)) {
      ++landed;
      rig.engine().notify(s);
    }
    if (random.chance(0.2)) {
      rig.bed.run_for(microseconds(1 + random.next_below(300)));
    }
  }
  rig.bed.run_for(milliseconds(50));

  EXPECT_GT(landed, 0u);
  EXPECT_EQ(rig.rejected_total(), landed);
  EXPECT_EQ(rig.rejected_by_reason_sum(), rig.rejected_total());
  rig.expect_invariants();

  // The engine still serves clean tenants: a fresh legit connect from the
  // abused VM's own GuestLib completes against the peer's listener.
  auto& gp = *rig.peer.glib;
  const auto lfd = gp.nk_socket().value();
  ASSERT_TRUE(gp.nk_bind(lfd, 7100).ok());
  ASSERT_TRUE(gp.nk_listen(lfd).ok());
  gp.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                           errc) {
    if (fd == lfd && t == stack::socket_event_type::accept_ready) {
      while (gp.nk_accept(lfd).ok()) {
      }
    }
  });
  auto& glib = *rig.target.glib;
  const auto cfd = glib.nk_socket().value();
  bool connected = false;
  glib.set_event_handler([&](std::uint32_t fd, stack::socket_event_type t,
                             errc) {
    if (fd == cfd && t == stack::socket_event_type::connected) {
      connected = true;
    }
  });
  ASSERT_TRUE(
      glib.nk_connect(cfd, {rig.peer.module->config().address, 7100}).ok());
  rig.bed.run_for(milliseconds(100));
  EXPECT_TRUE(connected);
}

INSTANTIATE_TEST_SUITE_P(seeds, raw_ring_fuzz,
                         ::testing::Range<std::uint64_t>(1, 6));

// --- raw_ring: req_stat_refresh forgeries (DESIGN.md §16) -------------------

// Forged stat-refresh nqes (foreign owner, stamped epoch, smuggled
// descriptor) must all die at the admission firewall: exact rejection
// accounting, the stat page never republished by a forgery, nothing leaked,
// and the escalation ladder no further than warn with the budget disabled.
TEST(raw_ring_stat_refresh, forged_refreshes_rejected_page_untouched) {
  raw_ring_rig rig{11};
  auto* ch = rig.engine().channel_of(rig.target.vm->id());
  ASSERT_NE(ch, nullptr);
  // attach_vm seeded the page exactly once.
  const std::uint64_t version_before = ch->stats.version();
  EXPECT_GT(version_before, 0u);

  hostile_guest attacker{rig.engine(), rig.target.vm->id(), 2024};
  std::uint64_t landed = 0;
  for (int i = 0; i < 60; ++i) {
    if (attacker.inject(hostile_guest::attack::stat_forge)) ++landed;
    if (i % 8 == 7) rig.bed.run_for(microseconds(500));
  }
  rig.bed.run_for(milliseconds(20));

  EXPECT_GT(landed, 0u);
  EXPECT_EQ(rig.rejected_total(), landed);
  EXPECT_EQ(rig.rejected_by_reason_sum(), rig.rejected_total());
  // No forgery reached the publisher: the page still holds the attach-time
  // snapshot.
  EXPECT_EQ(ch->stats.version(), version_before);
  rig.expect_invariants();
  // Escalation unchanged: violations were recorded but the (effectively
  // infinite) budget keeps the VM at warn, attached and serviceable.
  EXPECT_FALSE(rig.engine().quarantined(rig.target.vm->id()));
  EXPECT_LE(static_cast<int>(rig.engine().abuse_level_of(rig.target.vm->id())),
            static_cast<int>(abuse_level::warn));
}

// A refresh flood past the per-VM budget: the budgeted prefix is served
// (page republished), the excess is rejected and counted as badop, and a
// well-formed refresh after the budget refills is served again.
TEST(raw_ring_stat_refresh, refresh_flood_beyond_budget_rejected) {
  raw_ring_rig rig{12};
  auto* ch = rig.engine().channel_of(rig.target.vm->id());
  ASSERT_NE(ch, nullptr);
  auto& glib = *rig.target.glib;

  const std::uint64_t burst = core_engine::stat_refresh_burst;
  const std::uint64_t extra = 8;
  const std::uint64_t version_before = ch->stats.version();
  for (std::uint64_t i = 0; i < burst + extra; ++i) {
    ASSERT_TRUE(glib.nk_stat_refresh().ok());
  }
  rig.bed.run_for(milliseconds(20));

  // The budgeted prefix republished the page; the flood was refused.
  EXPECT_EQ(ch->stats.version(), version_before + 2 * burst);
  EXPECT_EQ(rig.rejected_total(), extra);
  std::uint64_t badop = 0;
  for (std::size_t s = 0; s < rig.engine().shards(); ++s) {
    badop += rig.engine().shard_rejected_reasons(
        s)[static_cast<std::size_t>(reject_reason::badop)];
  }
  EXPECT_EQ(badop, extra);
  rig.expect_invariants();
  EXPECT_FALSE(rig.engine().quarantined(rig.target.vm->id()));

  // Budget refills with time; a polite refresh is served again.
  rig.bed.run_for(milliseconds(100));
  ASSERT_TRUE(glib.nk_stat_refresh().ok());
  rig.bed.run_for(milliseconds(20));
  EXPECT_EQ(ch->stats.version(), version_before + 2 * (burst + 1));
  EXPECT_EQ(rig.rejected_total(), extra);  // no new rejections
}

// --- raw_ring: wrapping descriptor bounds (DESIGN.md §14) -------------------

// A req_send naming the guest's own live chunk and a real fd, whose
// offset + length wraps 32 bits back under the chunk size. Summed in 32 bits
// the firewall would pass it and ServiceLib would copy 4352 B from 4 GiB past
// the chunk. It must die as badchunk, and the firewall must not free the
// chunk: the guest still holds it.
TEST(raw_ring_desc_wrap, wrapped_offset_rejected_as_badchunk) {
  raw_ring_rig rig{13};
  const auto vm = rig.target.vm->id();
  auto* ch = rig.engine().channel_of(vm);
  ASSERT_NE(ch, nullptr);
  const auto fd = rig.target.glib->nk_socket().value();
  rig.bed.run_for(milliseconds(5));

  const auto chunk = ch->pool.alloc().value();
  shm::nqe e;
  e.op = shm::nqe_op::req_send;
  e.owner = static_cast<std::uint16_t>(vm);
  e.handle = fd;
  e.desc = shm::data_descriptor{chunk, 0xFFFFF000u, 0x1100u};
  const auto s = shm::flow_shard(vm, fd, ch->shards());
  ASSERT_TRUE(ch->vm_q(s).job.push(e));
  rig.engine().notify(s);
  rig.bed.run_for(milliseconds(5));

  EXPECT_EQ(rig.rejected_total(), 1u);
  std::uint64_t badchunk = 0;
  for (std::size_t sh = 0; sh < rig.engine().shards(); ++sh) {
    badchunk += rig.engine().shard_rejected_reasons(
        sh)[static_cast<std::size_t>(reject_reason::badchunk)];
  }
  EXPECT_EQ(badchunk, 1u);
  // The chunk is still the guest's: not recycled, no refused free counted.
  EXPECT_EQ(ch->pool.chunks_free(), ch->pool.chunk_count() - 1);
  EXPECT_EQ(ch->pool.bad_frees(), 0u);
  ASSERT_TRUE(ch->pool.free(chunk).ok());
  rig.expect_invariants();
}

}  // namespace
}  // namespace nk::core
