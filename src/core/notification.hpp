// Queue notification models (paper §3.2 / §5).
//
// The prototype polls "for simplicity"; the paper calls out batched soft
// interrupts as the efficient alternative. A queue_pump drives a drain
// callback either way:
//
//   * polling — the consumer wakes every poll_interval regardless of work
//     (lowest latency floor at small intervals, burns a core);
//   * batched_interrupt — the producer rings a doorbell; the drain runs
//     once, interrupt_delay later, covering everything queued since
//     (coalesced: one outstanding wakeup at a time).
//
// The pump alone decides when its consumer runs. Besides the poll ticks it
// keeps one pending wakeup — a doorbell's, or a timed one a drain asked for
// with wake_at — and the earliest request wins. It counts the drains it
// runs (pump_mix), so a run can tell its busy ticks from its idle ones.
//
// Ablation A1 (bench/ablate_notification) sweeps both.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "sim/cpu_core.hpp"
#include "sim/simulator.hpp"

namespace nk::core {

struct notify_config {
  enum class mode { polling, batched_interrupt };
  mode kind = mode::polling;
  sim_time poll_interval = microseconds(1);
  sim_time interrupt_delay = microseconds(2);
};

// Limits of the provider-side drains. One CoreEngine shard drain pops at
// most `drain_batch` nqes from a ring. Both it and ServiceLib's job chain
// stop popping while their core has more than `drain_backlog_bound` of
// committed work: nqes then wait in the *ring* — the backpressure the
// producer sees — instead of in the core's unbounded execute FIFO.
inline constexpr std::size_t drain_batch = 64;
inline constexpr sim_time drain_backlog_bound = microseconds(3);

// The drains a pump has run: its poll ticks, the idle ones among them
// (ticks whose drain scheduled no event), and the drains a wakeup ran.
struct pump_mix {
  std::uint64_t ticks = 0;
  std::uint64_t idle_ticks = 0;
  std::uint64_t wakeups = 0;

  pump_mix& operator+=(const pump_mix& o) {
    ticks += o.ticks;
    idle_ticks += o.idle_ticks;
    wakeups += o.wakeups;
    return *this;
  }
};

class queue_pump {
 public:
  // `drain` empties the watched queue(s), as far as it can.
  queue_pump(sim::simulator& s, const notify_config& cfg,
             std::function<void()> drain)
      : sim_{s}, cfg_{cfg}, drain_{std::move(drain)} {}

  queue_pump(const queue_pump&) = delete;
  queue_pump& operator=(const queue_pump&) = delete;
  ~queue_pump() { stop(); }

  void start() {
    running_ = true;
    if (polling()) schedule_poll();
  }

  // Cancels the pending tick and wakeup; requests are ignored until
  // start(), which resumes from now.
  void stop() {
    running_ = false;
    tick_.cancel();
    wakeup_.cancel();
  }

  // Producer-side doorbell; no-op under polling.
  void notify() {
    if (!polling()) wake_at(sim_.now() + cfg_.interrupt_delay);
  }

  // Runs the drain at `at`, under either mode. A request no earlier than
  // the pending wakeup is dropped: a drain that still needs a later wakeup
  // asks again.
  void wake_at(sim_time at) {
    if (!running_ || (wakeup_.pending() && wakeup_at_ <= at)) return;
    wakeup_.cancel();
    wakeup_at_ = at;
    wakeup_ = sim_.schedule_at(at, [this] {
      ++mix_.wakeups;
      run_drain();
    });
  }

  // Drain again once `core`'s committed work clears, at least 1 us from
  // now: the wakeup for work a drain left behind on purpose.
  void wake_when_idle(const sim::cpu_core& core) {
    wake_at(sim_.now() + std::max(core.backlog(), microseconds(1)));
  }

  // When the drain last ran: a live consumer's heartbeat.
  [[nodiscard]] sim_time last_drain() const { return last_drain_; }
  // False before start() and after stop().
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] const pump_mix& mix() const { return mix_; }
  [[nodiscard]] const notify_config& config() const { return cfg_; }

 private:
  [[nodiscard]] bool polling() const {
    return cfg_.kind == notify_config::mode::polling;
  }

  void schedule_poll() {
    if (!running_) return;
    tick_ = sim_.schedule(cfg_.poll_interval, [this] {
      ++mix_.ticks;
      const std::uint64_t scheduled = sim_.events_scheduled();
      run_drain();
      if (sim_.events_scheduled() == scheduled) ++mix_.idle_ticks;
      schedule_poll();
    });
  }

  void run_drain() {
    last_drain_ = sim_.now();
    drain_();
  }

  sim::simulator& sim_;
  notify_config cfg_;
  std::function<void()> drain_;
  bool running_ = false;
  sim_time wakeup_at_{};  // when `wakeup_` fires, while it is pending
  sim_time last_drain_{};
  pump_mix mix_;
  sim::timer tick_;
  sim::timer wakeup_;
};

}  // namespace nk::core
