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
// Ablation A1 (bench/ablate_notification) sweeps both.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/simulator.hpp"

namespace nk::core {

struct notify_config {
  enum class mode { polling, batched_interrupt };
  mode kind = mode::polling;
  sim_time poll_interval = microseconds(1);
  sim_time interrupt_delay = microseconds(2);
};

class queue_pump {
 public:
  // `drain` empties the watched queue(s) and returns how many items it
  // consumed.
  queue_pump(sim::simulator& s, const notify_config& cfg,
             std::function<std::size_t()> drain)
      : sim_{s}, cfg_{cfg}, drain_{std::move(drain)} {}

  queue_pump(const queue_pump&) = delete;
  queue_pump& operator=(const queue_pump&) = delete;
  ~queue_pump() { stop(); }

  void start() {
    running_ = true;
    if (cfg_.kind == notify_config::mode::polling) schedule_poll();
  }

  // Cancels the pending tick or wakeup; start() resumes from now.
  void stop() {
    running_ = false;
    wakeup_pending_ = false;
    tick_.cancel();
  }

  // Producer-side doorbell; no-op under polling.
  void notify() {
    if (!running_ || cfg_.kind != notify_config::mode::batched_interrupt) {
      return;
    }
    if (wakeup_pending_) return;  // coalesce: batch everything into one drain
    wakeup_pending_ = true;
    tick_ = sim_.schedule(cfg_.interrupt_delay, [this] {
      wakeup_pending_ = false;
      run_drain();
    });
  }

  [[nodiscard]] std::uint64_t items_drained() const { return drained_; }
  [[nodiscard]] std::uint64_t wakeups() const { return wakeups_; }
  [[nodiscard]] const notify_config& config() const { return cfg_; }

 private:
  void schedule_poll() {
    if (!running_) return;
    tick_ = sim_.schedule(cfg_.poll_interval, [this] {
      run_drain();
      schedule_poll();
    });
  }

  void run_drain() {
    ++wakeups_;
    drained_ += drain_();
  }

  sim::simulator& sim_;
  notify_config cfg_;
  std::function<std::size_t()> drain_;
  bool running_ = false;
  bool wakeup_pending_ = false;
  std::uint64_t drained_ = 0;
  std::uint64_t wakeups_ = 0;
  sim::timer tick_;
};

}  // namespace nk::core
