// Discrete-event simulator: a virtual clock and an ordered event queue.
//
// All macro experiments (Figure 4, Figure 5, ablations) run in virtual time
// on one of these. A simulation is strictly single-threaded; determinism
// comes from (a) a stable (time, sequence) ordering of events and (b) all
// randomness flowing through the simulator-owned rng.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace nk::sim {

class simulator;

// Cancelable handle to a scheduled event. Default-constructed handles are
// inert; cancel() after the event fired is a no-op.
class timer {
 public:
  timer() = default;

  void cancel();
  [[nodiscard]] bool pending() const;

 private:
  friend class simulator;
  struct state;
  explicit timer(std::shared_ptr<state> s) : state_{std::move(s)} {}
  std::weak_ptr<state> state_;
};

class simulator {
 public:
  explicit simulator(std::uint64_t seed = 1);
  ~simulator();

  simulator(const simulator&) = delete;
  simulator& operator=(const simulator&) = delete;

  [[nodiscard]] sim_time now() const { return now_; }
  [[nodiscard]] rng& random() { return rng_; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  // Events ever scheduled, cancelled ones included.
  [[nodiscard]] std::uint64_t events_scheduled() const { return next_seq_; }

  using callback = std::function<void()>;

  // Schedules `fn` to run `delay` from now (delay >= 0).
  timer schedule(sim_time delay, callback fn);
  // Schedules `fn` at absolute time `at` (>= now()).
  timer schedule_at(sim_time at, callback fn);

  // Runs events until the queue is empty or stop() is called.
  void run();

  // Runs all events with timestamp <= deadline, then advances the clock to
  // exactly `deadline`. Returns false if stopped early via stop().
  bool run_until(sim_time deadline);

  // Stops the current run() / run_until() after the current event returns.
  void stop() { stopped_ = true; }

 private:
  struct entry {
    sim_time at;
    std::uint64_t seq;
    callback fn;
    std::shared_ptr<timer::state> st;
  };

  struct entry_order {
    bool operator()(const entry& a, const entry& b) const {
      // std::priority_queue is a max-heap; invert for earliest-first, with
      // the sequence number as a deterministic tiebreak (FIFO among equal
      // times).
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  void dispatch_next();

  sim_time now_ = sim_time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
  rng rng_;
  std::priority_queue<entry, std::vector<entry>, entry_order> queue_;
};

struct timer::state {
  bool cancelled = false;
  bool fired = false;
};

}  // namespace nk::sim
