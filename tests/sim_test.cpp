// Unit tests for the discrete-event simulator, the cpu_core resource, and
// the seeded chaos schedule.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/chaos.hpp"
#include "sim/cpu_core.hpp"
#include "sim/simulator.hpp"

namespace nk::sim {
namespace {

TEST(simulator, events_run_in_time_order) {
  simulator s;
  std::vector<int> order;
  s.schedule(milliseconds(3), [&] { order.push_back(3); });
  s.schedule(milliseconds(1), [&] { order.push_back(1); });
  s.schedule(milliseconds(2), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), milliseconds(3));
}

TEST(simulator, equal_times_run_fifo) {
  simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(milliseconds(1), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(simulator, nested_scheduling) {
  simulator s;
  sim_time inner_time{};
  s.schedule(milliseconds(1), [&] {
    s.schedule(milliseconds(1), [&] { inner_time = s.now(); });
  });
  s.run();
  EXPECT_EQ(inner_time, milliseconds(2));
}

TEST(simulator, cancel_prevents_execution) {
  simulator s;
  bool ran = false;
  timer t = s.schedule(milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(t.pending());
  t.cancel();
  EXPECT_FALSE(t.pending());
  s.run();
  EXPECT_FALSE(ran);
}

TEST(simulator, cancel_after_fire_is_noop) {
  simulator s;
  int count = 0;
  timer t = s.schedule(milliseconds(1), [&] { ++count; });
  s.run();
  t.cancel();  // must not crash or affect anything
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(t.pending());
}

TEST(simulator, run_until_advances_clock_exactly) {
  simulator s;
  int fired = 0;
  s.schedule(milliseconds(1), [&] { ++fired; });
  s.schedule(milliseconds(10), [&] { ++fired; });
  EXPECT_TRUE(s.run_until(milliseconds(5)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), milliseconds(5));
  EXPECT_TRUE(s.run_until(milliseconds(20)));
  EXPECT_EQ(fired, 2);
}

TEST(simulator, stop_interrupts_run) {
  simulator s;
  int fired = 0;
  s.schedule(milliseconds(1), [&] {
    ++fired;
    s.stop();
  });
  s.schedule(milliseconds(2), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(simulator, events_processed_counts_fired_only) {
  simulator s;
  timer t = s.schedule(milliseconds(1), [] {});
  s.schedule(milliseconds(2), [] {});
  t.cancel();
  s.run();
  EXPECT_EQ(s.events_processed(), 1u);
}

TEST(cpu_core, serializes_work) {
  simulator s;
  cpu_core core{s, "c0"};
  std::vector<sim_time> done;
  core.execute(microseconds(10), [&] { done.push_back(s.now()); });
  core.execute(microseconds(10), [&] { done.push_back(s.now()); });
  core.execute(microseconds(10), [&] { done.push_back(s.now()); });
  s.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], microseconds(10));
  EXPECT_EQ(done[1], microseconds(20));
  EXPECT_EQ(done[2], microseconds(30));
}

TEST(cpu_core, throughput_is_capped_by_service_time) {
  simulator s;
  cpu_core core{s, "c0"};
  // Submit 1000 items of 1 us each over time; the last completes at 1 ms.
  int completed = 0;
  for (int i = 0; i < 1000; ++i) {
    core.execute(microseconds(1), [&] { ++completed; });
  }
  s.run();
  EXPECT_EQ(completed, 1000);
  EXPECT_EQ(s.now(), milliseconds(1));
}

TEST(cpu_core, idle_gaps_do_not_count_as_busy) {
  simulator s;
  cpu_core core{s, "c0"};
  core.execute(microseconds(10), [] {});
  s.run();  // now = 10 us, all busy
  EXPECT_DOUBLE_EQ(core.utilization(), 1.0);
  s.schedule(microseconds(10), [] {});
  s.run();  // now = 20 us, half busy
  EXPECT_DOUBLE_EQ(core.utilization(), 0.5);
  EXPECT_EQ(core.busy_time(), microseconds(10));
}

TEST(cpu_core, backlog_reflects_committed_future_work) {
  simulator s;
  cpu_core core{s, "c0"};
  core.execute(microseconds(5), [] {});
  core.execute(microseconds(5), [] {});
  EXPECT_EQ(core.backlog(), microseconds(10));
  s.run();
  EXPECT_EQ(core.backlog(), sim_time::zero());
}

TEST(cpu_core, zero_cost_preserves_fifo) {
  simulator s;
  cpu_core core{s, "c0"};
  std::vector<int> order;
  core.execute(sim_time::zero(), [&] { order.push_back(1); });
  core.execute(sim_time::zero(), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(cpu_core, charge_occupies_the_core_without_an_event) {
  simulator s;
  cpu_core core{s, "c0"};
  core.charge(microseconds(4));
  EXPECT_EQ(core.busy_time(), microseconds(4));
  EXPECT_EQ(core.backlog(), microseconds(4));
  // Work executed after a charge queues behind it, exactly as behind an
  // execute() with an empty completion.
  sim_time done_at{};
  core.execute(microseconds(1), [&] { done_at = s.now(); });
  s.run();
  EXPECT_EQ(done_at, microseconds(5));
  EXPECT_EQ(s.events_processed(), 1u);
  EXPECT_EQ(core.busy_time(), microseconds(5));
}

// --- chaos schedule --------------------------------------------------------

TEST(chaos_schedule, identical_seeds_replay_identical_timelines) {
  auto run_once = [](std::uint64_t seed) {
    simulator s;
    chaos_schedule chaos{s, seed};
    chaos.storm("storm", microseconds(10), microseconds(100), 8,
                [](std::size_t) {});
    chaos.pulse("pulse", microseconds(50), microseconds(20), [](bool) {});
    chaos.at(microseconds(5), "single", [] {});
    chaos.arm();
    s.run();
    std::vector<std::pair<long long, std::string>> fired;
    for (const auto& ev : chaos.log()) {
      fired.emplace_back(ev.at.count(), ev.name);
    }
    return fired;
  };
  EXPECT_EQ(run_once(7), run_once(7));  // bit-for-bit replay
  EXPECT_NE(run_once(7), run_once(8));  // the seed is the timeline
}

TEST(chaos_schedule, ties_fire_in_composition_order) {
  simulator s;
  chaos_schedule chaos{s, 1};
  std::vector<int> order;
  chaos.at(microseconds(10), "b", [&] { order.push_back(2); });
  chaos.at(microseconds(5), "a", [&] { order.push_back(1); });
  chaos.at(microseconds(10), "c", [&] { order.push_back(3); });
  chaos.arm();
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  ASSERT_EQ(chaos.log().size(), 3u);
  EXPECT_EQ(chaos.log()[0].name, "a");
  EXPECT_EQ(chaos.log()[1].name, "b");
  EXPECT_EQ(chaos.log()[2].name, "c");
}

TEST(chaos_schedule, storm_lands_in_window_and_pulse_brackets) {
  simulator s;
  chaos_schedule chaos{s, 42};
  const sim_time start = microseconds(100);
  const sim_time window = microseconds(400);
  std::size_t fired = 0;
  chaos.storm("burst", start, window, 16, [&](std::size_t) { ++fired; });
  bool on = false;
  sim_time on_at{}, off_at{};
  chaos.pulse("exhaust", microseconds(20), microseconds(60), [&](bool v) {
    on = v;
    (v ? on_at : off_at) = s.now();
  });
  chaos.arm();
  EXPECT_TRUE(chaos.armed());
  EXPECT_EQ(chaos.entries(), 18u);  // 16 storm shots + pulse on/off
  s.run();

  EXPECT_EQ(fired, 16u);
  for (const auto& ev : chaos.log()) {
    if (ev.name.rfind("burst#", 0) == 0) {
      EXPECT_GE(ev.at, start);
      EXPECT_LT(ev.at, start + window);
    }
  }
  EXPECT_FALSE(on);  // pulse ended off
  EXPECT_EQ(on_at, microseconds(20));
  EXPECT_EQ(off_at, microseconds(80));
}

}  // namespace
}  // namespace nk::sim
