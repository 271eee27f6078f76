// queue_pump unit tests (polling vs batched-interrupt semantics) and
// accounting/pricing unit tests.
#include <gtest/gtest.h>

#include <vector>

#include "core/accounting.hpp"
#include "core/notification.hpp"
#include "sim/simulator.hpp"

namespace nk::core {
namespace {

TEST(queue_pump, polling_fires_at_fixed_cadence) {
  sim::simulator s;
  int drains = 0;
  notify_config cfg;
  cfg.kind = notify_config::mode::polling;
  cfg.poll_interval = microseconds(10);
  queue_pump pump{s, cfg, [&] { ++drains; }};
  pump.start();
  s.run_until(microseconds(105));
  EXPECT_EQ(drains, 10);
  pump.stop();
  s.run_until(microseconds(205));
  EXPECT_EQ(drains, 10);  // stopped pumps stop polling
}

TEST(queue_pump, polling_ignores_notify) {
  sim::simulator s;
  int drains = 0;
  notify_config cfg;
  cfg.kind = notify_config::mode::polling;
  cfg.poll_interval = milliseconds(10);
  queue_pump pump{s, cfg, [&] { ++drains; }};
  pump.start();
  pump.notify();  // no effect in polling mode
  s.run_until(milliseconds(5));
  EXPECT_EQ(drains, 0);
}

TEST(queue_pump, batched_interrupt_coalesces_doorbells) {
  sim::simulator s;
  int drains = 0;
  std::vector<sim_time> drained_at;
  notify_config cfg;
  cfg.kind = notify_config::mode::batched_interrupt;
  cfg.interrupt_delay = microseconds(5);
  queue_pump pump{s, cfg, [&] {
                    ++drains;
                    drained_at.push_back(s.now());
                  }};
  pump.start();
  // Many doorbells inside one coalescing window: exactly one drain, one
  // interrupt delay after the first.
  for (int i = 0; i < 50; ++i) pump.notify();
  s.run_until(microseconds(10));
  EXPECT_EQ(drains, 1);
  EXPECT_EQ(drained_at, std::vector<sim_time>{microseconds(5)});

  // After the drain a fresh doorbell schedules a fresh wake-up.
  pump.notify();
  s.run_until(microseconds(20));
  EXPECT_EQ(drains, 2);
}

TEST(queue_pump, batched_interrupt_idle_without_doorbell) {
  sim::simulator s;
  int drains = 0;
  notify_config cfg;
  cfg.kind = notify_config::mode::batched_interrupt;
  queue_pump pump{s, cfg, [&] { ++drains; }};
  pump.start();
  s.run_until(seconds(1));
  EXPECT_EQ(drains, 0);  // no timers burn when nothing rings
}

TEST(queue_pump, notify_before_start_is_ignored) {
  sim::simulator s;
  int drains = 0;
  notify_config cfg;
  cfg.kind = notify_config::mode::batched_interrupt;
  queue_pump pump{s, cfg, [&] { ++drains; }};
  pump.notify();
  s.run_until(milliseconds(1));
  EXPECT_EQ(drains, 0);
}

// --- timed wakeups -------------------------------------------------------------

TEST(queue_pump, wake_at_earliest_request_wins) {
  sim::simulator s;
  std::vector<sim_time> drained_at;
  notify_config cfg;
  cfg.kind = notify_config::mode::batched_interrupt;
  queue_pump pump{s, cfg, [&] { drained_at.push_back(s.now()); }};
  pump.start();
  pump.wake_at(microseconds(30));
  pump.wake_at(microseconds(10));  // earlier: replaces the pending wakeup
  pump.wake_at(microseconds(20));  // later than the pending one: dropped
  s.run_until(milliseconds(1));
  EXPECT_EQ(drained_at, std::vector<sim_time>{microseconds(10)});
}

TEST(queue_pump, wake_at_drains_under_polling) {
  sim::simulator s;
  std::vector<sim_time> drained_at;
  notify_config cfg;
  cfg.kind = notify_config::mode::polling;
  cfg.poll_interval = microseconds(100);
  queue_pump pump{s, cfg, [&] { drained_at.push_back(s.now()); }};
  pump.start();
  // Between two ticks: the drain runs then, and the ticks keep their grid.
  pump.wake_at(microseconds(40));
  s.run_until(microseconds(250));
  EXPECT_EQ(drained_at, (std::vector<sim_time>{microseconds(40),
                                               microseconds(100),
                                               microseconds(200)}));
}

TEST(queue_pump, stop_cancels_wake_at_until_start) {
  sim::simulator s;
  int drains = 0;
  notify_config cfg;
  cfg.kind = notify_config::mode::batched_interrupt;
  queue_pump pump{s, cfg, [&] { ++drains; }};
  pump.start();
  pump.wake_at(microseconds(10));
  pump.stop();
  s.run_until(microseconds(20));
  EXPECT_EQ(drains, 0);
  // Stopped: requests are ignored, timed or rung.
  pump.wake_at(microseconds(30));
  pump.notify();
  s.run_until(microseconds(50));
  EXPECT_EQ(drains, 0);
  pump.start();
  pump.wake_at(microseconds(60));
  s.run_until(microseconds(70));
  EXPECT_EQ(drains, 1);
}

TEST(queue_pump, doorbell_rides_a_pending_earlier_wakeup) {
  sim::simulator s;
  std::vector<sim_time> drained_at;
  notify_config cfg;
  cfg.kind = notify_config::mode::batched_interrupt;
  cfg.interrupt_delay = microseconds(10);
  queue_pump pump{s, cfg, [&] { drained_at.push_back(s.now()); }};
  pump.start();
  pump.wake_at(microseconds(5));
  pump.notify();  // would drain at 10 us; the 5 us wakeup covers it
  s.run_until(microseconds(50));
  EXPECT_EQ(drained_at, std::vector<sim_time>{microseconds(5)});
}

TEST(queue_pump, last_drain_is_the_most_recent_drain) {
  sim::simulator s;
  notify_config cfg;
  cfg.kind = notify_config::mode::batched_interrupt;
  queue_pump pump{s, cfg, [] {}};
  pump.start();
  EXPECT_EQ(pump.last_drain(), sim_time::zero());
  pump.wake_at(microseconds(7));
  s.run_until(microseconds(10));
  EXPECT_EQ(pump.last_drain(), microseconds(7));
  pump.wake_at(microseconds(25));
  s.run_until(microseconds(100));
  EXPECT_EQ(pump.last_drain(), microseconds(25));
}

// A tick is idle when its drain schedules no event; wakeups count apart.
TEST(queue_pump, mix_counts_ticks_idle_ticks_and_wakeups) {
  sim::simulator s;
  notify_config cfg;
  cfg.kind = notify_config::mode::polling;
  cfg.poll_interval = microseconds(10);
  int drains = 0;
  queue_pump pump{s, cfg, [&] {
                    // Every third drain queues work (one event).
                    if (++drains % 3 == 0) s.schedule(nanoseconds(1), [] {});
                  }};
  pump.start();
  s.run_until(microseconds(95));  // ticks at 10..90 us
  EXPECT_EQ(pump.mix().ticks, 9u);
  EXPECT_EQ(pump.mix().idle_ticks, 6u);
  EXPECT_EQ(pump.mix().wakeups, 0u);
  pump.wake_at(microseconds(97));  // drain 10: idle, but not a tick
  s.run_until(microseconds(99));
  EXPECT_EQ(pump.mix().ticks, 9u);
  EXPECT_EQ(pump.mix().wakeups, 1u);
  // Ten ticks (the one at 100 us still pending), three work events and
  // the wakeup.
  EXPECT_EQ(s.events_scheduled(), 10u + 3u + 1u);
}

// --- accounting / pricing ------------------------------------------------------------

TEST(accounting, charge_formulas) {
  nsm_usage usage;
  usage.wall_time = seconds(3600);  // one hour
  usage.cpu_busy = seconds(1800);   // half a core-hour of cycles
  usage.core_count = 2;
  usage.memory_bytes = 1024ull * 1024 * 1024;
  usage.bytes_moved = 10ull * 1000 * 1000 * 1000;  // 10 GB
  usage.guaranteed_gbps = 5.0;

  price_sheet sheet;
  EXPECT_DOUBLE_EQ(charge(pricing_model::per_instance, usage, sheet),
                   sheet.per_instance_hour);
  EXPECT_DOUBLE_EQ(charge(pricing_model::per_core, usage, sheet),
                   2 * sheet.per_core_hour);
  EXPECT_DOUBLE_EQ(charge(pricing_model::usage_based, usage, sheet),
                   1800 * sheet.per_cpu_second + 10 * sheet.per_gb_moved);
  EXPECT_DOUBLE_EQ(charge(pricing_model::sla_based, usage, sheet),
                   5.0 * sheet.per_gbps_guaranteed);
}

TEST(accounting, idle_instance_still_pays_flat_rate_but_not_usage) {
  nsm_usage usage;
  usage.wall_time = seconds(7200);
  usage.core_count = 1;
  EXPECT_GT(charge(pricing_model::per_instance, usage), 0.0);
  EXPECT_DOUBLE_EQ(charge(pricing_model::usage_based, usage), 0.0);
}

TEST(accounting, invoice_line_mentions_model_and_charge) {
  nsm_usage usage;
  usage.wall_time = seconds(60);
  usage.core_count = 1;
  const std::string line = invoice_line(pricing_model::per_core, usage);
  EXPECT_NE(line.find("per_core"), std::string::npos);
  EXPECT_NE(line.find('$'), std::string::npos);
}

}  // namespace
}  // namespace nk::core
