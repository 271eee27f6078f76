// Self-tests of the benchmark's own statistics and correctness checks:
// nearest-rank percentiles, the ">= 10 samples beyond" tail choice, sample
// counts, number formatting, and that a corrupted echo payload fails the
// rpc_fanin check. Exits nonzero on the first failed expectation set.
//
//   nk_perfbench_test
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim_harness.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok" : "FAILED", what.c_str());
  if (!ok) ++failures;
}

void nearest_rank_percentiles() {
  // The textbook example: {15, 20, 35, 40, 50}.
  const std::vector<double> five{15, 20, 35, 40, 50};
  expect(nkb::nearest_rank(five, 5) == 15, "p5 of five samples is the minimum");
  expect(nkb::nearest_rank(five, 30) == 20, "p30 of five samples is rank 2");
  expect(nkb::nearest_rank(five, 40) == 20, "p40 of five samples is rank 2");
  expect(nkb::nearest_rank(five, 50) == 35, "p50 of five samples is rank 3");
  expect(nkb::nearest_rank(five, 100) == 50, "p100 is the maximum");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(nkb::nearest_rank(hundred, 99) == 99, "p99 of 1..100 is 99");
  expect(nkb::nearest_rank(hundred, 99.5) == 100, "p99.5 of 1..100 rounds the rank up");
  expect(nkb::nearest_rank({}, 50) == 0, "no samples give 0");
  expect(nkb::median({3, 1, 2}) == 2, "median sorts a copy");
}

void tail_choice() {
  expect(nkb::supported_tail(10) == 0, "10 samples support no percentile");
  expect(nkb::supported_tail(20) == 50, "20 samples support the median only");
  expect(nkb::supported_tail(999) == 90, "999 samples leave 9 beyond p99: p90");
  expect(nkb::supported_tail(1000) == 99, "1000 samples leave 10 beyond p99");
  expect(nkb::supported_tail(9999) == 99, "9999 samples leave 9 beyond p99.9: p99");
  expect(nkb::supported_tail(10000) == 99.9, "10000 samples support p99.9");
  expect(nkb::supported_tail(100000) == 99.99, "100000 samples support p99.99");
  expect(nkb::supported_tail(1000, 11) == 90, "the beyond count is a parameter");
}

void summaries() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const nkb::summary s = nkb::summarize(v);
  expect(s.n == 1000, "summary counts every sample");
  expect(s.p50 == 500 && s.p99 == 990, "summary p50/p99 of 1..1000");
  expect(s.tail_p == 99 && s.tail == 990, "summary tail of 1000 samples is p99");
  std::vector<double> few{1, 2, 3};
  const nkb::summary t = nkb::summarize(few);
  expect(t.n == 3 && t.p99 == 0 && t.tail == 0, "3 samples report no tail");

  const std::vector<std::uint64_t> counts{0, 3, 1};
  const auto upper = [](int i) { return static_cast<std::uint64_t>(i * 10); };
  expect(nkb::bucket_percentile(counts, 50, upper) == 10, "bucket p50 lands in bucket 1");
  expect(nkb::bucket_percentile(counts, 100, upper) == 20, "bucket p100 lands in bucket 2");
  expect(nkb::bucket_percentile(std::vector<std::uint64_t>{0, 0}, 50, upper) == 0,
         "empty histogram gives 0");
}

void number_format() {
  for (const double v : {0.1, 1.0 / 3.0, 39.664123456789, 1e-9, 123456789.0}) {
    expect(std::strtod(nkb::json_number(v).c_str(), nullptr) == v,
           "json_number round-trips " + nkb::json_number(v));
  }
  expect(nkb::json_number(2.5) == "2.5", "json_number prints the shortest form");
  expect(nkb::json_number(930.0) == "930", "json_number prints integers without exponent");
}

void corrupted_echo_fails() {
  const nkb::sim_spec* spec = nkb::find_sim_spec("rpc_fanin");
  expect(spec != nullptr, "rpc_fanin is a known workload");
  if (spec == nullptr) return;
  nkb::run_params p;
  p.seed = 7;
  p.seconds = 0.05;
  const nkb::pass_result clean = nkb::run_sim_pass(*spec, p, 1, nullptr);
  expect(clean.checks.ok(), "a clean rpc_fanin pass passes its checks");
  p.corrupt_echo = true;
  const nkb::pass_result bad = nkb::run_sim_pass(*spec, p, 1, nullptr);
  bool caught = false;
  for (const auto& f : bad.checks.failures()) {
    caught = caught || f.find("echoed bytes differ") != std::string::npos;
  }
  expect(caught, "a corrupted echo payload fails the rpc_fanin check");
}

}  // namespace

int main() {
  nearest_rank_percentiles();
  tail_choice();
  summaries();
  number_format();
  corrupted_echo_fails();
  std::printf("%d failed\n", failures);
  return failures == 0 ? 0 : 1;
}
