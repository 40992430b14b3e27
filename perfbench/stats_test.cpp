// Tests of the benchmark's own arithmetic (stats.hpp): quartiles, the tail
// percentile rule, self times from aggregate span paths, and the epoch /
// frame / shed accounting on hand-built epoch reports. Exits nonzero on
// the first failure.
//
//   cmake --build .bench_build/perfbench --target stats_test
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-12 * (1.0 + std::fabs(want)),
         what + " (got " + std::to_string(got) + ", want " +
             std::to_string(want) + ")");
}

pamo::obs::SpanStat span(const std::string& path, std::uint64_t total_ns,
                         std::uint64_t count = 1) {
  pamo::obs::SpanStat s;
  s.path = path;
  s.count = count;
  s.total_ns = total_ns;
  s.max_ns = total_ns;
  return s;
}

void test_quartiles() {
  // Reference values from Python: statistics.quantiles(values, n=4).
  auto q = perfbench::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect_near(q[0], 2.75, "q1 of 1..10");
  expect_near(q[1], 5.5, "q2 of 1..10");
  expect_near(q[2], 8.25, "q3 of 1..10");
  q = perfbench::quartiles({5, 1});
  expect_near(q[0], 0.0, "q1 of two values extrapolates");
  expect_near(q[1], 3.0, "q2 of two values");
  expect_near(q[2], 6.0, "q3 of two values extrapolates");
  q = perfbench::quartiles({0.5, 9.0, 2.5, 7.0, 1.0, 4.0, 3.0});
  expect_near(q[0], 1.0, "q1 of seven unsorted values");
  expect_near(q[1], 3.0, "q2 of seven unsorted values");
  expect_near(q[2], 7.0, "q3 of seven unsorted values");
  expect_near(perfbench::median({4, 1, 3, 2}), 2.5, "median of even count");
  expect_near(perfbench::median({4, 1, 3}), 3.0, "median of odd count");
}

void test_tail() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  auto t = perfbench::pick_tail(v);
  // p90 leaves exactly 10 samples above rank 90; p95 would leave 5.
  expect_near(t.percentile, 90.0, "100 samples pick p90");
  expect_near(t.value, 90.0, "p90 of 1..100 by nearest rank");
  expect(t.beyond == 10 && t.samples == 100, "p90 leaves 10 beyond");

  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  t = perfbench::pick_tail(v);
  expect_near(t.percentile, 99.0, "1000 samples pick p99");
  expect(t.beyond == 10, "p99 of 1000 leaves 10 beyond");

  v.assign(39, 1.0);
  v.push_back(2.0);
  t = perfbench::pick_tail(v);
  expect_near(t.percentile, 75.0, "40 samples pick p75");
  expect(t.beyond == 10, "p75 of 40 leaves 10 beyond");

  v.assign(19, 3.0);
  v.push_back(7.0);
  t = perfbench::pick_tail(v);
  expect_near(t.percentile, 50.0, "20 samples pick p50");

  v.assign(19, 3.0);
  t = perfbench::pick_tail(v);
  expect(t.beyond == 0 && t.percentile == 100.0,
         "fewer than 20 samples fall back to the maximum");
  expect_near(t.value, 3.0, "fallback value is the maximum");
}

void test_self_times() {
  const std::vector<pamo::obs::SpanStat> stats = {
      span("service.run_epoch", 1000),
      span("service.run_epoch/pamo.run", 900),
      span("service.run_epoch/pamo.run/gp.fit", 300, 5),
      span("service.run_epoch/pamo.run/pamo.bo_iteration", 500, 2),
      span("service.run_epoch/pamo.run/pamo.bo_iteration/gp.update", 200),
      span("service.run_epoch/pamo.run/pamo.bo_iteration/gp.update/gp.update",
           50),
      span("service.run_epoch/sim.simulate", 40),
      span("gp.fit", 70),  // outside the root
  };
  const auto self = perfbench::self_ns(stats);
  expect_near(self.at("service.run_epoch"), 60, "root self time");
  expect_near(self.at("service.run_epoch/pamo.run"), 100, "pamo.run self");
  expect_near(self.at("service.run_epoch/pamo.run/gp.fit"), 300,
              "a parent with no children keeps its whole total");
  expect_near(self.at("service.run_epoch/pamo.run/pamo.bo_iteration"), 300,
              "bo_iteration self");
  expect_near(
      self.at("service.run_epoch/pamo.run/pamo.bo_iteration/gp.update"), 150,
      "nested same-name span is a child");
  double sum = 0;
  for (const auto& s : stats) {
    if (perfbench::under(s.path, "service.run_epoch")) sum += self.at(s.path);
  }
  expect_near(sum, 1000, "self times partition the root total");

  const auto update =
      perfbench::layer_total(stats, self, "service.run_epoch", "gp.update");
  expect_near(update.total_ns, 200, "layer total counts outermost spans once");
  const auto fit =
      perfbench::layer_total(stats, self, "service.run_epoch", "gp.fit");
  expect_near(fit.total_ns, 300, "layer total stays under the root");
  expect(fit.count == 5, "layer count");
  expect(!perfbench::under("service.run_epochs/x", "service.run_epoch"),
         "under() matches whole components");
  expect(perfbench::has_ancestor("a/gp.update/gp.update", "gp.update"),
         "ancestor found");
  expect(!perfbench::has_ancestor("a/xgp.update/gp.update", "gp.update"),
         "ancestor matches whole components");
}

void test_accounting() {
  using perfbench::EpochReport;
  EpochReport ok;
  ok.feasible = true;
  ok.sim.total_emitted = 100;
  ok.sim.total_dropped = 2;
  ok.sim.slo_violations = 3;
  ok.churn.offered = 10;
  ok.churn.admitted = 8;
  ok.churn.deferred = 1;
  ok.churn.shed = 1;

  EpochReport repaired = ok;
  repaired.repaired = true;
  repaired.post_repair_sim.total_emitted = 50;
  repaired.post_repair_sim.total_dropped = 5;

  EpochReport infeasible;
  infeasible.churn.offered = 10;
  infeasible.churn.admitted = 10;

  EpochReport fallback = ok;
  fallback.fallback = true;
  fallback.health.fallback_taken = true;

  EpochReport absorbed = ok;
  absorbed.health.repair_error = true;

  expect(!perfbench::epoch_failed(ok), "clean epoch does not fail");
  expect(perfbench::epoch_failed(infeasible), "infeasible epoch fails");
  expect(perfbench::epoch_failed(fallback), "fallback epoch fails");
  expect(perfbench::epoch_failed(absorbed), "absorbed repair error fails");
  expect(&perfbench::served_sim(repaired) == &repaired.post_repair_sim,
         "a repaired epoch serves its re-validated simulation");

  perfbench::Tally t;
  for (const EpochReport* r : {&ok, &repaired, &infeasible, &fallback, &absorbed}) {
    t.add(*r);
  }
  expect(t.epochs == 5 && t.failed == 3, "3 of 5 epochs failed");
  expect_near(t.epoch_fail_ratio(), 0.6, "epoch_fail_ratio");
  // ok, fallback and absorbed each emit 100 and miss 5; the repaired epoch
  // counts its post-repair run (50 emitted, 5 dropped); infeasible adds none.
  expect_near(t.frame_miss_ratio(), 20.0 / 350.0, "frame_miss_ratio");
  expect_near(t.streams_shed_ratio(), 4.0 / 50.0, "streams_shed_ratio");
  expect_near(perfbench::Tally{}.frame_miss_ratio(), 0.0, "empty tally");
}

}  // namespace

int main() {
  test_quartiles();
  test_tail();
  test_self_times();
  test_accounting();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "stats_test: all checks passed\n";
  return EXIT_SUCCESS;
}
