// Tests of the benchmark's statistics against hand-computed values.
// Run: python3 schedbench/run.py --self-test
#include <cmath>
#include <iostream>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what, double tol = 1e-9) {
  if (std::fabs(got - want) > tol) {
    std::cerr << "FAIL " << what << ": got " << got << ", want " << want << '\n';
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace schedbench;

  // Nearest rank: rank = ceil(p/100 * n).  For {15, 20, 35, 40, 50}:
  // p5 -> rank 1, p30 -> ceil(1.5) = 2, p40 -> 2, p50 -> ceil(2.5) = 3,
  // p100 -> 5.
  const std::vector<double> five = {40, 15, 50, 35, 20};
  expect_near(percentile(five, 5), 15, "p5 of five");
  expect_near(percentile(five, 30), 20, "p30 of five");
  expect_near(percentile(five, 40), 20, "p40 of five");
  expect_near(percentile(five, 50), 35, "p50 of five");
  expect_near(percentile(five, 100), 50, "p100 of five");
  // 1000 samples 1..1000: p99 is rank 990, leaving ten samples beyond it.
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  expect_near(percentile(thousand, 99), 990, "p99 of 1..1000");
  expect_near(percentile(thousand, 50), 500, "p50 of 1..1000");
  // p99 of 101 samples: ceil(99.99) = 100.
  std::vector<double> hundred_one;
  for (int i = 1; i <= 101; ++i) hundred_one.push_back(i);
  expect_near(percentile(hundred_one, 99), 100, "p99 of 1..101");

  expect_near(median({3, 1, 2}), 2, "median of three");
  expect_near(median({4, 1, 3, 2}), 2.5, "median of four");

  expect_near(geomean({2, 8}), 4, "geomean of 2, 8");
  expect_near(geomean({1, 3, 9}), 3, "geomean of 1, 3, 9");
  expect_near(geomean({5}), 5, "geomean of one sample");

  // Capacity on a synthetic monotone latency curve: an M/M/1-like
  // p99(r) = 100 / (1 - r / 10) meets a limit of 400 exactly up to
  // r = 7.5.  The search must return a passing rate within 1% below it.
  auto latency = [](double r) { return r >= 10 ? 1e300 : 100.0 / (1.0 - r / 10.0); };
  for (double start : {0.3, 7.0, 9.0, 40.0}) {
    int probes = 0;
    const double cap = find_capacity(start, 0.01, [&](double r) { return latency(r) <= 400; },
                                     &probes);
    if (!(cap <= 7.5 && cap >= 7.5 * 0.99)) {
      std::cerr << "FAIL capacity from start " << start << ": got " << cap << '\n';
      ++failures;
    }
    if (probes < 2 || probes > 40) {
      std::cerr << "FAIL capacity probe count " << probes << '\n';
      ++failures;
    }
  }
  // A step curve: passes up to 3 exactly (inclusive).
  int probes = 0;
  const double step = find_capacity(1.0, 0.001, [](double r) { return r <= 3.0; }, &probes);
  expect_near(step, 3.0, "capacity of a step at 3", 3.0 * 0.001);

  if (failures == 0) std::cout << "stats_test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
