// Order statistics and the capacity search used by every workload.
// Kept free of library dependencies so stats_test.cpp can pin them
// against hand-computed values.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace schedbench {

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it (rank ceil(p/100 * n), 1-based).  p in (0, 100].
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("percentile outside (0, 100]");
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

/// Median as the mean of the two middle samples for an even count.
inline double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

/// Geometric mean of positive samples.
inline double geomean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("geomean of no samples");
  double log_sum = 0.0;
  for (double v : samples) {
    if (!(v > 0.0)) throw std::invalid_argument("geomean needs positive samples");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

/// Highest rate at which `meets(rate)` holds, for a predicate that holds
/// up to some rate and fails above it.  Starting from `start`, the bracket
/// is doubled or halved until it straddles the boundary, then bisected
/// until its width is at most `rel_tol` of the passing end.  Returns the
/// passing end; `*probes` counts the predicate calls.
template <class Meets>
double find_capacity(double start, double rel_tol, Meets&& meets, int* probes) {
  int calls = 0;
  auto probe = [&](double rate) {
    ++calls;
    return meets(rate);
  };
  double lo = start;
  double hi = start;
  constexpr int kMaxSteps = 40;
  if (probe(start)) {
    for (int i = 0; i < kMaxSteps && probe(hi *= 2.0); ++i) lo = hi;
  } else {
    for (int i = 0; i < kMaxSteps && !probe(lo /= 2.0); ++i) hi = lo;
  }
  if (!(lo < hi)) throw std::runtime_error("capacity search found no boundary");
  while (hi - lo > rel_tol * lo) {
    const double mid = (lo + hi) / 2.0;
    (probe(mid) ? lo : hi) = mid;
  }
  if (probes != nullptr) *probes = calls;
  return lo;
}

}  // namespace schedbench
