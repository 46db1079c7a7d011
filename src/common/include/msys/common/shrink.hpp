// Greedy minimiser behind fuzzing::shrink_text and serve::shrink_trace.
// `candidates(current)` lists simpler variants of the current value in the
// caller's preferred order; the first one `keep` holds for becomes the
// current value and the search restarts from it, for at most `max_steps`
// accepted steps.  A value `keep` rejects up front comes back unchanged.
#pragma once

#include <algorithm>
#include <utility>

namespace msys {

template <typename T, typename Candidates, typename Keep>
[[nodiscard]] T shrink_greedy(T value, const Candidates& candidates, const Keep& keep,
                              int max_steps) {
  if (!keep(value)) return value;
  for (int steps = 0; steps < max_steps; ++steps) {
    auto options = candidates(value);
    const auto kept = std::find_if(options.begin(), options.end(), keep);
    if (kept == options.end()) break;
    value = std::move(*kept);
  }
  return value;
}

}  // namespace msys
