// Deterministic chaos campaign for the serve stack.
//
// The fuzzing layer answers "does the compiler survive adversarial
// *inputs*"; this driver answers "does the serving loop survive
// adversarial *conditions*": sustained overload, injected compile stalls,
// store read/write faults and a skewed admission clock, all at once, at
// 1/2/4 compile threads.  Every case is a pure function of
// (base_seed, index) — a generated arrival trace plus one armed fault mix
// — and every run of a case must uphold the serve layer's contracts:
//
//   * byte-identical canonical outcome TSV across compile thread counts
//     (the replay-determinism contract, under fire);
//   * conservation — every arrival ends as exactly one of completed /
//     rejected / shed-overload / infeasible / compile-timeout, and the
//     stats block agrees with a recount of the outcome records;
//   * delay-only fault mixes (stalls, retried store reads, torn writes)
//     move zero outcome bytes relative to a disarmed baseline run — only
//     the admission clock skew is allowed to change decisions;
//   * store-backed runs serve the same bytes cold and warm, and the store
//     fscks clean after one repair sweep.
//
// A failing case shrinks like the fuzzing layer's .mapp shrinker: the
// arrival trace is greedily minimised (drop event chunks, then single
// events, then strip deadlines/priorities) while the same failure kind
// still reproduces, so the repro attached to a failure is small enough to
// read.  Exposed as `msysc --serve-chaos N`.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "msys/serve/trace_file.hpp"

namespace msys::serve {

/// One campaign case: a trace spec plus the fault/overload mix armed for
/// it.  Derived deterministically by make_chaos_case().
struct ChaosCase {
  std::uint64_t base_seed{0};
  std::size_t index{0};
  /// One of "none", "stall", "store-read", "store-torn", "clock-skew",
  /// "overload", "mixed" — round-robin over the index so a campaign of
  /// N >= 7 cases exercises every class.
  std::string fault_class;
  /// MSYS_FAULTS-style arming spec; empty = disarmed.
  std::string fault_spec;
  /// True when the armed faults may only delay work (wall clock) — the
  /// campaign then asserts outcomes match a disarmed baseline byte for
  /// byte.  False only for mixes that skew the admission clock.
  bool delay_only{true};
  unsigned tenants{1};
  /// Run against a DiskScheduleStore scratch dir (cold + warm passes,
  /// then fsck).  Ignored when the campaign has no scratch dir.
  bool with_store{false};
  std::uint64_t shed_threshold_cycles{0};
  std::uint64_t degraded_threshold_cycles{0};
  TraceGenSpec trace;

  [[nodiscard]] std::string label() const;
};

struct ChaosFailure {
  ChaosCase c;
  /// "thread-divergence", "fault-divergence", "store-divergence",
  /// "conservation", "fsck", "exception".
  std::string kind;
  std::string detail;
  /// Canonical text of the greedily minimised trace that still reproduces
  /// `kind` (the original trace when shrinking was off or made no
  /// progress).
  std::string shrunk_trace;
};

struct ChaosStats {
  std::size_t cases{0};
  /// Individual ServeLoop::run invocations (thread sweeps, warm store
  /// passes and disarmed baselines included; shrink probes excluded).
  std::size_t runs{0};
  std::size_t jobs{0};
  std::size_t shed{0};
  std::size_t degraded_serves{0};
  std::size_t store_faults{0};
  /// Faults the injector actually fired across the campaign's armed runs.
  std::uint64_t faults_injected{0};
  std::vector<ChaosFailure> failures;

  [[nodiscard]] bool clean() const { return failures.empty(); }
  [[nodiscard]] std::string summary() const;
};

struct ChaosOptions {
  std::uint64_t base_seed{1};
  std::size_t cases{28};
  /// Scratch directory for store-backed cases (each run gets a fresh
  /// subdirectory).  Empty => store classes run storeless.
  std::string scratch_dir;
  std::vector<unsigned> thread_counts{1, 2, 4};
  /// Minimise failing traces before reporting them.
  bool shrink{true};
};

/// Case `index` of the campaign seeded `base_seed` (pure function).
[[nodiscard]] ChaosCase make_chaos_case(std::uint64_t base_seed, std::size_t index);

/// Runs the campaign.  Arms/disarms the process-global FaultInjector
/// around every run, so do not interleave with other fault-armed work.
/// Never throws for a failing case — failures are data in the stats.
[[nodiscard]] ChaosStats run_chaos_campaign(const ChaosOptions& options);

/// Greedy trace minimiser (shrink_greedy, as fuzzing::shrink_text uses):
/// drops aligned event chunks, then single events, then strips deadlines
/// and priorities, keeping every candidate for which `keep` still returns
/// true.  Never shrinks below one event.
[[nodiscard]] TraceFile shrink_trace(TraceFile trace,
                                     const std::function<bool(const TraceFile&)>& keep,
                                     int max_steps = 64);

}  // namespace msys::serve
