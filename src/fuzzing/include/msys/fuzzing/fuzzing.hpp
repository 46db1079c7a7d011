// Deterministic adversarial fuzzing / differential-testing harness for the
// whole scheduler stack.
//
// A FuzzCase is canonically a `.mapp` text (the appdsl format), so every
// case doubles as a repro file.  make_case(seed) deterministically derives
// an adversarial scenario class from the seed — tiny Frame Buffers, single
// objects larger than one FB set, huge iteration counts, deep
// inter-cluster reuse chains, degenerate single-kernel clusters, word-size
// extremes, and malformed texts that must die as parser diagnostics.
//
// run_case() pushes the case through all three schedulers plus the
// CDS->DS->Basic->DS+split fallback chain and puts every feasible schedule
// through the schedule oracle (sim::check_schedule), which checks it three
// independent ways:
//   1. dsched::validate_schedule must report no violations,
//   2. the event-driven simulator must complete without functional faults,
//   3. dsched::predict_cost must agree with the simulator cycle-exactly
//      (and word- and request-exactly).
// Infeasible inputs must resolve into structured diagnostics — an uncaught
// throw anywhere is itself a failure ("uncaught-throw").
//
// shrink_text() greedily minimises a failing case while a caller-supplied
// predicate holds: drop the last cluster, drop the last kernel, halve
// object sizes, halve the FB set, halve iterations.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "msys/common/diagnostic.hpp"
#include "msys/obs/metrics.hpp"

namespace msys::fuzzing {

/// One generated scenario.  `text` is a complete .mapp source.
struct FuzzCase {
  std::string name;
  std::uint64_t seed{0};
  std::string text;
};

/// One broken cross-check on one scheduler run.
struct CheckFailure {
  std::string scheduler;
  /// "validator" | "simulator" | "cost-mismatch" | "uncaught-throw" |
  /// "missing-diagnostic" | "internal" | "store-divergence"
  std::string kind;
  std::string detail;
};

struct CaseResult {
  std::string name;
  bool parse_ok{false};
  Diagnostics parse_diagnostics;
  /// Of the three paper schedulers, how many produced a feasible schedule.
  int feasible_schedulers{0};
  bool fallback_feasible{false};
  /// Winning rung of the fallback chain ("" when infeasible).
  std::string fallback_rung;
  std::string fallback_chain;
  /// Predicted total cycles of the winning fallback schedule (0 when
  /// infeasible); the store-backed engine pass cross-checks against this.
  std::uint64_t fallback_total_cycles{0};
  /// Structured infeasibility diagnostics from the fallback chain.
  Diagnostics infeasibility;
  std::vector<CheckFailure> failures;

  [[nodiscard]] bool clean() const { return failures.empty(); }
};

/// Number of distinct adversarial scenario classes make_case cycles over.
inline constexpr std::uint64_t kScenarioClasses = 8;

/// Deterministic: same seed => same case, on every platform.
[[nodiscard]] FuzzCase make_case(std::uint64_t seed);

/// Runs every scheduler and the fallback chain on the case with full
/// cross-checking.  Never throws.
[[nodiscard]] CaseResult run_case(const FuzzCase& c);

/// Keep-predicate over .mapp texts for shrinking; must be deterministic.
using Predicate = std::function<bool(const std::string& mapp_text)>;

/// Greedy structural minimisation: repeatedly applies the cheapest
/// transformation that keeps `keep(text)` true; stops after `max_steps`
/// accepted steps or when no transformation preserves the predicate.
[[nodiscard]] std::string shrink_text(std::string text, const Predicate& keep,
                                      int max_steps = 200);

/// One campaign failure: the raw failing case plus its minimised repro.
struct CampaignFailure {
  FuzzCase original;
  CaseResult result;
  std::string shrunk_mapp;
};

struct CampaignStats {
  std::uint64_t cases{0};
  std::uint64_t parse_rejected{0};
  std::uint64_t all_feasible{0};
  std::uint64_t degraded{0};    // fallback succeeded below the CDS rung
  std::uint64_t infeasible{0};  // structured infeasibility (no rung fits)
  /// Store-backed engine pass accounting (CampaignOptions::store_dir):
  /// cases replayed through the persistent cache / served from disk /
  /// attempts cut short by the per-job deadline (not divergences).
  std::uint64_t store_checked{0};
  std::uint64_t store_disk_hits{0};
  std::uint64_t store_timeouts{0};
  /// Metrics snapshots emitted by the sampler (CampaignOptions).
  std::uint64_t snapshots{0};
  std::vector<CampaignFailure> failures;

  [[nodiscard]] bool clean() const { return failures.empty(); }
  [[nodiscard]] std::string summary() const;
};

/// Knobs for one campaign; the default-constructed value reproduces the
/// historical serial campaign exactly.
struct CampaignOptions {
  /// Phase-1 fan-out width (1 => serial).  The report is byte-identical at
  /// any width; see run_campaign below.
  unsigned n_threads{1};
  /// When positive (and on_snapshot is set), a sampler thread emits obs
  /// metrics deltas at this interval during phase 1, plus one final delta
  /// when the phase drains — so short campaigns still get one snapshot.
  /// Purely observational: snapshots never influence results.
  std::chrono::milliseconds snapshot_interval{0};
  /// Receives the counter deltas since the previous snapshot and the
  /// number of cases completed so far.  Called from the sampler thread.
  std::function<void(const obs::MetricsSnapshot& delta, std::uint64_t completed)>
      on_snapshot;
  /// When non-empty, a serial post-pass replays every schedulable case
  /// through a DiskScheduleStore-backed ScheduleCache rooted here and
  /// cross-checks the served result against the direct fallback run —
  /// feasibility, winning rung, and predicted total cycles must agree.
  /// A disagreement is a "store-divergence" CheckFailure on that case.
  std::string store_dir;
  /// Per-job wall-clock deadline for the store pass (0 => none).  A
  /// deadline expiry is structured data (counted in store_timeouts), not
  /// a divergence.
  std::chrono::milliseconds job_deadline{0};
};

/// Runs seeds [base_seed, base_seed + n_cases) and shrinks every failure
/// into a minimised .mapp repro.
[[nodiscard]] CampaignStats run_campaign(std::uint64_t base_seed,
                                         std::uint64_t n_cases);

/// Same campaign on the batch engine: cases fan out across `n_threads`
/// workers (engine::ThreadPool) and the stats fold back in seed order, so
/// the report — every counter, every failure, every shrunk repro — is
/// byte-identical to the serial run at any thread count.  run_case is pure
/// and shrinking happens in the deterministic fold, which is what makes
/// that guarantee cheap rather than heroic.
[[nodiscard]] CampaignStats run_campaign(std::uint64_t base_seed,
                                         std::uint64_t n_cases, unsigned n_threads);

/// Full-control campaign: fan-out width, periodic metrics snapshots, and
/// the store-backed cross-check pass.  Snapshots are observational and the
/// store pass is serial in seed order, so campaign results stay
/// deterministic for a given (base_seed, n_cases, store contents).
[[nodiscard]] CampaignStats run_campaign(std::uint64_t base_seed,
                                         std::uint64_t n_cases,
                                         const CampaignOptions& options);

}  // namespace msys::fuzzing
