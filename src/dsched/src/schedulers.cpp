#include "msys/dsched/schedulers.hpp"

#include <algorithm>

#include "msys/common/error.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/plan_cache.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"

namespace msys::dsched {

using extract::RetentionCandidate;
using extract::ScheduleAnalysis;

namespace {

/// Packs a successful driver result into a DataSchedule.
DataSchedule finish(std::string name, const ScheduleAnalysis& analysis,
                    const DriverOptions& options, DriverResult result) {
  DataSchedule out;
  out.scheduler_name = std::move(name);
  out.sched = &analysis.sched();
  out.feasible = true;
  out.rf = options.rf;
  out.retained = options.retained;
  out.round_plan = std::move(result.round_plan);
  out.placements = std::move(result.placements);
  out.alloc_summary = result.summary;
  return out;
}

}  // namespace

std::uint32_t compute_max_rf(const ScheduleAnalysis& analysis, const arch::M1Config& cfg,
                             DriverOptions base_options, const CancelToken& cancel) {
  PlanCache plans(analysis, cfg.fb_set_size);
  return compute_max_rf(analysis, cfg, std::move(base_options), plans, cancel);
}

std::uint32_t compute_max_rf(const ScheduleAnalysis& analysis,
                             const arch::M1Config& /*cfg: PlanCache carries fb_set_size*/,
                             DriverOptions base_options, PlanCache& plans,
                             const CancelToken& cancel) {
  const std::uint32_t max_rf = analysis.app().total_iterations();
  if (max_rf == 0) return 0;
  auto feasible = [&](std::uint32_t rf) {
    base_options.rf = rf;
    return plans.plan(base_options).ok;
  };
  // RF feasibility is monotone: RF+1 keeps strictly more instances live at
  // every point of the walk than RF, so once a walk fails every larger RF
  // fails too (the linear scan this replaces stopped at the first failure
  // for the same reason; tests/dsched/rf_search_property_test.cpp pins the
  // equivalence over the fuzz corpus).  Exponential probing finds an
  // infeasible upper bound in O(log max_rf) walks and the binary search
  // pins the largest feasible RF in O(log max_rf) more — against the
  // seed's O(max_rf) walks per call.
  if (!feasible(1)) return 0;
  std::uint64_t lo = 1;                                    // known feasible
  std::uint64_t hi = static_cast<std::uint64_t>(max_rf) + 1;  // first known-bad
  for (std::uint64_t probe = 2; probe < hi; probe *= 2) {
    // Cancellation checkpoint: `lo` is always a *verified* feasible RF, so
    // abandoning the search here returns correct (merely suboptimal) data.
    if (cancel.cancelled()) return static_cast<std::uint32_t>(lo);
    if (feasible(static_cast<std::uint32_t>(probe))) {
      lo = probe;
    } else {
      hi = probe;
      break;
    }
  }
  while (hi - lo > 1) {
    if (cancel.cancelled()) return static_cast<std::uint32_t>(lo);
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (feasible(static_cast<std::uint32_t>(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return static_cast<std::uint32_t>(lo);
}

namespace {

/// The paper raises RF as high as the FB allows because each step divides
/// the context reloads.  When the CM is large enough to make contexts
/// persistent there is nothing to amortise and a high RF only lengthens
/// the serial prologue, so instead of blindly maximising we evaluate the
/// predicted cost of every feasible RF and keep the cheapest (ties go to
/// the larger RF, the paper's preference).
std::uint32_t pick_rf_by_cost(const ScheduleAnalysis& analysis, const arch::M1Config& cfg,
                              DriverOptions options, std::uint32_t max_feasible_rf,
                              PlanCache& plans, const CancelToken& cancel = {}) {
  MSYS_TRACE_SPAN(span, "dsched.pick_rf", "dsched");
  static obs::Counter& rf_evaluated = obs::counter("dsched.rf.candidates_evaluated");
  const csched::ContextPlan ctx_plan =
      csched::ContextPlan::build(analysis.sched(), cfg.cm_capacity_words);
  if (!ctx_plan.feasible()) return max_feasible_rf;
  std::uint32_t best_rf = 0;
  Cycles best_cost = Cycles::max();
  for (std::uint32_t rf = 1; rf <= max_feasible_rf; ++rf) {
    // Checkpoint per candidate: every RF already costed is usable, so the
    // scan degrades to "best of what was evaluated".
    if (cancel.cancelled()) break;
    options.rf = rf;
    DriverResult result = plans.plan(options);
    MSYS_REQUIRE(result.ok, "RF below the feasible maximum must plan");
    DataSchedule tentative = finish("tentative", analysis, options, std::move(result));
    const CostBreakdown cost = predict_cost(tentative, cfg, ctx_plan);
    rf_evaluated.add();
    if (cost.feasible && (best_rf == 0 || cost.total <= best_cost)) {
      best_cost = cost.total;
      best_rf = rf;
    }
  }
  const std::uint32_t chosen = best_rf == 0 ? max_feasible_rf : best_rf;
  if (span.active()) {
    span.add_arg(obs::arg("max_feasible_rf", std::uint64_t{max_feasible_rf}));
    span.add_arg(obs::arg("chosen_rf", std::uint64_t{chosen}));
  }
  return chosen;
}

}  // namespace

DriverOptions rung_options(std::string_view rung) {
  DriverOptions options;
  if (rung == "Basic") {
    options.release_at_last_use = false;  // no replacement within a cluster
  } else if (rung == "DS+split") {
    options.regularity_hints = false;
    options.fit = alloc::FitPolicy::kBestFit;
    options.allow_split = true;
  }
  return options;
}

DataSchedule BasicScheduler::schedule(const ScheduleAnalysis& analysis,
                                      const arch::M1Config& cfg,
                                      const CancelToken& cancel) const {
  MSYS_TRACE_SPAN(span, "dsched.basic", "dsched");
  obs::counter("dsched.runs.basic").add();
  if (cancel.cancelled()) {
    return cancelled_schedule(name(), analysis.sched(), cancel.reason());
  }
  const DriverOptions options = rung_options(name());
  DriverResult result = plan_round(analysis, cfg.fb_set_size, options);
  if (!result.ok) return infeasible(name(), analysis.sched(), result.fail_reason);
  return finish(name(), analysis, options, std::move(result));
}

DataSchedule DataScheduler::schedule(const ScheduleAnalysis& analysis,
                                     const arch::M1Config& cfg,
                                     const CancelToken& cancel) const {
  MSYS_TRACE_SPAN(span, "dsched.ds", "dsched");
  obs::counter("dsched.runs.ds").add();
  if (cancel.cancelled()) {
    return cancelled_schedule(name(), analysis.sched(), cancel.reason());
  }
  DriverOptions options = rung_options(name());
  PlanCache plans(analysis, cfg.fb_set_size);
  const std::uint32_t max_rf = compute_max_rf(analysis, cfg, options, plans, cancel);
  if (max_rf == 0) {
    if (cancel.cancelled()) {
      return cancelled_schedule(name(), analysis.sched(), cancel.reason());
    }
    return infeasible(name(), analysis.sched(),
                      "a cluster does not fit the FB set even at RF=1");
  }
  options.rf = pick_rf_by_cost(analysis, cfg, options, max_rf, plans, cancel);
  if (cancel.cancelled()) {
    return cancelled_schedule(name(), analysis.sched(), cancel.reason());
  }
  if (span.active()) span.add_arg(obs::arg("rf", std::uint64_t{options.rf}));
  DriverResult result = plans.plan(options);  // memo hit from the RF scan
  MSYS_REQUIRE(result.ok, "re-planning at the feasible RF must succeed");
  return finish(name(), analysis, options, std::move(result));
}

DataSchedule CompleteDataScheduler::schedule(const ScheduleAnalysis& analysis,
                                             const arch::M1Config& cfg,
                                             const CancelToken& cancel) const {
  MSYS_TRACE_SPAN(span, "dsched.cds", "dsched");
  obs::counter("dsched.runs.cds").add();
  if (cancel.cancelled()) {
    return cancelled_schedule(name(), analysis.sched(), cancel.reason());
  }
  DriverOptions options = rung_options(name());
  PlanCache plans(analysis, cfg.fb_set_size);
  const std::uint32_t max_rf = compute_max_rf(analysis, cfg, options, plans, cancel);
  if (max_rf == 0) {
    if (cancel.cancelled()) {
      return cancelled_schedule(name(), analysis.sched(), cancel.reason());
    }
    return infeasible(name(), analysis.sched(),
                      "a cluster does not fit the FB set even at RF=1");
  }

  // Rank the retention candidates.
  std::vector<RetentionCandidate> candidates = analysis.retention_candidates();
  switch (options_.ranking) {
    case Options::Ranking::kTimeFactor:
      break;  // already sorted by descending TF
    case Options::Ranking::kDeclarationOrder:
      std::sort(candidates.begin(), candidates.end(),
                [](const RetentionCandidate& a, const RetentionCandidate& b) {
                  return a.data < b.data;
                });
      break;
    case Options::Ranking::kSizeFirst:
      std::sort(candidates.begin(), candidates.end(),
                [&](const RetentionCandidate& a, const RetentionCandidate& b) {
                  const SizeWords sa = analysis.app().data(a.data).size;
                  const SizeWords sb = analysis.app().data(b.data).size;
                  if (sa != sb) return sa > sb;
                  return a.data < b.data;
                });
      break;
    case Options::Ranking::kDensity:
      // Words saved per word of FB space occupied == transfers_avoided.
      std::sort(candidates.begin(), candidates.end(),
                [](const RetentionCandidate& a, const RetentionCandidate& b) {
                  if (a.transfers_avoided != b.transfers_avoided) {
                    return a.transfers_avoided > b.transfers_avoided;
                  }
                  if (a.tf != b.tf) return a.tf > b.tf;
                  return a.data < b.data;
                });
      break;
  }

  // Greedy §4 selection at a fixed RF: keep a candidate iff every cluster
  // still fits (the Figure-4 walk is the ground-truth fit check).
  static obs::Counter& retention_kept = obs::counter("dsched.retention.kept");
  static obs::Counter& retention_rejected = obs::counter("dsched.retention.rejected");
  auto retain_at_rf = [&](std::uint32_t rf) -> std::pair<DriverOptions, DriverResult> {
    DriverOptions opt = options;
    opt.rf = rf;
    opt.retained.clear();
    MSYS_REQUIRE(plans.plan(opt).ok, "re-planning at a feasible RF must succeed");
    for (const RetentionCandidate& cand : candidates) {
      // Checkpoint per retention candidate: the set kept so far already
      // re-planned feasibly, so breaking leaves `opt` consistent; the
      // caller's checkpoint turns the firing into a cancelled result.
      if (cancel.cancelled()) break;
      opt.retained.insert(cand.data);
      if (plans.plan(opt).ok) {
        retention_kept.add();
        MSYS_TRACE_INSTANT("dsched.retain.keep", "dsched",
                           obs::arg("data", std::uint64_t{cand.data.index()}),
                           obs::arg("tf", cand.tf), obs::arg("rf", std::uint64_t{rf}));
      } else {
        opt.retained.erase(cand.data);
        retention_rejected.add();
        MSYS_TRACE_INSTANT("dsched.retain.reject", "dsched",
                           obs::arg("data", std::uint64_t{cand.data.index()}),
                           obs::arg("tf", cand.tf), obs::arg("rf", std::uint64_t{rf}));
      }
    }
    // Copy the winning walk once from the memo (every accepted set above
    // was planned and cached) — the previous code copied the full
    // DriverResult after *every* accepted candidate, which dominated cold
    // compiles on retention-heavy workloads.
    return {opt, plans.plan(opt)};
  };

  if (!options_.joint_rf_retention) {
    // §4: secure the cheapest RF first (context-transfer minimisation
    // dominates), then spend remaining FB space on retention.
    auto [opt, best] =
        retain_at_rf(pick_rf_by_cost(analysis, cfg, options, max_rf, plans, cancel));
    if (cancel.cancelled()) {
      return cancelled_schedule(name(), analysis.sched(), cancel.reason());
    }
    return finish(name(), analysis, opt, std::move(best));
  }

  // Extension: jointly pick (RF, retained set) by predicted cost.
  const csched::ContextPlan ctx_plan =
      csched::ContextPlan::build(analysis.sched(), cfg.cm_capacity_words);
  std::optional<DataSchedule> best_schedule;
  Cycles best_cost = Cycles::max();
  for (std::uint32_t rf = 1; rf <= max_rf; ++rf) {
    if (cancel.cancelled()) break;
    auto [opt, result] = retain_at_rf(rf);
    DataSchedule candidate = finish(name(), analysis, opt, std::move(result));
    if (!ctx_plan.feasible()) {
      // No cost model available: fall back to the paper ordering (largest
      // RF wins) by keeping the last feasible candidate.
      best_schedule = std::move(candidate);
      continue;
    }
    const CostBreakdown cost = predict_cost(candidate, cfg, ctx_plan);
    if (cost.feasible && (!best_schedule || cost.total <= best_cost)) {
      best_cost = cost.total;
      best_schedule = std::move(candidate);
    }
  }
  if (cancel.cancelled()) {
    return cancelled_schedule(name(), analysis.sched(), cancel.reason());
  }
  MSYS_REQUIRE(best_schedule.has_value(), "at least RF=1 must produce a schedule");
  return std::move(*best_schedule);
}

std::vector<std::unique_ptr<DataSchedulerBase>> all_schedulers() {
  std::vector<std::unique_ptr<DataSchedulerBase>> out;
  out.push_back(std::make_unique<BasicScheduler>());
  out.push_back(std::make_unique<DataScheduler>());
  out.push_back(std::make_unique<CompleteDataScheduler>());
  return out;
}

}  // namespace msys::dsched
