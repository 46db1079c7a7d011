#include "msys/search/anneal.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "msys/common/error.hpp"
#include "msys/common/rng.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/plan_cache.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"
#include "msys/sim/check.hpp"

namespace msys::search {

namespace {

using dsched::DriverOptions;
using dsched::DriverResult;
using dsched::PlanCache;
using extract::RetainedSet;
using extract::ScheduleAnalysis;
using model::KernelSchedule;

/// The mutable state a move operates on.  Everything else (extraction,
/// context plan, plan memo) is derived per partition and cached.
struct Skeleton {
  /// Cluster sizes along the incumbent schedule's flattened kernel order.
  std::vector<std::uint32_t> shape;
  std::uint32_t rf{1};
  RetainedSet retained;
};

/// Everything derived from one cluster partition.  Owned per island so
/// the non-thread-safe PlanCache (and its arena scratch) never crosses a
/// thread; the original partition's schedule/analysis are the caller's.
struct PartitionContext {
  std::unique_ptr<KernelSchedule> sched_owned;         // null for the original
  std::unique_ptr<ScheduleAnalysis> analysis_owned;    // null for the original
  const KernelSchedule* sched{nullptr};
  const ScheduleAnalysis* analysis{nullptr};
  csched::ContextPlan ctx_plan;
  std::unique_ptr<PlanCache> plans;
  /// Retention-candidate ids under this partition, in the analysis's
  /// ranking order (the toggle move indexes into this).
  std::vector<DataId> candidate_ids;
  std::uint32_t max_rf{0};
  /// False when the partition cannot execute at all (context plan
  /// infeasible or no RF fits) — moves into it are rejected.
  bool usable{false};
};

/// Uniform double in [0, 1) from one SplitMix64 draw (53 mantissa bits).
double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

enum class MoveKind { kRfStep, kRfJump, kToggle, kMerge, kSplit };

struct IslandOutcome {
  IslandStats stats;
  bool improved{false};
  bool cancelled{false};
  Skeleton best;
  std::uint64_t best_cycles{0};
};

/// Process-wide counter mirrors, fed in one batch per search (the
/// PlanCache flush pattern: no atomic RMW in the hot move loop).
struct SearchMetrics {
  obs::Counter& islands = obs::counter("search.islands");
  obs::Counter& moves = obs::counter("search.moves.proposed");
  obs::Counter& accepted = obs::counter("search.moves.accepted");
  obs::Counter& rejected = obs::counter("search.moves.rejected_infeasible");
  obs::Counter& verifications = obs::counter("search.sim_verifications");
  obs::Counter& sim_rejects = obs::counter("search.sim_rejects");
  obs::Counter& improvements = obs::counter("search.improvements");
  obs::Counter& partitions = obs::counter("search.partitions_explored");
  obs::Counter& partition_cap = obs::counter("search.partition_cap_rejects");

  static SearchMetrics& get() {
    static SearchMetrics metrics;
    return metrics;
  }
};

/// One island's whole world: builds partition contexts on demand and runs
/// the deterministic trajectory for its Rng stream.
class Island {
 public:
  Island(std::uint32_t index, const ScheduleAnalysis& analysis, const arch::M1Config& cfg,
         const AnnealOptions& options, const Skeleton& start,
         std::uint64_t greedy_cycles, const CancelToken& cancel)
      : index_(index),
        analysis_(analysis),
        cfg_(cfg),
        options_(options),
        start_(start),
        greedy_cycles_(greedy_cycles),
        cancel_(cancel),
        rng_(Rng(options.seed).split(index)) {}

  IslandOutcome run() {
    MSYS_TRACE_SPAN(span, "search.island", "search");
    IslandOutcome out;
    out.stats.island = index_;
    out.best = start_;
    out.best_cycles = greedy_cycles_;

    PartitionContext* ctx = get_context(start_.shape);
    if (ctx == nullptr || !ctx->usable) {
      // The greedy baseline planned on this very partition, so an unusable
      // start context cannot happen; bail defensively with "no change".
      finish_stats(out);
      return out;
    }

    Skeleton cur = start_;
    std::uint64_t cur_cycles = greedy_cycles_;
    if (const auto ev = eval(*ctx, cur.rf, cur.retained); ev.first) {
      cur_cycles = ev.second;
    }

    for (std::uint32_t step = 0; step < options_.budget; ++step) {
      if (cancel_.cancelled()) {
        out.cancelled = true;
        break;
      }
      // Geometric cooling — a pure function of (step, budget, t0, t1).
      const double frac =
          options_.budget > 1
              ? static_cast<double>(step) / static_cast<double>(options_.budget - 1)
              : 0.0;
      const double temp = options_.t0 * std::pow(options_.t1 / options_.t0, frac);

      const std::vector<std::pair<MoveKind, std::uint32_t>> avail = available_moves(*ctx, cur);
      if (avail.empty()) break;  // nothing left to mutate
      ++out.stats.moves;
      MSYS_TRACE_SPAN(move_span, "search.move", "search");

      Skeleton cand = cur;
      PartitionContext* cand_ctx = ctx;
      if (!apply_move(pick_move(avail), cand, &cand_ctx, &out.stats)) {
        ++out.stats.rejected_infeasible;
        continue;
      }

      const auto [ok, cand_cycles] = eval(*cand_ctx, cand.rf, cand.retained);
      if (!ok) {
        ++out.stats.rejected_infeasible;
        continue;
      }

      bool accept = cand_cycles <= cur_cycles;
      if (!accept) {
        const double delta = static_cast<double>(cand_cycles - cur_cycles);
        const double scale =
            static_cast<double>(greedy_cycles_) * std::max(temp, 1e-12);
        accept = to_unit(rng_.next_u64()) < std::exp(-delta / scale);
      }
      if (!accept) continue;
      ++out.stats.accepted;
      cur = std::move(cand);
      ctx = cand_ctx;
      cur_cycles = cand_cycles;

      if (cur_cycles < out.best_cycles) {
        ++out.stats.sim_verifications;
        if (verify_in_simulator(*ctx, cur, cur_cycles)) {
          out.best = cur;
          out.best_cycles = cur_cycles;
          ++out.stats.improvements;
        } else {
          ++out.stats.sim_rejects;
        }
      }
    }

    out.improved = out.best_cycles < greedy_cycles_;
    finish_stats(out);
    if (span.active()) {
      span.add_arg(obs::arg("island", std::uint64_t{index_}));
      span.add_arg(obs::arg("moves", std::uint64_t{out.stats.moves}));
      span.add_arg(obs::arg("accepted", std::uint64_t{out.stats.accepted}));
      span.add_arg(obs::arg("best_cycles", out.best_cycles));
    }
    return out;
  }

  /// Rebuilds the context for `shape` — used by the caller thread to
  /// re-materialize the winning skeleton (pure, so byte-identical to what
  /// the winning island computed).
  PartitionContext* materialize_context(const std::vector<std::uint32_t>& shape) {
    return get_context(shape);
  }

  [[nodiscard]] std::pair<bool, std::uint64_t> eval(PartitionContext& ctx, std::uint32_t rf,
                                                    const RetainedSet& retained) {
    MSYS_TRACE_SPAN(span, "search.recost", "search");
    DriverOptions opt;
    opt.release_at_last_use = true;
    opt.rf = rf;
    opt.retained = retained;
    const DriverResult& result = ctx.plans->plan(opt);
    if (!result.ok) return {false, 0};
    const dsched::CostBreakdown cost =
        dsched::predict_cost(*ctx.sched, rf, result.round_plan, cfg_, ctx.ctx_plan);
    if (!cost.feasible) return {false, 0};
    return {true, cost.total.value()};
  }

  /// Packs the (already planned) skeleton into a full DataSchedule.
  [[nodiscard]] dsched::DataSchedule pack(PartitionContext& ctx, const Skeleton& sk) {
    DriverOptions opt;
    opt.release_at_last_use = true;
    opt.rf = sk.rf;
    opt.retained = sk.retained;
    DriverResult result = ctx.plans->plan(opt);  // memo hit: eval planned it
    MSYS_REQUIRE(result.ok, "packing a skeleton that evaluated feasible must plan");
    dsched::DataSchedule out;
    out.scheduler_name = "CDS+anneal";
    out.sched = ctx.sched;
    out.feasible = true;
    out.rf = sk.rf;
    out.retained = sk.retained;
    out.round_plan = std::move(result.round_plan);
    out.placements = std::move(result.placements);
    out.alloc_summary = result.summary;
    return out;
  }

 private:
  void finish_stats(IslandOutcome& out) {
    out.stats.best_cycles = out.best_cycles;
    out.stats.partitions_explored = static_cast<std::uint32_t>(contexts_.size());
    for (const auto& entry : contexts_) {
      const PlanCache::Stats& ps = entry.second->plans->stats();
      out.stats.plan_hits += ps.hits;
      out.stats.plan_misses += ps.misses;
      out.stats.plan_evictions += ps.evictions;
    }
  }

  /// Moves applicable to `cur`, with fixed weights, in a fixed order (the
  /// weighted pick below consumes exactly one rng draw either way).
  [[nodiscard]] std::vector<std::pair<MoveKind, std::uint32_t>> available_moves(
      const PartitionContext& ctx, const Skeleton& cur) const {
    std::vector<std::pair<MoveKind, std::uint32_t>> avail;
    if (ctx.max_rf > 1) {
      avail.emplace_back(MoveKind::kRfStep, 3);
      avail.emplace_back(MoveKind::kRfJump, 2);
    }
    if (!ctx.candidate_ids.empty()) avail.emplace_back(MoveKind::kToggle, 4);
    if (options_.explore_partitions) {
      if (cur.shape.size() > 1) avail.emplace_back(MoveKind::kMerge, 1);
      for (std::uint32_t size : cur.shape) {
        if (size > 1) {
          avail.emplace_back(MoveKind::kSplit, 1);
          break;
        }
      }
    }
    return avail;
  }

  [[nodiscard]] MoveKind pick_move(
      const std::vector<std::pair<MoveKind, std::uint32_t>>& avail) {
    std::uint32_t total = 0;
    for (const auto& [kind, weight] : avail) total += weight;
    std::uint64_t r = rng_.uniform(0, total - 1);
    for (const auto& [kind, weight] : avail) {
      if (r < weight) return kind;
      r -= weight;
    }
    return avail.back().first;  // unreachable
  }

  /// Mutates `cand` in place; for partition moves rebinds *ctx to the new
  /// partition's context and re-clamps RF / re-masks the retained set.
  /// Returns false when the move is rejected (unusable or capped target
  /// partition); `stats` records why.
  bool apply_move(MoveKind kind, Skeleton& cand, PartitionContext** ctx,
                  IslandStats* stats) {
    switch (kind) {
      case MoveKind::kRfStep: {
        const bool up = rng_.chance(1, 2);
        cand.rf = up ? std::min(cand.rf + 1, (*ctx)->max_rf) : std::max(cand.rf, 2U) - 1;
        return true;
      }
      case MoveKind::kRfJump: {
        cand.rf = static_cast<std::uint32_t>(rng_.uniform(1, (*ctx)->max_rf));
        return true;
      }
      case MoveKind::kToggle: {
        const std::vector<DataId>& ids = (*ctx)->candidate_ids;
        const DataId d = ids[rng_.uniform(0, ids.size() - 1)];
        if (!cand.retained.erase(d)) cand.retained.insert(d);
        return true;
      }
      case MoveKind::kMerge: {
        const std::size_t b = rng_.uniform(0, cand.shape.size() - 2);
        cand.shape[b] += cand.shape[b + 1];
        cand.shape.erase(cand.shape.begin() + static_cast<std::ptrdiff_t>(b + 1));
        return rebind_partition(cand, ctx, stats);
      }
      case MoveKind::kSplit: {
        std::vector<std::size_t> splittable;
        for (std::size_t i = 0; i < cand.shape.size(); ++i) {
          if (cand.shape[i] > 1) splittable.push_back(i);
        }
        const std::size_t i = splittable[rng_.uniform(0, splittable.size() - 1)];
        const std::uint32_t left =
            static_cast<std::uint32_t>(rng_.uniform(1, cand.shape[i] - 1));
        const std::uint32_t right = cand.shape[i] - left;
        cand.shape[i] = left;
        cand.shape.insert(cand.shape.begin() + static_cast<std::ptrdiff_t>(i + 1), right);
        return rebind_partition(cand, ctx, stats);
      }
    }
    return false;  // unreachable
  }

  bool rebind_partition(Skeleton& cand, PartitionContext** ctx, IslandStats* stats) {
    PartitionContext* next = get_context(cand.shape);
    if (next == nullptr) {
      ++stats->partition_cap_rejects;
      return false;
    }
    if (!next->usable) return false;
    *ctx = next;
    cand.rf = std::min(std::max(cand.rf, 1U), next->max_rf);
    // The planning walk ignores retained ids that are not candidates, but
    // the validator (rightly) rejects them — and keeping stale ids in the
    // key would also fragment the plan memo.  Mask against the new
    // partition's candidate set.
    RetainedSet masked;
    for (const DataId d : cand.retained) {
      if (next->analysis->is_candidate(d)) masked.insert(d);
    }
    cand.retained = std::move(masked);
    return true;
  }

  /// Context for `shape`, building (and caching) it on first use; nullptr
  /// when the partition cap is reached.  Keyed by the shape vector itself:
  /// deterministic, collision-free.
  PartitionContext* get_context(const std::vector<std::uint32_t>& shape) {
    if (const auto it = contexts_.find(shape); it != contexts_.end()) {
      return it->second.get();
    }
    if (contexts_.size() >= options_.max_partitions) return nullptr;

    auto ctx = std::make_unique<PartitionContext>();
    if (shape == original_shape()) {
      ctx->sched = &analysis_.sched();
      ctx->analysis = &analysis_;
    } else {
      const model::Application& app = analysis_.app();
      const std::vector<KernelId>& order = analysis_.sched().flattened_order();
      std::vector<std::vector<KernelId>> partition;
      partition.reserve(shape.size());
      std::size_t pos = 0;
      for (const std::uint32_t size : shape) {
        partition.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(pos),
                               order.begin() + static_cast<std::ptrdiff_t>(pos + size));
        pos += size;
      }
      MSYS_REQUIRE(pos == order.size(), "shape must cover every kernel");
      // Any composition of the flattened order is dependency-valid: the
      // flattened order of a valid schedule is a topological order.
      ctx->sched_owned =
          std::make_unique<KernelSchedule>(KernelSchedule::from_partition(app, partition));
      ctx->analysis_owned =
          std::make_unique<ScheduleAnalysis>(*ctx->sched_owned, cfg_.cross_set_reads);
      ctx->sched = ctx->sched_owned.get();
      ctx->analysis = ctx->analysis_owned.get();
    }
    ctx->ctx_plan = csched::ContextPlan::build(*ctx->sched, cfg_.cm_capacity_words);
    ctx->plans = std::make_unique<PlanCache>(*ctx->analysis, cfg_.fb_set_size,
                                             options_.plan_cache_capacity);
    for (const extract::RetentionCandidate& cand : ctx->analysis->retention_candidates()) {
      ctx->candidate_ids.push_back(cand.data);
    }
    if (ctx->ctx_plan.feasible()) {
      DriverOptions base;
      base.release_at_last_use = true;
      ctx->max_rf = dsched::compute_max_rf(*ctx->analysis, cfg_, base, *ctx->plans);
    }
    ctx->usable = ctx->ctx_plan.feasible() && ctx->max_rf > 0;
    return contexts_.emplace(shape, std::move(ctx)).first->second.get();
  }

  [[nodiscard]] std::vector<std::uint32_t> original_shape() const {
    std::vector<std::uint32_t> shape;
    shape.reserve(analysis_.sched().cluster_count());
    for (const model::Cluster& c : analysis_.sched().clusters()) {
      shape.push_back(static_cast<std::uint32_t>(c.kernels.size()));
    }
    return shape;
  }

 public:
  /// The simulator cross-check: an accepted improvement only becomes the
  /// island best when the schedule oracle finds it clean and its predicted
  /// cycles are the ones the search costed.
  bool verify_in_simulator(PartitionContext& ctx, const Skeleton& sk,
                           std::uint64_t predicted_cycles) {
    MSYS_TRACE_SPAN(span, "search.verify", "search");
    const sim::ScheduleCheck check =
        sim::check_schedule(pack(ctx, sk), *ctx.analysis, cfg_, ctx.ctx_plan);
    return check.ok() && check.predicted.total.value() == predicted_cycles;
  }

 private:
  const std::uint32_t index_;
  const ScheduleAnalysis& analysis_;
  const arch::M1Config& cfg_;
  const AnnealOptions& options_;
  const Skeleton& start_;
  const std::uint64_t greedy_cycles_;
  const CancelToken& cancel_;
  Rng rng_;
  std::map<std::vector<std::uint32_t>, std::unique_ptr<PartitionContext>> contexts_;
};

}  // namespace

AnnealResult anneal_schedule(const ScheduleAnalysis& analysis, const arch::M1Config& cfg,
                             const AnnealOptions& options, engine::ThreadPool* pool,
                             const CancelToken& cancel) {
  MSYS_TRACE_SPAN(span, "search.anneal", "search");
  AnnealResult result;

  // Greedy CDS baseline: the floor the search must never fall below.
  const dsched::CompleteDataScheduler greedy_scheduler(options.cds);
  result.greedy = greedy_scheduler.schedule(analysis, cfg, cancel);
  const csched::ContextPlan ctx_plan =
      csched::ContextPlan::build(analysis.sched(), cfg.cm_capacity_words);
  result.greedy_predicted = dsched::predict_cost(result.greedy, cfg, ctx_plan);
  result.schedule = result.greedy;
  result.predicted = result.greedy_predicted;
  result.cancelled = result.greedy.cancelled;
  if (!result.greedy.feasible || !result.greedy_predicted.feasible ||
      result.greedy.cancelled) {
    return result;  // nothing to improve on (or the budget is already gone)
  }

  Skeleton start;
  start.shape.reserve(analysis.sched().cluster_count());
  for (const model::Cluster& c : analysis.sched().clusters()) {
    start.shape.push_back(static_cast<std::uint32_t>(c.kernels.size()));
  }
  start.rf = result.greedy.rf;
  start.retained = result.greedy.retained;
  const std::uint64_t greedy_cycles = result.greedy_predicted.total.value();

  const std::uint32_t n_islands = std::max(options.islands, 1U);
  std::vector<IslandOutcome> outcomes(n_islands);

  // Each island is a pure function of (options, analysis, cfg, island
  // index); outcomes land at their island's slot, so the merged result is
  // independent of pool size and scheduling.
  engine::run_indexed(pool, n_islands, [&](std::size_t i) {
    Island island(static_cast<std::uint32_t>(i), analysis, cfg, options, start,
                  greedy_cycles, cancel);
    outcomes[i] = island.run();
  });

  // Deterministic merge: strictly fewer predicted cycles wins; ties go to
  // the lowest island index.
  result.islands.reserve(n_islands);
  SearchMetrics& metrics = SearchMetrics::get();
  metrics.islands.add(n_islands);
  const IslandOutcome* winner = nullptr;
  for (const IslandOutcome& out : outcomes) {
    result.islands.push_back(out.stats);
    result.cancelled = result.cancelled || out.cancelled;
    metrics.moves.add(out.stats.moves);
    metrics.accepted.add(out.stats.accepted);
    metrics.rejected.add(out.stats.rejected_infeasible);
    metrics.verifications.add(out.stats.sim_verifications);
    metrics.sim_rejects.add(out.stats.sim_rejects);
    metrics.improvements.add(out.stats.improvements);
    metrics.partitions.add(out.stats.partitions_explored);
    metrics.partition_cap.add(out.stats.partition_cap_rejects);
    if (out.improved && (winner == nullptr || out.best_cycles < winner->best_cycles)) {
      winner = &out;
    }
  }
  if (result.cancelled || winner == nullptr) {
    // Cancelled searches return the greedy baseline even when an island
    // already improved: how far each island got depends on wall-clock, and
    // a timing-dependent "best so far" would break the determinism
    // contract.  The greedy floor is always a correct answer.
    return result;
  }

  // Re-materialize the winning skeleton on this thread (pure recompute of
  // what the winning island planned) and re-verify it end to end.
  Island rebuilder(winner->stats.island, analysis, cfg, options, start, greedy_cycles,
                   CancelToken{});
  PartitionContext* ctx = rebuilder.materialize_context(winner->best.shape);
  MSYS_REQUIRE(ctx != nullptr && ctx->usable, "winning partition must rebuild");
  const auto [ok, cycles] = rebuilder.eval(*ctx, winner->best.rf, winner->best.retained);
  MSYS_REQUIRE(ok && cycles == winner->best_cycles,
               "re-materialized winner must reproduce the island's cost");
  MSYS_REQUIRE(rebuilder.verify_in_simulator(*ctx, winner->best, cycles),
               "re-materialized winner must pass the simulator cross-check");
  result.schedule = rebuilder.pack(*ctx, winner->best);
  if (ctx->sched_owned != nullptr) {
    result.owned_sched = std::move(ctx->sched_owned);
    // pack() pointed schedule.sched at the context's schedule; keep that
    // pointer alive past the context by adopting ownership here.
    result.schedule.sched = result.owned_sched.get();
  }
  const csched::ContextPlan winner_plan =
      csched::ContextPlan::build(*result.schedule.sched, cfg.cm_capacity_words);
  result.predicted = dsched::predict_cost(result.schedule, cfg, winner_plan);
  MSYS_REQUIRE(result.predicted.feasible && result.predicted.total.value() == cycles,
               "winner cost must survive re-materialization");
  result.improved = true;
  result.winner_island = winner->stats.island;
  if (span.active()) {
    span.add_arg(obs::arg("greedy_cycles", greedy_cycles));
    span.add_arg(obs::arg("annealed_cycles", result.annealed_cycles()));
    span.add_arg(obs::arg("winner_island", std::uint64_t{result.winner_island}));
  }
  return result;
}

}  // namespace msys::search

namespace msys::dsched {

search::AnnealResult schedule_annealed(const extract::ScheduleAnalysis& analysis,
                                       const arch::M1Config& cfg,
                                       const search::AnnealOptions& options,
                                       engine::ThreadPool* pool,
                                       const CancelToken& cancel) {
  return search::anneal_schedule(analysis, cfg, options, pool, cancel);
}

}  // namespace msys::dsched
