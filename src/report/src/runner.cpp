#include "msys/report/runner.hpp"

#include <utility>

#include "msys/common/error.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/sim/check.hpp"

namespace msys::report {

Cycles SchedulerOutcome::cycles() const {
  MSYS_REQUIRE(feasible(), "no cycle count for an infeasible schedule");
  return predicted.total;
}

std::optional<double> ExperimentResult::ds_improvement() const {
  if (!basic.feasible() || !ds.feasible()) return std::nullopt;
  const double tb = static_cast<double>(basic.cycles().value());
  const double td = static_cast<double>(ds.cycles().value());
  return (tb - td) / tb;
}

std::optional<double> ExperimentResult::cds_improvement() const {
  if (!basic.feasible() || !cds.feasible()) return std::nullopt;
  const double tb = static_cast<double>(basic.cycles().value());
  const double tc = static_cast<double>(cds.cycles().value());
  return (tb - tc) / tb;
}

SizeWords ExperimentResult::dt_words_avoided_per_iteration() const {
  if (!basic.feasible() || !cds.feasible()) return SizeWords::zero();
  const std::uint64_t iterations = total_iterations;
  const std::uint64_t b = basic.predicted.data_words_total();
  const std::uint64_t c = cds.predicted.data_words_total();
  return SizeWords{(b > c ? b - c : 0) / iterations};
}

namespace {

/// What run_scheduler and run_with_fallback share: the schedule oracle,
/// with any broken check thrown as msys::Error.  `who` names the plan.
sim::ScheduleCheck checked(const dsched::DataSchedule& schedule,
                           const extract::ScheduleAnalysis& analysis,
                           const arch::M1Config& cfg, const csched::ContextPlan& ctx_plan,
                           const std::string& who) {
  using Failure = sim::ScheduleCheck::Failure;
  sim::ScheduleCheck check = sim::check_schedule(schedule, analysis, cfg, ctx_plan);
  MSYS_REQUIRE(check.failure != Failure::kValidator,
               who + " produced an invalid plan: " + check.diagnostics.front().message);
  // A simulator fault carries the simulator's own located message.
  if (check.failure == Failure::kSimulator) raise(check.diagnostics.front().message);
  MSYS_REQUIRE(check.failure == Failure::kNone,
               to_string(check.failure) + ": " + who + " on " +
                   analysis.sched().app().name() + ": " + check.comparison());
  return check;
}

}  // namespace

SchedulerOutcome run_scheduler(const dsched::DataSchedulerBase& scheduler,
                               const model::KernelSchedule& sched,
                               const arch::M1Config& cfg) {
  const extract::ScheduleAnalysis analysis(sched, cfg.cross_set_reads);
  const csched::ContextPlan ctx_plan =
      csched::ContextPlan::build(sched, cfg.cm_capacity_words);

  SchedulerOutcome outcome;
  outcome.scheduler = scheduler.name();
  outcome.schedule = scheduler.schedule(analysis, cfg);
  sim::ScheduleCheck check =
      checked(outcome.schedule, analysis, cfg, ctx_plan, scheduler.name());
  outcome.predicted = std::move(check.predicted);
  outcome.measured = std::move(check.measured);
  return outcome;
}

FallbackRunResult run_with_fallback(const model::KernelSchedule& sched,
                                    const arch::M1Config& cfg) {
  const extract::ScheduleAnalysis analysis(sched, cfg.cross_set_reads);
  const csched::ContextPlan ctx_plan =
      csched::ContextPlan::build(sched, cfg.cm_capacity_words);

  FallbackRunResult result;
  result.outcome = dsched::schedule_with_fallback(analysis, cfg);
  if (!result.outcome.feasible()) return result;
  sim::ScheduleCheck check = checked(result.outcome.schedule, analysis, cfg, ctx_plan,
                                     result.outcome.chosen_rung() + " (via fallback)");
  result.predicted = std::move(check.predicted);
  result.measured = std::move(check.measured);
  return result;
}

ExperimentResult run_experiment(std::string name, const model::KernelSchedule& sched,
                                const arch::M1Config& cfg) {
  ExperimentResult result;
  result.name = std::move(name);
  result.cfg = cfg;
  result.n_clusters = static_cast<std::uint32_t>(sched.cluster_count());
  result.max_kernels_per_cluster = sched.max_kernels_per_cluster();
  result.total_iterations = sched.app().total_iterations();
  result.data_size_per_iteration = sched.app().total_data_size();

  result.basic = run_scheduler(dsched::BasicScheduler{}, sched, cfg);
  result.ds = run_scheduler(dsched::DataScheduler{}, sched, cfg);
  result.cds = run_scheduler(dsched::CompleteDataScheduler{}, sched, cfg);
  return result;
}

std::vector<ExperimentResult> run_all(const std::vector<ExperimentSpec>& specs,
                                      engine::ThreadPool* pool) {
  std::vector<ExperimentResult> results(specs.size());
  engine::run_indexed(pool, specs.size(), [&](std::size_t i) {
    const ExperimentSpec& spec = specs[i];
    MSYS_REQUIRE(spec.sched != nullptr, "ExperimentSpec without a schedule");
    results[i] = run_experiment(spec.name, *spec.sched, spec.cfg);
  });
  return results;
}

}  // namespace msys::report
