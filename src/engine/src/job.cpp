#include "msys/engine/job.hpp"

#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "msys/common/diagnostic.hpp"
#include "msys/common/error.hpp"
#include "msys/common/fault_injector.hpp"
#include "msys/common/hash.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/model/canonical.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"

namespace msys::engine {

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kBasic: return "Basic";
    case SchedulerKind::kDS: return "DS";
    case SchedulerKind::kCDS: return "CDS";
    case SchedulerKind::kFallback: return "fallback";
  }
  return "?";
}

CompileInput make_input(model::Application app,
                        std::vector<std::vector<KernelId>> partition,
                        arch::M1Config cfg) {
  CompileInput input;
  input.app = std::make_shared<const model::Application>(std::move(app));
  input.sched = std::make_shared<const model::KernelSchedule>(
      model::KernelSchedule::from_partition(*input.app, std::move(partition)));
  input.cfg = std::move(cfg);
  return input;
}

CompileInput make_input(model::Application app,
                        const std::vector<std::vector<std::string>>& partition_names,
                        arch::M1Config cfg) {
  std::vector<std::vector<KernelId>> partition;
  partition.reserve(partition_names.size());
  for (const std::vector<std::string>& cluster : partition_names) {
    std::vector<KernelId> ids;
    ids.reserve(cluster.size());
    for (const std::string& name : cluster) {
      const auto id = app.find_kernel(name);
      MSYS_REQUIRE(id.has_value(), "unknown kernel in partition: " + name);
      ids.push_back(*id);
    }
    partition.push_back(std::move(ids));
  }
  return make_input(std::move(app), std::move(partition), std::move(cfg));
}

std::uint64_t cache_key(const Job& job) {
  Hasher h;
  hash_append(h, "msys.engine.Job/v2");
  model::hash_append(h, *job.input.sched);
  arch::hash_append(h, job.input.cfg);
  hash_append(h, job.kind);
  hash_append(h, job.options.cds.ranking);
  hash_append(h, job.options.cds.joint_rf_retention);
  hash_append(h, job.options.enable_split_rung);
  // The fallback entry rung changes which scheduler runs: a degraded-mode
  // compile must never collide with (or poison) the full chain's cache
  // and store entries for the same schedule.
  hash_append(h, job.options.entry);
  return h.finalize();
}

namespace {

/// Wraps one non-chained scheduler run in the ScheduleOutcome shape so
/// that every SchedulerKind yields the same result type.
dsched::ScheduleOutcome run_single(const dsched::DataSchedulerBase& scheduler,
                                   const extract::ScheduleAnalysis& analysis,
                                   const arch::M1Config& cfg,
                                   const CancelToken& cancel) {
  dsched::ScheduleOutcome outcome;
  dsched::FallbackAttempt attempt;
  attempt.rung = scheduler.name();
  attempt.attempted = true;
  outcome.schedule = scheduler.schedule(analysis, cfg, cancel);
  attempt.succeeded = outcome.schedule.feasible;
  attempt.reason =
      attempt.succeeded ? "selected" : outcome.schedule.infeasible_reason;
  if (outcome.schedule.cancelled) {
    outcome.cancel_cause =
        cancel.cancelled() ? cancel.cause() : CancelCause::kCancelled;
    outcome.diagnostics.push_back(make_error(
        outcome.cancel_cause == CancelCause::kDeadline ? "schedule.timeout"
                                                       : "schedule.cancelled",
        scheduler.name() + " " + to_string(outcome.cancel_cause) + " on " + cfg.name));
  } else if (!attempt.succeeded) {
    outcome.diagnostics.push_back(make_error(
        "schedule.infeasible",
        scheduler.name() + " cannot run this workload on " + cfg.name + ": " +
            outcome.schedule.infeasible_reason));
  }
  outcome.attempts.push_back(std::move(attempt));
  return outcome;
}

}  // namespace

std::shared_ptr<const CompiledResult> compile_job(const Job& job,
                                                  const CancelToken& cancel) {
  MSYS_TRACE_SPAN(span, "engine.compile", "engine");
  if (span.active()) {
    span.add_arg(obs::arg("kind", to_string(job.kind)));
    span.add_arg(obs::arg("app", job.input.app->name()));
  }
  static obs::Counter& compiled = obs::counter("engine.jobs.compiled");
  static obs::Counter& infeasible = obs::counter("engine.jobs.infeasible");
  static obs::Counter& internal = obs::counter("engine.jobs.internal_error");
  static obs::Counter& stalled = obs::counter("engine.jobs.fault_stalled");
  compiled.add();

  // Fault site: a deterministic stall before scheduling, so deadline tests
  // can force a compile to outlive its budget without timing races.
  if (auto& faults = FaultInjector::global(); faults.armed()) {
    if (const std::uint64_t ms = faults.fire_param("engine.compile.stall"); ms != 0) {
      stalled.add();
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
  }

  auto result = std::make_shared<CompiledResult>();
  result->input = job.input;
  try {
    const extract::ScheduleAnalysis analysis(*job.input.sched,
                                             job.input.cfg.cross_set_reads);
    switch (job.kind) {
      case SchedulerKind::kBasic:
        result->outcome =
            run_single(dsched::BasicScheduler{}, analysis, job.input.cfg, cancel);
        break;
      case SchedulerKind::kDS:
        result->outcome =
            run_single(dsched::DataScheduler{}, analysis, job.input.cfg, cancel);
        break;
      case SchedulerKind::kCDS:
        result->outcome = run_single(dsched::CompleteDataScheduler{job.options.cds},
                                     analysis, job.input.cfg, cancel);
        break;
      case SchedulerKind::kFallback:
        result->outcome = dsched::schedule_with_fallback(analysis, job.input.cfg,
                                                         job.options, cancel);
        break;
    }
    if (result->outcome.feasible()) {
      const csched::ContextPlan ctx_plan = csched::ContextPlan::build(
          *job.input.sched, job.input.cfg.cm_capacity_words);
      result->predicted =
          dsched::predict_cost(result->outcome.schedule, job.input.cfg, ctx_plan);
      if (!result->predicted.feasible) {
        result->outcome.diagnostics.push_back(make_error(
            "schedule.infeasible", "context plan / cost model rejects the schedule: " +
                                       result->predicted.infeasible_reason));
      }
    } else {
      result->predicted.feasible = false;
      result->predicted.infeasible_reason = "no feasible schedule";
    }
  } catch (const std::exception& e) {
    // A scheduler invariant tripped: per-job failure data, never a batch
    // abort (mirrors the fallback chain's "schedule.internal" convention).
    result->outcome.schedule.feasible = false;
    result->predicted.feasible = false;
    result->predicted.infeasible_reason = e.what();
    result->outcome.diagnostics.push_back(
        make_error("schedule.internal", to_string(job.kind) + ": " + e.what()));
    internal.add();
  }
  if (!result->feasible()) infeasible.add();
  if (span.active()) {
    span.add_arg(obs::arg("feasible", std::string(result->feasible() ? "yes" : "no")));
    if (result->feasible()) {
      span.add_arg(obs::arg("rung", result->outcome.chosen_rung()));
      span.add_arg(obs::arg("cycles", result->predicted.total.value()));
    }
  }
  return result;
}

std::shared_ptr<const CompiledResult> make_cancelled_result(const Job& job,
                                                            CancelCause cause) {
  auto result = std::make_shared<CompiledResult>();
  result->input = job.input;
  result->outcome.cancel_cause =
      cause == CancelCause::kNone ? CancelCause::kCancelled : cause;
  result->outcome.schedule = dsched::cancelled_schedule(
      to_string(job.kind), *job.input.sched, to_string(result->outcome.cancel_cause));
  result->outcome.diagnostics.push_back(make_error(
      result->outcome.cancel_cause == CancelCause::kDeadline ? "schedule.timeout"
                                                             : "schedule.cancelled",
      to_string(job.kind) + " job " + to_string(result->outcome.cancel_cause) +
          " before a schedule was produced"));
  result->predicted.feasible = false;
  result->predicted.infeasible_reason = to_string(result->outcome.cancel_cause);
  return result;
}

}  // namespace msys::engine
