// The engine's unit of work: one (application, machine, scheduler kind,
// options) compilation, plus the pure function that executes it.
//
// Ownership: every model type downstream of a schedule holds non-owning
// pointers (DataSchedule -> KernelSchedule -> Application), which is fine
// for one-shot stack use but fatal for a cache whose entries outlive the
// call that created them.  CompileInput therefore carries the application
// and schedule by shared_ptr, and CompiledResult keeps a copy of that
// input: a cached result can be handed to any number of later callers —
// including callers holding a *different but content-identical* schedule —
// and its internal pointers stay valid for as long as anyone holds the
// result.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "msys/arch/m1.hpp"
#include "msys/common/cancel.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/fallback.hpp"
#include "msys/model/application.hpp"
#include "msys/model/schedule.hpp"

namespace msys::engine {

/// Which scheduling pipeline a job runs.
enum class SchedulerKind : std::uint8_t {
  kBasic,
  kDS,
  kCDS,
  /// The CDS -> DS -> Basic -> DS+split degradation chain.
  kFallback,
};

[[nodiscard]] std::string to_string(SchedulerKind kind);

/// Shared-ownership bundle of everything a compilation reads.
/// `sched` references `*app`; both stay alive while anyone holds the input
/// (or a CompiledResult derived from it).
struct CompileInput {
  std::shared_ptr<const model::Application> app;
  std::shared_ptr<const model::KernelSchedule> sched;
  arch::M1Config cfg;
};

/// Builds a CompileInput from an application and a cluster partition
/// (kernel ids, or kernel names as the appdsl parser produces them).
/// Throws msys::Error on an invalid partition, exactly like
/// model::KernelSchedule::from_partition.
[[nodiscard]] CompileInput make_input(model::Application app,
                                      std::vector<std::vector<KernelId>> partition,
                                      arch::M1Config cfg);
[[nodiscard]] CompileInput make_input(
    model::Application app, const std::vector<std::vector<std::string>>& partition_names,
    arch::M1Config cfg);

struct Job {
  CompileInput input;
  SchedulerKind kind{SchedulerKind::kFallback};
  /// kFallback uses all fields; kCDS uses `.cds`; Basic/DS ignore it.
  dsched::FallbackOptions options{};
};

/// Immutable result of one job; cache entries and batch results share it.
struct CompiledResult {
  /// Keep-alive for every non-owning pointer inside `outcome`.
  CompileInput input;
  dsched::ScheduleOutcome outcome;
  /// Analytic cost of the winning schedule (predict_cost is asserted
  /// cycle-exact against the simulator by the report/fuzz layers, so the
  /// engine does not re-simulate).  feasible == false when no rung fit or
  /// the context plan does not.
  dsched::CostBreakdown predicted;

  [[nodiscard]] bool feasible() const {
    return outcome.feasible() && predicted.feasible;
  }
};

/// Canonical 64-bit content key of a job: canonical schedule hash (see
/// msys/model/canonical.hpp) + machine config + scheduler kind + options.
/// Two jobs with equal keys are semantically identical compilations, no
/// matter how their applications were assembled.
[[nodiscard]] std::uint64_t cache_key(const Job& job);

/// Executes one job.  Pure (same job content => same result) and total:
/// infeasibility and internal scheduler errors come back as data in the
/// outcome's diagnostics ("schedule.infeasible" / "schedule.internal"),
/// never as an exception.  `cancel` is threaded into the schedulers'
/// cooperative checkpoints; a firing yields a result whose outcome carries
/// cancel_cause and a "schedule.timeout"/"schedule.cancelled" diagnostic.
[[nodiscard]] std::shared_ptr<const CompiledResult> compile_job(
    const Job& job, const CancelToken& cancel = {});

/// Synthesizes the structured result for a job whose compute never ran (or
/// whose waiter stopped waiting) because `cause` fired: infeasible,
/// outcome.cancel_cause set, one "schedule.timeout"/"schedule.cancelled"
/// diagnostic.  Used by BatchRunner for deadline expiry — failure as data.
[[nodiscard]] std::shared_ptr<const CompiledResult> make_cancelled_result(
    const Job& job, CancelCause cause);

}  // namespace msys::engine
