#include "msys/sim/check.hpp"

#include <utility>

#include "msys/codegen/program.hpp"
#include "msys/dsched/validate.hpp"

namespace msys::sim {

std::string ScheduleCheck::comparison() const {
  return "predicted " + predicted.summary() + " vs measured " + measured->summary();
}

std::string to_string(ScheduleCheck::Failure failure) {
  using Failure = ScheduleCheck::Failure;
  switch (failure) {
    case Failure::kNone: return "none";
    case Failure::kValidator: return "validator";
    case Failure::kSimulator: return "simulator";
    case Failure::kCycles: return "cycle mismatch";
    case Failure::kLoadWords: return "load-word mismatch";
    case Failure::kStoreWords: return "store-word mismatch";
    case Failure::kContextWords: return "context-word mismatch";
    case Failure::kRequests: return "request-count mismatch";
  }
  return "?";
}

ScheduleCheck check_schedule(const dsched::DataSchedule& schedule,
                             const extract::ScheduleAnalysis& analysis,
                             const arch::M1Config& cfg,
                             const csched::ContextPlan& ctx_plan) {
  using Failure = ScheduleCheck::Failure;
  ScheduleCheck check;
  if (schedule.feasible) {
    check.diagnostics = dsched::validate_schedule(schedule, analysis, cfg);
    if (!check.diagnostics.empty()) {
      check.failure = Failure::kValidator;
      return check;
    }
  }
  check.predicted = dsched::predict_cost(schedule, cfg, ctx_plan);
  if (!schedule.feasible || !check.predicted.feasible) return check;

  const codegen::ScheduleProgram program = codegen::generate(schedule, ctx_plan);
  Simulator simulator(cfg, ctx_plan);
  Simulator::Outcome outcome = simulator.try_run(program);
  if (!outcome.ok()) {
    check.failure = Failure::kSimulator;
    check.diagnostics = std::move(outcome.diagnostics);
    return check;
  }
  check.measured = std::move(outcome.report);
  const dsched::CostBreakdown& p = check.predicted;
  const SimReport& m = *check.measured;
  if (p.total != m.total) {
    check.failure = Failure::kCycles;
  } else if (p.data_words_loaded != m.data_words_loaded) {
    check.failure = Failure::kLoadWords;
  } else if (p.data_words_stored != m.data_words_stored) {
    check.failure = Failure::kStoreWords;
  } else if (p.context_words != m.context_words) {
    check.failure = Failure::kContextWords;
  } else if (p.dma_requests != m.dma_requests) {
    check.failure = Failure::kRequests;
  }
  return check;
}

}  // namespace msys::sim
