// The schedule oracle: the one place that checks a data schedule
// structurally and checks the analytic cost model against the event
// simulator.  The Table 1 / Figure 6 runner, the fuzz harness and the
// annealer's winner verification all call it; each decides only what a
// broken check means to it (an exception, a fuzz failure, a rejected
// candidate).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "msys/arch/m1.hpp"
#include "msys/common/diagnostic.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/schedule_types.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/sim/simulator.hpp"

namespace msys::sim {

struct ScheduleCheck {
  /// The first broken check, in the order they run: the structural
  /// validator, then the simulator, then the prediction compared with the
  /// measurement field by field (total cycles, data words loaded and
  /// stored, context words, DMA requests).
  enum class Failure : std::uint8_t {
    kNone,
    kValidator,
    kSimulator,
    kCycles,
    kLoadWords,
    kStoreWords,
    kContextWords,
    kRequests,
  };

  /// Unset (infeasible) only after a validator failure.
  dsched::CostBreakdown predicted;
  /// Present iff the generated program ran to completion.
  std::optional<SimReport> measured;
  Failure failure{Failure::kNone};
  /// The validator's or the simulator's diagnostics for those failures.
  Diagnostics diagnostics;

  /// True when the schedule runs on this machine and the simulator agrees
  /// with the prediction exactly.
  [[nodiscard]] bool ok() const { return failure == Failure::kNone && measured.has_value(); }
  /// "predicted <cost> vs measured <report>"; needs `measured`.
  [[nodiscard]] std::string comparison() const;
};

/// "validator", "simulator", "cycle mismatch", "load-word mismatch",
/// "store-word mismatch", "context-word mismatch", "request-count mismatch".
[[nodiscard]] std::string to_string(ScheduleCheck::Failure failure);

/// Validates `schedule`, predicts its cost, generates its program and runs
/// it on the simulator, stopping at the first broken check.  An infeasible
/// schedule, or one whose predicted cost is infeasible ("does not run on
/// this machine"), is only costed: no failure, no `measured`.  Simulator
/// faults come back as diagnostics; other exceptions propagate.
[[nodiscard]] ScheduleCheck check_schedule(const dsched::DataSchedule& schedule,
                                           const extract::ScheduleAnalysis& analysis,
                                           const arch::M1Config& cfg,
                                           const csched::ContextPlan& ctx_plan);

}  // namespace msys::sim
