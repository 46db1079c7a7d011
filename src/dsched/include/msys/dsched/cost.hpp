// Analytic execution-time model for a DataSchedule on an M1 machine.
//
// The run is a sequence of *slots* (round-major, cluster-minor); slot s
// executes RF iterations of one cluster while the single-channel DMA works
// on other slots' transfers.  The DMA order is the double-buffering weave:
//
//   IN(0), then per slot s: prefetch IN(s+1) when cluster s+1 lives on the
//   other FB set, else IN(s+1) must wait until after ST(s) (the set is
//   still occupied); stores ST(s) queue when slot s's execution finishes.
//   A slot with no stores has no ST(s): the channel never waits for it.
//
// where IN(s) = context loads + data loads of slot s and ST(s) = its
// result stores.  Execution of slot s starts when slot s-1 finished and
// IN(s) completed.  The event simulator (src/sim) implements the same
// discipline operationally; tests assert cycle-exact agreement between the
// two independent implementations.
#pragma once

#include <cstdint>
#include <string>

#include "msys/arch/m1.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/schedule_types.hpp"

namespace msys::dsched {

struct CostBreakdown {
  bool feasible{false};
  std::string infeasible_reason;

  Cycles total{};
  /// Pure RC-array busy time (sum over slots of RF * kernel latencies).
  Cycles compute{};
  /// Cycles the RC array sat idle waiting for DMA (total - compute).
  Cycles stall{};
  /// Raw DMA channel busy time.
  Cycles dma_busy{};

  std::uint64_t data_words_loaded{0};
  std::uint64_t data_words_stored{0};
  std::uint64_t context_words{0};
  std::uint64_t dma_requests{0};

  [[nodiscard]] std::uint64_t data_words_total() const {
    return data_words_loaded + data_words_stored;
  }
  [[nodiscard]] std::string summary() const;
};

/// Predicts the full-run cost of `schedule` (all rounds, including a
/// partial last round) under `cfg` and `ctx_plan`.
[[nodiscard]] CostBreakdown predict_cost(const DataSchedule& schedule,
                                         const arch::M1Config& cfg,
                                         const csched::ContextPlan& ctx_plan);

/// Core overload on the fields the model actually reads — the kernel
/// schedule, the reuse factor and the per-cluster round plan — so callers
/// holding a memoized DriverResult (the annealer re-costing thousands of
/// mutations per second) can price it without materializing a DataSchedule
/// (whose placements map is the expensive part of a copy and is never read
/// here).  The DataSchedule overload above forwards to this one.
[[nodiscard]] CostBreakdown predict_cost(const model::KernelSchedule& sched,
                                         std::uint32_t rf,
                                         const std::vector<ClusterRoundPlan>& round_plan,
                                         const arch::M1Config& cfg,
                                         const csched::ContextPlan& ctx_plan);

}  // namespace msys::dsched
