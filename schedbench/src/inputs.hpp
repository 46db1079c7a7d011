// Seeded inputs shared by the workloads, and the comparison that names
// the one known fault (cost model and simulator disagreeing on stall).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "msys/arch/m1.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/engine/job.hpp"
#include "msys/model/application.hpp"
#include "msys/sim/simulator.hpp"
#include "msys/workloads/random.hpp"

namespace schedbench {

/// One application with its cluster partition and machine.
struct AppInput {
  std::string name;
  std::shared_ptr<const msys::model::Application> app;
  std::vector<std::vector<msys::KernelId>> partition;
  msys::arch::M1Config cfg;

  [[nodiscard]] msys::engine::CompileInput compile_input() const;
  /// The application as `.mapp` text (appdsl::write).
  [[nodiscard]] std::string mapp_text() const;
};

[[nodiscard]] AppInput from_random(std::string name, const msys::workloads::RandomSpec& spec);
[[nodiscard]] AppInput from_experiment(const std::string& table1_name);

/// Size ranges of a seeded family.  Sizes are stratified over the index
/// (kernels and iterations each sweep their whole range), so different
/// seeds change application structure but not the size mix.
struct FamilyShape {
  std::uint32_t min_kernels{4};
  std::uint32_t max_kernels{24};
  std::uint32_t min_iterations{8};
  std::uint32_t max_iterations{64};
};

/// Member `index` of the family drawn from `seed`.  `draw` > 0 gives a
/// replacement of the same size when a draw has to be left out.
[[nodiscard]] msys::workloads::RandomSpec family_spec(std::uint64_t seed, std::uint32_t index,
                                                      std::uint32_t draw,
                                                      const FamilyShape& shape);

/// "family-<index>", with ".<draw>" for a replacement draw.
[[nodiscard]] std::string member_name(std::uint32_t index, std::uint32_t draw);

/// Draws tried per family member before the run gives up.
inline constexpr std::uint32_t kMaxDraws = 8;

/// Draws one family member, leaving out draws that show the known stall
/// disagreement.  Such a failure hits about 1 seeded app in 1000, so
/// counting it would make the failed share depend on the seed; the fixed
/// repro keeps the fault in the failed count instead.  `try_draw(draw)`
/// builds draw `draw` and returns "" when it is kept, else the
/// disagreement.  Each left-out draw is listed in `left_out` as
/// "<name>: <disagreement>".  Throws after kMaxDraws draws.
template <class TryDraw>
void draw_member(std::uint32_t index, TryDraw&& try_draw, std::vector<std::string>& left_out) {
  for (std::uint32_t draw = 0; draw < kMaxDraws; ++draw) {
    const std::string disagreement = try_draw(draw);
    if (disagreement.empty()) return;
    left_out.push_back(member_name(index, draw) + ": " + disagreement);
  }
  throw std::runtime_error(member_name(index, 0) + ": " + std::to_string(kMaxDraws) +
                           " draws in a row show the stall disagreement");
}

/// Notes each left-out draw in `report` (the run prints them).
void note_left_out(const std::vector<std::string>& left_out, Report& report);

/// The fixed repro of the cost-model/simulator stall disagreement
/// (make_random seed 5079, 4-8 kernels, 8-16 iterations, reuse 60%,
/// 3 shared inputs).  Independent of the run's seed.
[[nodiscard]] AppInput fault_repro();

/// Compares the analytic cost of a schedule with its simulation, field by
/// field.  Returns "" when they agree, else the operation's failure reason
/// (`schedule` says which schedule was simulated).  A disagreement without
/// the known fault's signature also fails an output check in `report`.
[[nodiscard]] std::string check_simulation(const msys::dsched::CostBreakdown& predicted,
                                           const msys::sim::SimReport& measured,
                                           const std::string& input,
                                           const std::string& schedule, Report& report);

/// The mismatch, when the analytic cost and the simulation show the known
/// fault's signature: totals differ, while compute, DMA busy time, words
/// and requests all agree (only the stall differs).  Else "".
[[nodiscard]] std::string stall_disagreement(const msys::dsched::CostBreakdown& predicted,
                                             const msys::sim::SimReport& measured);

/// Simulates `schedule` on its own machine and returns the report;
/// throws msys::Error on a functional violation.
[[nodiscard]] msys::sim::SimReport simulate(const msys::dsched::DataSchedule& schedule,
                                            const msys::arch::M1Config& cfg);

}  // namespace schedbench
