#include "msys/sim/check.hpp"

#include <gtest/gtest.h>

#include <string>

#include "msys/dsched/schedulers.hpp"
#include "msys/workloads/experiments.hpp"
#include "testing/apps.hpp"

namespace msys::sim {
namespace {

using Failure = ScheduleCheck::Failure;
using extract::ScheduleAnalysis;
using testing::TwoClusterApp;
using testing::test_cfg;

ScheduleCheck check(const dsched::DataSchedule& schedule, const ScheduleAnalysis& analysis,
                    const arch::M1Config& cfg) {
  return check_schedule(schedule, analysis, cfg,
                        csched::ContextPlan::build(analysis.sched(), cfg.cm_capacity_words));
}

TEST(ScheduleCheck, CleanTable1SchedulesMeasureWhatTheyPredict) {
  for (const std::string& name : workloads::table1_experiment_names()) {
    const workloads::Experiment exp = workloads::make_experiment(name);
    const ScheduleAnalysis analysis(exp.sched, exp.cfg.cross_set_reads);
    const ScheduleCheck c =
        check(dsched::CompleteDataScheduler{}.schedule(analysis, exp.cfg), analysis, exp.cfg);
    ASSERT_TRUE(c.ok()) << name << ": " << to_string(c.failure);
    EXPECT_TRUE(c.diagnostics.empty()) << name;
    EXPECT_EQ(c.measured->total, c.predicted.total) << name;
    EXPECT_EQ(c.measured->data_words_loaded, c.predicted.data_words_loaded) << name;
    EXPECT_EQ(c.measured->data_words_stored, c.predicted.data_words_stored) << name;
    EXPECT_EQ(c.measured->context_words, c.predicted.context_words) << name;
    EXPECT_EQ(c.measured->dma_requests, c.predicted.dma_requests) << name;
  }
}

TEST(ScheduleCheck, PlacementMovedOntoAnotherPlacementsWordsIsAValidatorFailure) {
  TwoClusterApp t = TwoClusterApp::make(4);
  const arch::M1Config cfg = test_cfg(1024);
  const ScheduleAnalysis analysis(t.sched);
  dsched::DataSchedule schedule = dsched::DataScheduler{}.schedule(analysis, cfg);
  ASSERT_TRUE(check(schedule, analysis, cfg).ok());

  // Move one placement onto the words of a placement of a different size.
  auto moved = schedule.placements.begin();
  bool found = false;
  for (const auto& [key, other] : schedule.placements) {
    if (total_size(other.extents) != total_size(moved->second.extents)) {
      moved->second = other;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  const ScheduleCheck c = check(schedule, analysis, cfg);
  EXPECT_EQ(c.failure, Failure::kValidator);
  EXPECT_FALSE(c.ok());
  EXPECT_FALSE(c.measured.has_value());
  ASSERT_FALSE(c.diagnostics.empty());
  EXPECT_EQ(c.diagnostics.front().code, "validate.placement");
}

TEST(ScheduleCheck, OverlappingLivePlacementsAreASimulatorFailure) {
  // Moving a placement to start on another placement's words, at its own
  // size and inside the FB set, passes the structural validator (which
  // checks each placement alone); when both are live at once the
  // simulator faults.
  TwoClusterApp t = TwoClusterApp::make(4);
  const arch::M1Config cfg = test_cfg(1024);
  const ScheduleAnalysis analysis(t.sched);
  const dsched::DataSchedule clean = dsched::DataScheduler{}.schedule(analysis, cfg);
  bool found = false;
  for (const auto& [moved_key, moved] : clean.placements) {
    for (const auto& [key, other] : clean.placements) {
      const Extent onto{other.extents.front().addr, total_size(moved.extents)};
      if (key == moved_key || other.set != moved.set ||
          onto.end() > cfg.fb_set_size.value()) {
        continue;
      }
      dsched::DataSchedule broken = clean;
      broken.placements.at(moved_key).extents = {onto};
      const ScheduleCheck c = check(broken, analysis, cfg);
      if (c.failure != Failure::kSimulator) continue;
      found = true;
      EXPECT_FALSE(c.measured.has_value());
      ASSERT_FALSE(c.diagnostics.empty());
      EXPECT_EQ(c.diagnostics.front().code, "sim.fault");
      break;
    }
    if (found) break;
  }
  EXPECT_TRUE(found);
}

TEST(ScheduleCheck, InfeasibleScheduleIsOnlyCosted) {
  TwoClusterApp t = TwoClusterApp::make(4);
  const arch::M1Config cfg = test_cfg(64);  // too small for any cluster
  const ScheduleAnalysis analysis(t.sched);
  const dsched::DataSchedule schedule = dsched::BasicScheduler{}.schedule(analysis, cfg);
  ASSERT_FALSE(schedule.feasible);
  const ScheduleCheck c = check(schedule, analysis, cfg);
  EXPECT_EQ(c.failure, Failure::kNone);
  EXPECT_FALSE(c.ok());
  EXPECT_FALSE(c.predicted.feasible);
  EXPECT_FALSE(c.measured.has_value());
}

}  // namespace
}  // namespace msys::sim
