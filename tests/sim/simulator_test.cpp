#include "msys/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "msys/common/error.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"
#include "testing/apps.hpp"

namespace msys::sim {
namespace {

using codegen::Op;
using codegen::OpKind;
using codegen::ScheduleProgram;
using extract::ScheduleAnalysis;
using testing::RetentionApp;
using testing::TwoClusterApp;
using testing::test_cfg;

struct SimRun {
  dsched::DataSchedule schedule;
  csched::ContextPlan ctx_plan;
  ScheduleProgram program;
  SimReport report;
};

SimRun simulate(const model::KernelSchedule& sched, const arch::M1Config& cfg,
             const dsched::DataSchedulerBase& scheduler) {
  ScheduleAnalysis analysis(sched);
  SimRun r{scheduler.schedule(analysis, cfg),
        csched::ContextPlan::build(sched, cfg.cm_capacity_words), {}, {}};
  r.program = codegen::generate(r.schedule, r.ctx_plan);
  Simulator simulator(cfg, r.ctx_plan);
  r.report = simulator.run(r.program);
  return r;
}

/// The text of the fault the simulator raises on `program`: `what()` less
/// the "MSYS_REQUIRE failed: " prefix and the " [condition] at file:line"
/// suffix, which locate the check in the source rather than describe the
/// fault.
std::string fault_text(const arch::M1Config& cfg, const csched::ContextPlan& plan,
                       const ScheduleProgram& program) {
  Simulator simulator(cfg, plan);
  try {
    (void)simulator.run(program);
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::string prefix = "MSYS_REQUIRE failed: ";
    EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
    const std::size_t end = what.find(" [", prefix.size());
    EXPECT_NE(end, std::string::npos) << what;
    return what.substr(prefix.size(), end - prefix.size());
  }
  ADD_FAILURE() << "the corrupted program ran to completion";
  return {};
}

TEST(Simulator, RunsCleanProgram) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/4);
  SimRun r = simulate(t.sched, test_cfg(1024), dsched::BasicScheduler{});
  EXPECT_GT(r.report.total.value(), 0u);
  EXPECT_EQ(r.report.exec_count, 16u);  // 4 kernels x 4 iterations
  EXPECT_EQ(r.report.compute, Cycles{1600});
}

TEST(Simulator, AgreesWithCostModelExactly) {
  // The central cross-check: two independent implementations of the same
  // timing discipline must agree cycle-for-cycle.
  for (std::uint32_t iterations : {1u, 3u, 4u, 7u}) {
    TwoClusterApp t = TwoClusterApp::make(iterations);
    for (std::uint64_t fb : {512u, 1024u, 4096u}) {
      for (std::uint32_t cm : {100u, 127u, 256u}) {
        const arch::M1Config cfg = test_cfg(fb, cm);
        for (const auto& scheduler : dsched::all_schedulers()) {
          ScheduleAnalysis analysis(t.sched);
          dsched::DataSchedule s = scheduler->schedule(analysis, cfg);
          csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cm);
          if (!s.feasible || !plan.feasible()) continue;
          const dsched::CostBreakdown predicted = dsched::predict_cost(s, cfg, plan);
          Simulator simulator(cfg, plan);
          const SimReport measured = simulator.run(codegen::generate(s, plan));
          EXPECT_EQ(predicted.total, measured.total)
              << scheduler->name() << " iters=" << iterations << " fb=" << fb
              << " cm=" << cm;
          EXPECT_EQ(predicted.data_words_loaded, measured.data_words_loaded);
          EXPECT_EQ(predicted.data_words_stored, measured.data_words_stored);
          EXPECT_EQ(predicted.context_words, measured.context_words);
          EXPECT_EQ(predicted.dma_requests, measured.dma_requests);
          EXPECT_EQ(predicted.dma_busy, measured.dma_busy);
        }
      }
    }
  }
}

TEST(Simulator, PeakResidencyWithinCapacity) {
  RetentionApp r = RetentionApp::make(/*iterations=*/6);
  SimRun run = simulate(r.sched, test_cfg(512), dsched::CompleteDataScheduler{});
  EXPECT_LE(run.report.max_resident_words[0], 512u);
  EXPECT_LE(run.report.max_resident_words[1], 512u);
  EXPECT_LE(run.report.max_cm_words, 256u);
}

TEST(Simulator, DetectsMissingInput) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  ScheduleProgram program = codegen::generate(s, plan);
  // Corrupt: drop the first data load.
  auto it = std::find_if(program.dma_ops.begin(), program.dma_ops.end(),
                         [](const Op& op) { return op.kind == OpKind::kLoadData; });
  ASSERT_NE(it, program.dma_ops.end());
  program.dma_ops.erase(it);
  EXPECT_EQ(fault_text(cfg, plan, program), "input 'b' not resident for EXEC p2 slot=0 iter=0");
}

TEST(Simulator, DetectsMissingContexts) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024, /*cm=*/127);  // per-slot regime
  dsched::DataSchedule s = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, 127);
  ScheduleProgram program = codegen::generate(s, plan);
  std::erase_if(program.dma_ops,
                [](const Op& op) { return op.kind == OpKind::kLoadContext; });
  EXPECT_EQ(fault_text(cfg, plan, program), "contexts not CM-resident for EXEC p1 slot=0 iter=0");
}

TEST(Simulator, DetectsDoubleRelease) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::DataScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  ScheduleProgram program = codegen::generate(s, plan);
  auto it = std::find_if(program.rc_ops.begin(), program.rc_ops.end(),
                         [](const Op& op) { return op.kind == OpKind::kRelease; });
  ASSERT_NE(it, program.rc_ops.end());
  program.rc_ops.push_back(*it);  // duplicate release at the end
  EXPECT_EQ(fault_text(cfg, plan, program), "releasing a non-resident instance: RELEASE a slot=0 iter=0");
}

TEST(Simulator, DetectsOverlappingPlacements) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  // Corrupt a placement so two objects overlap.
  const DataId a = *t.app->find_data("a");
  const DataId b = *t.app->find_data("b");
  auto& pa = s.placements.at(dsched::DataSchedule::key(ClusterId{0}, {a, 0}));
  const auto& pb = s.placements.at(dsched::DataSchedule::key(ClusterId{0}, {b, 0}));
  pa.extents = pb.extents;
  ScheduleProgram program = codegen::generate(s, plan);
  EXPECT_EQ(fault_text(cfg, plan, program), "FB words doubly occupied: LOAD a slot=0 iter=0");
}

TEST(Simulator, DetectsOutOfRangePlacement) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  const DataId a = *t.app->find_data("a");
  auto& pa = s.placements.at(dsched::DataSchedule::key(ClusterId{0}, {a, 0}));
  pa.extents = {Extent{1000, SizeWords{100}}};  // past the 1024-word set
  ScheduleProgram program = codegen::generate(s, plan);
  EXPECT_EQ(fault_text(cfg, plan, program), "placement out of range: LOAD a slot=0 iter=0");
}

TEST(Simulator, DetectsDoubleLoad) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  ScheduleProgram program = codegen::generate(s, plan);
  auto it = std::find_if(program.dma_ops.begin(), program.dma_ops.end(),
                         [](const Op& op) { return op.kind == OpKind::kLoadData; });
  ASSERT_NE(it, program.dma_ops.end());
  program.dma_ops.insert(it, *it);  // the same instance loaded twice in a row
  EXPECT_EQ(fault_text(cfg, plan, program), "instance already resident: LOAD b slot=0 iter=0");
}

TEST(Simulator, DetectsLoadOfAResultThatWasNeverStored) {
  // sr is produced in Cl1 and loaded again by Cl3: replace its store by a
  // plain release, so the words are freed but nothing reaches external
  // memory.
  RetentionApp r = RetentionApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(r.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(r.sched, cfg.cm_capacity_words);
  ScheduleProgram program = codegen::generate(s, plan);
  const DataId sr = *r.app->find_data("sr");
  auto store = std::find_if(program.dma_ops.begin(), program.dma_ops.end(), [&](const Op& op) {
    return op.kind == OpKind::kStoreData && op.data == sr;
  });
  ASSERT_NE(store, program.dma_ops.end());
  Op release = *store;
  release.kind = OpKind::kRelease;
  release.release_after_store = false;
  program.dma_ops.erase(store);
  auto last_exec = std::find_if(program.rc_ops.rbegin(), program.rc_ops.rend(),
                                [&](const Op& op) {
                                  return op.kind == OpKind::kExec && op.slot == release.slot;
                                });
  ASSERT_NE(last_exec, program.rc_ops.rend());
  program.rc_ops.insert(last_exec.base(), release);
  EXPECT_EQ(fault_text(cfg, plan, program), "loading a result before its store: LOAD sr slot=2 iter=0");
}

TEST(Simulator, DetectsStoreOfANonResidentInstance) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  ScheduleProgram program = codegen::generate(s, plan);
  auto it = std::find_if(program.dma_ops.begin(), program.dma_ops.end(), [](const Op& op) {
    return op.kind == OpKind::kStoreData && op.release_after_store;
  });
  ASSERT_NE(it, program.dma_ops.end());
  // The first store frees the instance's words; the second finds nothing.
  program.dma_ops.insert(std::next(it), *it);
  EXPECT_EQ(fault_text(cfg, plan, program), "storing a non-resident instance: STORE r1 slot=0 iter=0");
}

TEST(Simulator, StallAccountsForNonOverlappedDma) {
  // Make the DMA very slow: execution must wait, so stall > 0 and total
  // is dominated by transfers.
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/2);
  arch::M1Config cfg = test_cfg(1024);
  cfg.dma.cycles_per_data_word = Cycles{50};
  cfg = arch::M1Config::validated(cfg);
  SimRun r = simulate(t.sched, cfg, dsched::BasicScheduler{});
  EXPECT_GT(r.report.stall.value(), 0u);
  EXPECT_EQ(r.report.total, r.report.compute + r.report.stall);
  EXPECT_GE(r.report.total, r.report.dma_busy);
}

TEST(Simulator, TraceCallbackSeesEveryTimedOp) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  ScheduleAnalysis analysis(t.sched);
  const arch::M1Config cfg = test_cfg(1024);
  dsched::DataSchedule s = dsched::BasicScheduler{}.schedule(analysis, cfg);
  csched::ContextPlan plan = csched::ContextPlan::build(t.sched, cfg.cm_capacity_words);
  ScheduleProgram program = codegen::generate(s, plan);
  Simulator simulator(cfg, plan);
  std::size_t events = 0;
  Cycles last_end = Cycles::zero();
  simulator.set_trace([&](Cycles start, Cycles end, const std::string& what) {
    ++events;
    EXPECT_LE(start, end);
    EXPECT_FALSE(what.empty());
    last_end = std::max(last_end, end);
  });
  SimReport report = simulator.run(program);
  EXPECT_EQ(events, program.dma_ops.size() + program.rc_ops.size());
  EXPECT_EQ(last_end, report.total);
}

TEST(Simulator, SummaryMentionsCycles) {
  TwoClusterApp t = TwoClusterApp::make(/*iterations=*/1);
  SimRun r = simulate(t.sched, test_cfg(1024), dsched::BasicScheduler{});
  EXPECT_NE(r.report.summary().find("total="), std::string::npos);
}

}  // namespace
}  // namespace msys::sim
