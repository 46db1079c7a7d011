// Chaos campaign contract: a seeded campaign is a pure function of its
// seed, a full-size run (the acceptance bar is 200 cases) upholds every
// serve-layer invariant with zero failures while actually exercising
// shedding, degraded compiles, store damage and injected faults, and the
// trace shrinker minimises failing inputs without ever losing the
// property it was asked to keep.
#include "msys/serve/chaos.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "msys/common/fault_injector.hpp"
#include "msys/serve/trace_file.hpp"

namespace msys::serve {
namespace {

namespace fs = std::filesystem;

TEST(ChaosTest, CasesArePureFunctionsOfSeedAndIndex) {
  for (std::size_t i = 0; i < 14; ++i) {
    const ChaosCase a = make_chaos_case(7, i);
    const ChaosCase b = make_chaos_case(7, i);
    EXPECT_EQ(a.label(), b.label()) << i;
    EXPECT_EQ(a.fault_class, b.fault_class) << i;
    EXPECT_EQ(a.fault_spec, b.fault_spec) << i;
    EXPECT_EQ(a.shed_threshold_cycles, b.shed_threshold_cycles) << i;
    EXPECT_EQ(a.degraded_threshold_cycles, b.degraded_threshold_cycles) << i;
    EXPECT_EQ(write_trace(generate_trace(a.trace)),
              write_trace(generate_trace(b.trace)))
        << i;
  }
  // A different seed actually moves the campaign.
  EXPECT_NE(make_chaos_case(7, 3).fault_spec, make_chaos_case(8, 3).fault_spec);
}

TEST(ChaosTest, SevenCasesCoverEveryFaultClass) {
  const char* expected[] = {"none",       "stall",    "store-read", "store-torn",
                            "clock-skew", "overload", "mixed"};
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(make_chaos_case(1, i).fault_class, expected[i]) << i;
  }
  // ...and the classes wrap round-robin.
  EXPECT_EQ(make_chaos_case(1, 7).fault_class, "none");
  EXPECT_EQ(make_chaos_case(1, 12).fault_class, "overload");
}

TEST(ChaosTest, FullCampaignUpholdsEveryInvariant) {
  // The acceptance-bar campaign: 200 seeded cases.
  ChaosOptions options;
  options.base_seed = 1;
  options.cases = 200;
  const fs::path scratch =
      fs::temp_directory_path() / "msys_chaos_test" / "campaign";
  fs::remove_all(scratch);
  options.scratch_dir = scratch.string();

  const ChaosStats stats = run_chaos_campaign(options);
  fs::remove_all(scratch);
  FaultInjector::global().disarm();

  for (const ChaosFailure& f : stats.failures) {
    ADD_FAILURE() << f.c.label() << ": " << f.kind << ": " << f.detail << "\n"
                  << f.shrunk_trace;
  }
  EXPECT_TRUE(stats.clean());
  EXPECT_EQ(stats.cases, options.cases);
  // Thread sweep alone is 3 runs per case; store/baseline passes add more.
  EXPECT_GE(stats.runs, 3 * options.cases);
  EXPECT_GT(stats.jobs, 0u);
  // The campaign must actually exercise the machinery it audits.
  EXPECT_GT(stats.shed, 0u);
  EXPECT_GT(stats.degraded_serves, 0u);
  EXPECT_GT(stats.store_faults, 0u);
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_NE(stats.summary().find("0 FAILURES"), std::string::npos)
      << stats.summary();
}

TraceFile shrink_fixture(std::uint32_t jobs) {
  TraceGenSpec spec;
  spec.seed = 23;
  spec.jobs = jobs;
  spec.streams = 3;
  spec.mean_gap_cycles = 50000;
  spec.deadline_cycles = 500000;
  spec.priorities = 3;
  return generate_trace(spec);
}

TEST(ChaosTest, ShrinkerMinimisesToTheSmallestKeepingTrace) {
  const TraceFile big = shrink_fixture(32);
  // Property: the trace still contains at least one stream-2 event.  The
  // minimal keeper is a single such event.
  const auto keep = [](const TraceFile& t) {
    for (const TraceEvent& e : t.events) {
      if (e.stream == 2) return true;
    }
    return false;
  };
  ASSERT_TRUE(keep(big));
  const TraceFile small = shrink_trace(big, keep);
  EXPECT_TRUE(keep(small));
  EXPECT_EQ(small.events.size(), 1u);
  EXPECT_EQ(small.events[0].stream, 2u);
  // Field stripping zeroed what the property does not need.
  EXPECT_EQ(small.events[0].deadline_cycles, 0u);
  EXPECT_EQ(small.events[0].priority, 0);
}

TEST(ChaosTest, ShrinkerNeverDropsBelowOneEvent) {
  const TraceFile big = shrink_fixture(16);
  const TraceFile small = shrink_trace(big, [](const TraceFile&) { return true; });
  EXPECT_EQ(small.events.size(), 1u);
}

TEST(ChaosTest, ShrinkerStripsFieldsWhenNoEventCanBeDropped) {
  const TraceFile big = shrink_fixture(8);
  const std::size_t n = big.events.size();
  // Property demands every event, so no removal survives — but the
  // per-event field stripping still simplifies what remains.
  const TraceFile same =
      shrink_trace(big, [n](const TraceFile& t) { return t.events.size() >= n; });
  ASSERT_EQ(same.events.size(), n);
  for (const TraceEvent& e : same.events) {
    EXPECT_EQ(e.deadline_cycles, 0u);
    EXPECT_EQ(e.priority, 0);
  }
}

TEST(ChaosTest, ShrinkerReturnsInputWhenNoCandidateKeeps) {
  const TraceFile big = shrink_fixture(8);
  // The strictest property — byte equality with the original — rejects
  // every candidate, so the input comes back untouched.
  const TraceFile same =
      shrink_trace(big, [&big](const TraceFile& t) { return t == big; });
  EXPECT_EQ(write_trace(same), write_trace(big));
}

}  // namespace
}  // namespace msys::serve
