// Seed-corpus regression gate: every checked-in minimized repro under
// tests/fuzzing/corpus/ must keep resolving cleanly — structured parser
// diagnostics or structured infeasibility, never a crash, a validator
// violation, or a cost-model disagreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "msys/appdsl/parser.hpp"
#include "msys/fuzzing/fuzzing.hpp"
#include "msys/report/runner.hpp"
#include "msys/search/anneal.hpp"

namespace msys::fuzzing {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(MSYS_FUZZ_CORPUS_DIR)) {
    if (entry.path().extension() == ".mapp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(FuzzCorpus, HasRepros) { EXPECT_GE(corpus_files().size(), 4u); }

TEST(FuzzCorpus, EveryReproResolvesCleanly) {
  for (const fs::path& path : corpus_files()) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    FuzzCase c;
    c.name = path.filename().string();
    c.text = text.str();
    const CaseResult r = run_case(c);
    for (const CheckFailure& f : r.failures) {
      ADD_FAILURE() << c.name << ": " << f.scheduler << " " << f.kind << ": "
                    << f.detail;
    }
  }
}

// The corpus pins both sides of the contract: at least one repro that must
// parse-reject and one that must be machine-infeasible with diagnostics.
TEST(FuzzCorpus, CoversBothFailureModes) {
  bool saw_parse_reject = false;
  bool saw_infeasible = false;
  for (const fs::path& path : corpus_files()) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    const CaseResult r = run_case(FuzzCase{path.filename().string(), 0, text.str()});
    if (!r.parse_ok) saw_parse_reject = true;
    if (r.parse_ok && !r.fallback_chain.empty() && !r.fallback_feasible) {
      saw_infeasible = true;
      EXPECT_TRUE(has_errors(r.infeasibility)) << path;
    }
  }
  EXPECT_TRUE(saw_parse_reject);
  EXPECT_TRUE(saw_infeasible);
}

// Every caller of the schedule oracle reaches the same verdict on every
// repro: the fuzz harness finds nothing, the report runner neither throws
// nor disagrees with the harness about feasibility, and the annealer's
// winner passes its simulator verification.
TEST(FuzzCorpus, EveryOracleCallerAgrees) {
  for (const fs::path& path : corpus_files()) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    const std::string name = path.filename().string();
    const CaseResult r = run_case(FuzzCase{name, 0, text.str()});
    EXPECT_TRUE(r.clean()) << name;
    appdsl::ParseResult parsed = appdsl::parse_collect(text.str(), name);
    if (!parsed.ok() || parsed.experiment->partition.empty()) continue;
    const model::KernelSchedule sched = parsed.experiment->schedule();
    const arch::M1Config& cfg = parsed.experiment->cfg;

    const report::FallbackRunResult run = report::run_with_fallback(sched, cfg);
    EXPECT_EQ(run.feasible(), r.fallback_feasible) << name;
    if (run.feasible()) {
      ASSERT_TRUE(run.measured.has_value()) << name;
      EXPECT_EQ(run.measured->total.value(), r.fallback_total_cycles) << name;
    }
    EXPECT_NO_THROW((void)report::run_experiment(name, sched, cfg)) << name;

    search::AnnealOptions options;
    options.budget = 32;
    const extract::ScheduleAnalysis analysis(sched, cfg.cross_set_reads);
    EXPECT_NO_THROW((void)search::anneal_schedule(analysis, cfg, options)) << name;
  }
}

}  // namespace
}  // namespace msys::fuzzing
