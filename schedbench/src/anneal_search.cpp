// anneal-search: schedule search.  search::anneal_schedule at a fixed
// search seed, budget 256, 4 islands, on a 2-thread pool, over the 12
// Table-1 experiments, the fixed fault repro and a seeded family of
// random apps.  The annealer re-costs each app thousands of times through
// extraction, the plan memo and the placement-free cost model, with only
// a few simulator verifications, so this is where the cost model's speed
// shows; verify-single does not exercise it.
#include <sstream>

#include "bench.hpp"
#include "inputs.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/validate.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/search/anneal.hpp"
#include "msys/workloads/experiments.hpp"
#include "stats.hpp"

namespace schedbench {

using namespace msys;

namespace {

constexpr std::uint32_t kFamilySize = 100;
constexpr int kSetups = 3;
constexpr unsigned kThreads = 2;
const FamilyShape kShape{.min_kernels = 4, .max_kernels = 10, .min_iterations = 8,
                         .max_iterations = 64};

search::AnnealOptions anneal_options() {
  search::AnnealOptions o;
  o.seed = 1;
  o.islands = 4;
  o.budget = 256;
  return o;
}

/// One input with the schedule the annealer works on.
struct Case {
  AppInput in;
  std::unique_ptr<model::KernelSchedule> sched;
  std::unique_ptr<extract::ScheduleAnalysis> analysis;
};

Case make_case(AppInput in) {
  Case c;
  c.sched = std::make_unique<model::KernelSchedule>(
      model::KernelSchedule::from_partition(*in.app, in.partition));
  c.analysis = std::make_unique<extract::ScheduleAnalysis>(*c.sched, in.cfg.cross_set_reads);
  c.in = std::move(in);
  return c;
}

/// Everything the annealer decided, for byte comparison across pools.
std::string result_bytes(const search::AnnealResult& r) {
  std::ostringstream out;
  const dsched::DataSchedule& s = r.schedule;
  out << s.scheduler_name << ' ' << s.feasible << ' ' << s.rf << " retained";
  for (DataId d : s.retained) out << ' ' << d.index();
  out << " partition";
  for (const model::Cluster& c : s.sched->clusters()) {
    out << " |";
    for (KernelId k : c.kernels) out << ' ' << k.index();
  }
  for (const dsched::ClusterRoundPlan& p : s.round_plan) {
    out << " c" << p.cluster.index() << " L";
    for (const dsched::ObjInstance& i : p.loads) out << ' ' << i.data.index() << '.' << i.iter;
    out << " S";
    for (const dsched::StoreEvent& e : p.stores) {
      out << ' ' << e.inst.data.index() << '.' << e.inst.iter << (e.release_after ? "r" : "");
    }
  }
  out << " cost " << r.predicted.summary() << " greedy " << r.greedy_predicted.summary()
      << " improved " << r.improved << " island " << r.winner_island;
  for (const search::IslandStats& i : r.islands) {
    out << " [" << i.island << ' ' << i.moves << ' ' << i.accepted << ' ' << i.sim_verifications
        << ' ' << i.improvements << ' ' << i.partitions_explored << ' ' << i.plan_hits << ' '
        << i.plan_misses << ' ' << i.best_cycles << ']';
  }
  return out.str();
}

struct Setup {
  std::vector<Case> cases;
  std::vector<std::string> bytes;  // warm-up result per case
  std::vector<std::string> left_out;
};

/// Input generation plus one untimed warm-up pass, which also screens the
/// family draws by re-simulating the returned schedule (see draw_member).
Setup set_up(const Options& options, engine::ThreadPool& pool) {
  Setup s;
  auto warm = [&](const Case& c) {
    return search::anneal_schedule(*c.analysis, c.in.cfg, anneal_options(), &pool);
  };
  for (const std::string& name : workloads::table1_experiment_names()) {
    s.cases.push_back(make_case(from_experiment(name)));
  }
  s.cases.push_back(make_case(fault_repro()));
  for (const Case& c : s.cases) s.bytes.push_back(result_bytes(warm(c)));
  for (std::uint32_t i = 0; i < kFamilySize; ++i) {
    draw_member(
        i,
        [&](std::uint32_t draw) {
          Case c = make_case(
              from_random(member_name(i, draw), family_spec(options.seed, i, draw, kShape)));
          const search::AnnealResult r = warm(c);
          std::string disagreement =
              r.feasible() ? stall_disagreement(r.predicted, simulate(r.schedule, c.in.cfg)) : "";
          if (disagreement.empty()) {
            s.cases.push_back(std::move(c));
            s.bytes.push_back(result_bytes(r));
          }
          return disagreement;
        },
        s.left_out);
  }
  return s;
}

}  // namespace

Report run_anneal_search(const Options& options) {
  Report report;
  engine::ThreadPool pool(kThreads);
  Setup s;
  const std::vector<double> setup_s =
      time_setups(kSetups, [&] { return set_up(options, pool); }, s, report);
  const std::size_t n = s.cases.size();

  // Timed rounds: every round anneals every case once, in order.  A
  // traced run follows each untraced call with a traced one.
  LayerProfile profile;
  std::vector<double> call_ms;
  std::vector<search::AnnealResult> last(n);
  std::size_t rounds = 0;
  const Clock::time_point run_start = Clock::now();
  while (rounds == 0 || seconds_since(run_start) < options.seconds) {
    for (std::size_t i = 0; i < n; ++i) {
      const Case& c = s.cases[i];
      const Clock::time_point start = Clock::now();
      last[i] = search::anneal_schedule(*c.analysis, c.in.cfg, anneal_options(), &pool);
      call_ms.push_back(ms_since(start));
      report.check(result_bytes(last[i]) == s.bytes[i],
                   c.in.name + ": timed result differs from the warm-up result");
      if (options.trace) {
        profile.untraced(call_ms.back());
        const search::AnnealResult traced = profile.run(
            1, [&] { return search::anneal_schedule(*c.analysis, c.in.cfg, anneal_options(), &pool); });
        report.check(result_bytes(traced) == s.bytes[i],
                     c.in.name + ": traced result differs from the warm-up result");
      }
    }
    ++rounds;
  }

  // Output checks, outside the timed region.
  std::size_t failing = 0;
  std::vector<double> kcycles;
  for (std::size_t i = 0; i < n; ++i) {
    const Case& c = s.cases[i];
    const search::AnnealResult& r = last[i];
    const std::string& name = c.in.name;
    report.check(r.feasible() && !r.cancelled, name + ": annealer returned no schedule");
    if (!r.feasible()) continue;
    const sim::SimReport measured = simulate(r.schedule, c.in.cfg);
    kcycles.push_back(static_cast<double>(measured.total.value()) / 1e3);

    const std::string disagreement =
        check_simulation(r.predicted, measured, name,
                         r.improved ? "annealed schedule" : "greedy CDS schedule", report);
    if (!disagreement.empty()) {
      ++failing;
      report.failures.push_back({name, disagreement});
      continue;
    }
    report.check(r.annealed_cycles() <= r.greedy_cycles(),
                 name + ": annealed " + std::to_string(r.annealed_cycles()) + " cycles > greedy " +
                     std::to_string(r.greedy_cycles()));
    const extract::ScheduleAnalysis winner_analysis(*r.schedule.sched, c.in.cfg.cross_set_reads);
    report.check(dsched::validate_schedule(r.schedule, winner_analysis, c.in.cfg).empty(),
                 name + ": returned schedule does not validate");

    const dsched::DataSchedule greedy =
        dsched::CompleteDataScheduler(anneal_options().cds).schedule(*c.analysis, c.in.cfg);
    const dsched::CostBreakdown greedy_cost = dsched::predict_cost(
        greedy, c.in.cfg, csched::ContextPlan::build(*c.sched, c.in.cfg.cm_capacity_words));
    report.check(greedy.rf == r.greedy.rf && greedy.retained == r.greedy.retained &&
                     greedy_cost.total == r.greedy_predicted.total &&
                     greedy_cost.data_words_total() == r.greedy_predicted.data_words_total(),
                 name + ": greedy baseline differs from CompleteDataScheduler + predict_cost");

    report.check(result_bytes(search::anneal_schedule(*c.analysis, c.in.cfg, anneal_options())) ==
                     s.bytes[i],
                 name + ": result without a pool differs from the 2-thread result");
  }
  report.attempted = rounds * (options.trace ? 2 : 1) * n;
  report.failed = rounds * (options.trace ? 2 : 1) * failing;

  std::uint64_t moves = 0, accepted = 0, verifications = 0, partitions = 0, hits = 0, misses = 0;
  for (const search::AnnealResult& r : last) {
    for (const search::IslandStats& i : r.islands) {
      moves += i.moves;
      accepted += i.accepted;
      verifications += i.sim_verifications;
      partitions += i.partitions_explored;
      hits += i.plan_hits;
      misses += i.plan_misses;
    }
  }
  const double apps = static_cast<double>(n);
  report.notes.push_back("anneal-search: " + std::to_string(n) + " apps (12 Table-1, 1 fault repro, " +
                         std::to_string(kFamilySize) + " seeded family), " + std::to_string(rounds) +
                         " rounds");
  report.notes.push_back(
      "per app: " + std::to_string(static_cast<double>(partitions) / apps) + " partitions, " +
      std::to_string(static_cast<double>(verifications) / apps) + " simulator verifications; plan hit ratio " +
      std::to_string(static_cast<double>(hits) / static_cast<double>(hits + misses)) + ", accept ratio " +
      std::to_string(static_cast<double>(accepted) / static_cast<double>(moves)));
  note_left_out(s.left_out, report);

  if (!options.trace) {
    report_end_to_end(report, setup_s, call_ms, kcycles);
    return report;
  }
  profile.report_per_layer(report);
  profile.export_chrome(options, report);
  return report;
}

}  // namespace schedbench
