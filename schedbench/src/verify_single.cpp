// verify-single: the `msysc app.mapp` path, closed loop, one client, no
// threads.  Each operation parses one application from `.mapp` text,
// schedules it through the fallback chain, costs, validates, lowers and
// simulates it.  Inputs: the 12 Table-1 experiments, the example apps,
// the fixed fault repro and a seeded family of random apps.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "inputs.hpp"
#include "msys/appdsl/parser.hpp"
#include "msys/codegen/program.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/fallback.hpp"
#include "msys/dsched/validate.hpp"
#include "msys/workloads/experiments.hpp"
#include "stats.hpp"

namespace schedbench {

using namespace msys;

namespace {

constexpr std::uint32_t kFamilySize = 500;
constexpr int kSetups = 3;

struct Input {
  std::string name;
  std::string text;
};

/// What one verification produced.
struct Outcome {
  bool ok{false};
  std::string error;
  std::string rung;
  dsched::CostBreakdown predicted;
  sim::SimReport measured;
  bool valid{false};
  std::string violations;
  std::size_t ops{0};

  [[nodiscard]] bool same_result(const Outcome& o) const {
    return ok == o.ok && rung == o.rung && predicted.total == o.predicted.total &&
           measured.total == o.measured.total && valid == o.valid && ops == o.ops;
  }
};

/// The timed operation.  Each call into a layer runs in a span of that
/// layer's name, recorded when the operation is traced.
Outcome verify(const std::string& text) {
  Outcome out;
  try {
    const appdsl::ParsedExperiment parsed = in_span("appdsl.parse", [&] { return appdsl::parse(text); });
    const model::KernelSchedule sched = in_span("appdsl.schedule", [&] { return parsed.schedule(); });
    const arch::M1Config& cfg = parsed.cfg;
    const extract::ScheduleAnalysis analysis = in_span(
        "extract.analysis", [&] { return extract::ScheduleAnalysis(sched, cfg.cross_set_reads); });
    const csched::ContextPlan ctx = in_span(
        "csched.plan", [&] { return csched::ContextPlan::build(sched, cfg.cm_capacity_words); });
    const dsched::ScheduleOutcome chosen =
        in_span("dsched.schedule_with_fallback", [&] { return dsched::schedule_with_fallback(analysis, cfg); });
    if (!chosen.feasible() || !ctx.feasible()) {
      out.error = "infeasible: " + chosen.chain_summary() + " " + ctx.infeasible_reason();
      return out;
    }
    out.predicted =
        in_span("dsched.predict_cost", [&] { return dsched::predict_cost(chosen.schedule, cfg, ctx); });
    const Diagnostics violations = in_span(
        "dsched.validate", [&] { return dsched::validate_schedule(chosen.schedule, analysis, cfg); });
    const codegen::ScheduleProgram program =
        in_span("codegen.generate", [&] { return codegen::generate(chosen.schedule, ctx); });
    out.measured = in_quiet_span("sim.run", [&] { return sim::Simulator(cfg, ctx).run(program); });
    out.ok = true;
    out.rung = chosen.chosen_rung();
    out.valid = violations.empty();
    if (!out.valid) out.violations = render(violations);
    out.ops = program.dma_ops.size() + program.rc_ops.size();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

std::vector<Input> fixed_inputs(const Options& options) {
  std::vector<Input> inputs;
  for (const std::string& name : workloads::table1_experiment_names()) {
    inputs.push_back({name, from_experiment(name).mapp_text()});
  }
  std::vector<std::filesystem::path> files;
  const std::filesystem::path apps = std::filesystem::path(options.root) / "examples" / "apps";
  for (const auto& entry : std::filesystem::directory_iterator(apps)) {
    if (entry.path().extension() == ".mapp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) throw std::runtime_error("no .mapp files under " + apps.string());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    inputs.push_back({path.filename().string(), text.str()});
  }
  const AppInput repro = fault_repro();
  inputs.push_back({repro.name, repro.mapp_text()});
  return inputs;
}

Input family_input(std::uint64_t seed, std::uint32_t index, std::uint32_t draw) {
  Input in;
  in.name = member_name(index, draw);
  in.text = from_random(in.name, family_spec(seed, index, draw, FamilyShape{})).mapp_text();
  return in;
}

struct Setup {
  std::vector<Input> inputs;
  std::vector<Outcome> outcomes;  // warm-up pass, one per input
  std::vector<std::string> left_out;
};

/// Input generation plus one untimed warm-up pass, which also screens the
/// family draws (see draw_member).
Setup set_up(const Options& options) {
  Setup s;
  s.inputs = fixed_inputs(options);
  for (const Input& in : s.inputs) s.outcomes.push_back(verify(in.text));
  for (std::uint32_t i = 0; i < kFamilySize; ++i) {
    draw_member(
        i,
        [&](std::uint32_t draw) {
          Input in = family_input(options.seed, i, draw);
          Outcome out = verify(in.text);
          std::string disagreement = out.ok ? stall_disagreement(out.predicted, out.measured) : "";
          if (disagreement.empty()) {
            s.inputs.push_back(std::move(in));
            s.outcomes.push_back(std::move(out));
          }
          return disagreement;
        },
        s.left_out);
  }
  return s;
}

/// Σ exec_cycles × iterations, from the parsed application.
std::uint64_t compute_cycles(const model::Application& app) {
  std::uint64_t per_iteration = 0;
  for (const model::Kernel& k : app.kernels()) per_iteration += k.exec_cycles.value();
  return per_iteration * app.total_iterations();
}

/// Output checks of one input (outside the timed region).  Returns the
/// failure reason for an operation that failed, else "".
std::string check_input(const Input& in, const Outcome& out, Report& report) {
  if (!out.ok) {
    report.check(false, in.name + ": pipeline failed: " + out.error);
    return "pipeline failed: " + out.error;
  }
  const std::string disagreement =
      check_simulation(out.predicted, out.measured, in.name, "rung " + out.rung, report);
  if (!disagreement.empty()) return disagreement;
  report.check(out.valid, in.name + ": validate_schedule: " + out.violations);

  const appdsl::ParsedExperiment parsed = appdsl::parse(in.text);
  const std::uint64_t compute = compute_cycles(parsed.app);
  report.check(out.measured.compute.value() == compute,
               in.name + ": simulated compute " + std::to_string(out.measured.compute.value()) +
                   " != sum of exec_cycles x iterations " + std::to_string(compute));

  const model::KernelSchedule sched = parsed.schedule();
  const extract::ScheduleAnalysis analysis(sched, parsed.cfg.cross_set_reads);
  const dsched::DataSchedule basic = dsched::BasicScheduler().schedule(analysis, parsed.cfg);
  if (basic.feasible) {
    const sim::SimReport b = simulate(basic, parsed.cfg);
    report.check(out.measured.total <= b.total,
                 in.name + ": chosen schedule " + std::to_string(out.measured.total.value()) +
                     " cycles > Basic " + std::to_string(b.total.value()));
    report.check(out.measured.data_words_total() <= b.data_words_total(),
                 in.name + ": chosen schedule moves " +
                     std::to_string(out.measured.data_words_total()) + " words > Basic " +
                     std::to_string(b.data_words_total()));
  }
  return "";
}

}  // namespace

Report run_verify_single(const Options& options) {
  Report report;
  Setup s;
  const std::vector<double> setup_s = time_setups(kSetups, [&] { return set_up(options); }, s, report);
  const std::size_t n = s.inputs.size();

  // Timed rounds: every round verifies every input once, in order.  A
  // traced run verifies each input twice in a row, untraced then traced,
  // so the tracing overhead compares the same inputs at the same host speed.
  const std::size_t passes = options.trace ? 2 : 1;
  LayerProfile profile;
  std::vector<double> untraced_ms;
  std::size_t rounds = 0;
  const Clock::time_point run_start = Clock::now();
  while (rounds == 0 || seconds_since(run_start) < options.seconds) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::string& text = s.inputs[i].text;
      const Clock::time_point start = Clock::now();
      const Outcome out = verify(text);
      untraced_ms.push_back(ms_since(start));
      report.check(out.same_result(s.outcomes[i]),
                   s.inputs[i].name + ": timed result differs from the warm-up result");
      if (options.trace) {
        profile.untraced(untraced_ms.back());
        const Outcome traced = profile.run(1, [&] { return verify(text); });
        report.check(traced.same_result(s.outcomes[i]),
                     s.inputs[i].name + ": traced result differs from the warm-up result");
      }
    }
    ++rounds;
  }

  std::size_t failing = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string reason = check_input(s.inputs[i], s.outcomes[i], report);
    if (!reason.empty()) {
      ++failing;
      report.failures.push_back({s.inputs[i].name, reason});
    }
  }
  report.attempted = rounds * passes * n;
  report.failed = rounds * passes * failing;

  std::vector<double> kcycles;
  double ops = 0.0;
  for (const Outcome& o : s.outcomes) {
    if (!o.ok) continue;
    kcycles.push_back(static_cast<double>(o.measured.total.value()) / 1e3);
    ops += static_cast<double>(o.ops);
  }
  report.notes.push_back("verify-single: " + std::to_string(n) + " inputs (12 Table-1, " +
                         std::to_string(n - 12 - 1 - kFamilySize) + " examples, 1 fault repro, " +
                         std::to_string(kFamilySize) + " seeded family), " +
                         std::to_string(rounds) + " rounds, " +
                         std::to_string(ops / static_cast<double>(kcycles.size())) +
                         " generated RC+DMA ops per app");
  report.notes.push_back("verify_ms_p99 " + std::to_string(percentile(untraced_ms, 99)) +
                         " ms (n=" + std::to_string(untraced_ms.size()) + ")");
  note_left_out(s.left_out, report);

  if (!options.trace) {
    report_end_to_end(report, setup_s, untraced_ms, kcycles);
    return report;
  }
  profile.report_per_layer(report);
  report.check(profile.unattributed_share() < 0.1,
               "unattributed share " + std::to_string(profile.unattributed_share()) +
                   " of the traced per-app time is not under a tenth");
  profile.export_chrome(options, report);
  return report;
}

}  // namespace schedbench
