#include "inputs.hpp"

#include <sstream>

#include "msys/appdsl/parser.hpp"
#include "msys/codegen/program.hpp"
#include "msys/common/rng.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/workloads/experiments.hpp"

namespace schedbench {

using namespace msys;

engine::CompileInput AppInput::compile_input() const {
  return engine::make_input(*app, partition, cfg);
}

std::string AppInput::mapp_text() const {
  std::vector<std::vector<std::string>> names;
  for (const auto& cluster : partition) {
    std::vector<std::string>& row = names.emplace_back();
    for (KernelId k : cluster) row.push_back(app->kernel(k).name);
  }
  return appdsl::write(*app, names, cfg);
}

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed).split(stream).next_u64();
}

template <class Exp>
AppInput adopt(std::string name, Exp exp) {
  AppInput in;
  in.name = std::move(name);
  for (const model::Cluster& c : exp.sched.clusters()) in.partition.push_back(c.kernels);
  in.cfg = exp.cfg;
  in.app = std::shared_ptr<const model::Application>(std::move(exp.app));
  return in;
}

}  // namespace

AppInput from_random(std::string name, const workloads::RandomSpec& spec) {
  return adopt(std::move(name), workloads::make_random(spec));
}

AppInput from_experiment(const std::string& table1_name) {
  return adopt(table1_name, workloads::make_experiment(table1_name));
}

workloads::RandomSpec family_spec(std::uint64_t seed, std::uint32_t index, std::uint32_t draw,
                                  const FamilyShape& shape) {
  const std::uint32_t kernel_span = shape.max_kernels - shape.min_kernels + 1;
  const std::uint32_t iter_span = shape.max_iterations - shape.min_iterations + 1;
  workloads::RandomSpec spec;
  spec.seed = mix(seed, (static_cast<std::uint64_t>(draw) << 32) | index);
  spec.min_kernels = spec.max_kernels = shape.min_kernels + index % kernel_span;
  // 13 is coprime to every span used here, so the iteration sweep is a
  // permutation decorrelated from the kernel sweep.
  spec.min_iterations = spec.max_iterations =
      shape.min_iterations + (index * 13U) % iter_span;
  return spec;
}

std::string member_name(std::uint32_t index, std::uint32_t draw) {
  std::string name = "family-" + std::to_string(index);
  if (draw > 0) {
    name += '.';
    name += std::to_string(draw);
  }
  return name;
}

void note_left_out(const std::vector<std::string>& left_out, Report& report) {
  for (const std::string& draw : left_out) {
    report.notes.push_back("left out for the known stall disagreement: " + draw);
  }
}

AppInput fault_repro() {
  workloads::RandomSpec spec;
  spec.seed = 5079;
  spec.min_kernels = 4;
  spec.max_kernels = 8;
  spec.min_iterations = 8;
  spec.max_iterations = 16;
  spec.reuse_percent = 60;
  spec.shared_inputs = 3;
  return from_random("repro-5079", spec);
}

namespace {

std::string cost_mismatch(const dsched::CostBreakdown& p, const sim::SimReport& m) {
  std::ostringstream out;
  auto field = [&](const char* name, std::uint64_t predicted, std::uint64_t measured) {
    if (predicted != measured) {
      out << (out.tellp() > 0 ? ", " : "") << name << " predicted " << predicted
          << " simulated " << measured;
    }
  };
  field("total", p.total.value(), m.total.value());
  field("compute", p.compute.value(), m.compute.value());
  field("stall", p.stall.value(), m.stall.value());
  field("dma_busy", p.dma_busy.value(), m.dma_busy.value());
  field("words_loaded", p.data_words_loaded, m.data_words_loaded);
  field("words_stored", p.data_words_stored, m.data_words_stored);
  field("context_words", p.context_words, m.context_words);
  field("dma_requests", p.dma_requests, m.dma_requests);
  return out.str();
}

bool is_stall_disagreement(const dsched::CostBreakdown& p, const sim::SimReport& m) {
  return p.total != m.total && p.compute == m.compute && p.dma_busy == m.dma_busy &&
         p.data_words_loaded == m.data_words_loaded &&
         p.data_words_stored == m.data_words_stored && p.context_words == m.context_words &&
         p.dma_requests == m.dma_requests;
}

}  // namespace

std::string stall_disagreement(const dsched::CostBreakdown& p, const sim::SimReport& m) {
  return is_stall_disagreement(p, m) ? cost_mismatch(p, m) : "";
}

std::string check_simulation(const dsched::CostBreakdown& predicted,
                             const sim::SimReport& measured, const std::string& input,
                             const std::string& schedule, Report& report) {
  const std::string mismatch = cost_mismatch(predicted, measured);
  if (mismatch.empty()) return "";
  const bool known = is_stall_disagreement(predicted, measured);
  report.check(known, input + ": cost model and simulator disagree: " + mismatch);
  return std::string(known ? "predict_cost/simulator stall disagreement"
                           : "predict_cost/simulator disagreement") +
         " (" + schedule + "): " + mismatch;
}

sim::SimReport simulate(const dsched::DataSchedule& schedule, const arch::M1Config& cfg) {
  const csched::ContextPlan ctx = csched::ContextPlan::build(*schedule.sched, cfg.cm_capacity_words);
  const codegen::ScheduleProgram program = codegen::generate(schedule, ctx);
  return sim::Simulator(cfg, ctx).run(program);
}

}  // namespace schedbench
