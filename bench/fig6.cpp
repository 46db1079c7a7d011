// Regenerates the paper's Figure 6: relative execution improvement of the
// Complete Data Scheduler (first bar) and the Data Scheduler (second bar)
// over the Basic Scheduler, for all twelve experiments.
#include <iostream>

#include "msys/report/tables.hpp"
#include "msys/workloads/experiments.hpp"

int main() {
  using namespace msys;
  std::vector<workloads::Experiment> experiments;
  for (const std::string& name : workloads::table1_experiment_names()) {
    experiments.push_back(workloads::make_experiment(name));
  }
  // Fanned across a pool: results come back in spec order and identical
  // to an inline run, whatever the worker count.
  std::vector<report::ExperimentSpec> specs;
  for (const workloads::Experiment& exp : experiments) {
    specs.push_back({exp.name, &exp.sched, exp.cfg});
  }
  engine::ThreadPool pool(engine::ThreadPool::hardware_threads());
  const std::vector<report::ExperimentResult> results = report::run_all(specs, &pool);

  std::cout << "Figure 6. Relative execution improvement (%)\n\n";
  std::cout << report::fig6_ascii(results) << '\n';
  report::fig6(results).print(std::cout);
  return 0;
}
