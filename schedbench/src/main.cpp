// schedbench: one benchmark for the scheduler stack.
//
//   schedbench --workload <verify-single|dse-batch|serve-trace|anneal-search>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--root <repo>] [--work-dir <dir>]
//
// Prints one line per metric (name, value, unit, sample count), one per
// failed input and per violated output check, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "msys/obs/chrome_trace.hpp"
#include "msys/obs/trace.hpp"
#include "stats.hpp"

namespace schedbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void report_end_to_end(Report& report, const std::vector<double>& setup_s,
                       const std::vector<double>& op_ms, const std::vector<double>& kcycles) {
  report.metric("setup_s", median(setup_s), "s", setup_s.size());
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("op_ms_p50", median(op_ms), "ms", op_ms.size());
  report.metric("sched_kcycles_geomean", geomean(kcycles), "kcycles", kcycles.size());
}

const std::vector<std::string>& LayerProfile::layers() {
  static const std::vector<std::string> names = {"appdsl", "extract", "csched", "dsched",
                                                 "codegen", "sim",     "engine", "store",
                                                 "serve",  "search"};
  return names;
}

namespace {

/// Per-operation counts reported by every traced run: metric name and the
/// library counter it reads.
const std::vector<std::pair<std::string, std::string>> kCounts = {
    {"dsched.plan_rounds", "dsched.plan.rounds"},
    {"dsched.rf_candidates", "dsched.rf.candidates_evaluated"},
    {"alloc.allocations", "alloc.allocations"},
    {"sim.runs", "sim.runs"},
    {"engine.compiles", "engine.jobs.compiled"},
    {"store.saves", "store.saves"},
    {"store.hits", "store.hits"},
    {"search.moves", "search.moves.proposed"},
    {"serve.transitions", "serve.transitions"},
    {"serve.preemptions", "serve.preemptions"},
};

/// The layer a span belongs to: its name up to the first '.'; the
/// library's "CDS.schedule" span is dsched's.
std::string layer_of(const std::string& span) {
  std::string prefix = span.substr(0, span.find('.'));
  if (prefix == "CDS") prefix = "dsched";
  const std::vector<std::string>& layers = LayerProfile::layers();
  if (std::find(layers.begin(), layers.end(), prefix) == layers.end()) {
    throw std::runtime_error("span " + span + " belongs to no measured layer");
  }
  return prefix;
}

}  // namespace

void LayerProfile::add_counters_since(const msys::obs::MetricsSnapshot& before) {
  for (const auto& [name, value] : msys::obs::snapshot().since(before).counters) {
    counters_.counters[name] += value;
  }
}

void LayerProfile::fold(std::unique_ptr<msys::obs::TraceRecorder> recorder, std::size_t ops) {
  ops_ += ops;
  // Wall-clock spans per thread, parents before the children they contain.
  std::map<std::uint32_t, std::vector<msys::obs::TraceEvent>> by_thread;
  for (msys::obs::TraceEvent& e : recorder->events()) {
    if (e.phase == 'X' && !e.sim_time) by_thread[e.tid].push_back(std::move(e));
  }
  for (auto& [tid, events] : by_thread) {
    std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    std::vector<double> child_ns(events.size(), 0.0);
    std::vector<std::size_t> open;  // indices of the spans containing the current one
    for (std::size_t i = 0; i < events.size(); ++i) {
      while (!open.empty() && events[open.back()].ts + events[open.back()].dur <= events[i].ts) {
        open.pop_back();
      }
      if (!open.empty()) child_ns[open.back()] += static_cast<double>(events[i].dur);
      open.push_back(i);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      const double self_us =
          std::max(0.0, static_cast<double>(events[i].dur) - child_ns[i]) / 1e3;
      if (events[i].name == kOpSpan) {
        unattributed_us_ += self_us;
      } else {
        self_us_[layer_of(events[i].name)] += self_us;
      }
    }
  }
  if (first_ == nullptr) first_ = std::move(recorder);
}

void LayerProfile::report_per_layer(Report& report) const {
  if (ops_ == 0) throw std::runtime_error("traced run made no operation");
  const double ops = static_cast<double>(ops_);
  for (const std::string& layer : layers()) {
    const auto it = self_us_.find(layer);
    report.metric(layer + ".self_us", it == self_us_.end() ? 0.0 : it->second / ops, "us", ops_);
  }
  report.metric("unattributed_us", unattributed_us_ / ops, "us", ops_);
  for (const auto& [metric, counter] : kCounts) {
    report.metric(metric, static_cast<double>(counters_.counter(counter)) / ops, "count", ops_);
  }
  const double untraced = median(untraced_ms_);
  const double traced = median(traced_ms_);
  report.metric("trace.op_ms_p50_untraced", untraced, "ms", untraced_ms_.size());
  report.metric("trace.op_ms_p50_traced", traced, "ms", traced_ms_.size());
  report.metric("trace.overhead_pct", (traced - untraced) / untraced * 100.0, "%");
}

void LayerProfile::export_chrome(const Options& options, Report& report) const {
  if (first_ == nullptr) return;
  std::filesystem::create_directories(options.work_dir);
  const std::string path = options.work_dir + "/trace-" + options.workload + ".json";
  std::ofstream out(path);
  msys::obs::write_chrome_trace(out, *first_);
  report.check(out.good(), "cannot write the Chrome trace " + path);
  report.notes.push_back("chrome trace of the first traced operation: " + path + " (" +
                         std::to_string(first_->event_count()) + " events)");
}

}  // namespace schedbench

namespace {

using schedbench::Options;
using schedbench::Report;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// All digits of a measured value (the JSON consumer compares runs).
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

int usage(const char* why) {
  std::cerr << "schedbench: " << why
            << "\nusage: schedbench --workload <verify-single|dse-batch|serve-trace|"
               "anneal-search> --seed <n> --seconds <s> --trace <0|1> [--root <dir>] "
               "[--work-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--root") {
        options.root = value;
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  Report report;
  try {
    if (options.workload == "verify-single") {
      report = schedbench::run_verify_single(options);
    } else if (options.workload == "dse-batch") {
      report = schedbench::run_dse_batch(options);
    } else if (options.workload == "serve-trace") {
      report = schedbench::run_serve_trace(options);
    } else if (options.workload == "anneal-search") {
      report = schedbench::run_anneal_search(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "schedbench: " << options.workload << " aborted: " << e.what() << '\n';
    return 1;
  }

  for (const std::string& note : report.notes) std::cout << "# " << note << '\n';
  for (const schedbench::Metric& m : report.metrics) {
    std::cout << "metric " << m.name << " = " << number(m.value) << ' ' << m.unit
              << " (n=" << m.samples << ")\n";
  }
  std::cout << "operations attempted=" << report.attempted << " failed=" << report.failed
            << '\n';
  for (const schedbench::Failure& f : report.failures) {
    std::cout << "failed " << f.input << ": " << f.reason << '\n';
  }
  for (const std::string& e : report.check_errors) std::cout << "CHECK FAILED " << e << '\n';

  std::ostringstream json;
  json << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const schedbench::Metric& m = report.metrics[i];
    json << (i == 0 ? "" : ", ") << '"' << json_escape(m.name) << "\": {\"value\": "
         << number(m.value) << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
