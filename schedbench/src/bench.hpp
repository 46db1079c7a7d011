// Shared plumbing of the benchmark: run options, the report every
// workload fills in, wall clocks, the metrics every workload reports, and
// the layer profile of a traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"

namespace schedbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Repository root: example inputs are read from <root>/examples/apps.
  std::string root{"."};
  /// Scratch directory for stores and trace files; run.py empties it
  /// before each run, so it holds the last run's Chrome trace.
  std::string work_dir{".bench_build/schedbench-work"};
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
  /// Samples the value summarises (1 for a single measurement).
  std::size_t samples{1};
};

/// An operation that failed, with the input it ran on.
struct Failure {
  std::string input;
  std::string reason;
};

struct Report {
  /// False when any output check failed on an operation that did not fail.
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Metric> metrics;
  /// Distinct failing inputs (each counts once per round in `failed`).
  std::vector<Failure> failures;
  /// Output checks that did not hold.
  std::vector<std::string> check_errors;
  /// Free-form lines printed before the result (input make-up, figures
  /// that are not metrics, trace file).
  std::vector<std::string> notes;

  void metric(std::string name, double value, std::string unit, std::size_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      if (check_errors.size() < 50) check_errors.push_back(what);
    }
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double ms_since(Clock::time_point start) { return seconds_since(start) * 1e3; }

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Times `set_up` (input generation plus one untimed warm-up) `times`
/// times; the last result is kept in `out`.  Returns the seconds of each
/// and notes them in `report`.
template <class SetUp, class Result>
std::vector<double> time_setups(int times, SetUp&& set_up, Result& out, Report& report) {
  std::vector<double> seconds;
  std::string note = "set-up seconds:";
  for (int i = 0; i < times; ++i) {
    const Clock::time_point start = Clock::now();
    out = set_up();
    seconds.push_back(seconds_since(start));
    note += ' ';
    note += std::to_string(seconds.back());
  }
  report.notes.push_back(note);
  return seconds;
}

/// The end-to-end metrics, the same four for every workload (--trace 0):
/// the median set-up time, peak memory, the median wall time of one
/// operation (`op_ms`, one sample per operation or per batch of them), and
/// the geometric mean of the simulated cycles of the schedules the
/// operations produced (`kcycles`, one per distinct schedule).
void report_end_to_end(Report& report, const std::vector<double>& setup_s,
                       const std::vector<double>& op_ms, const std::vector<double>& kcycles);

/// Name of the span the benchmark opens around each traced operation.
/// Its self time is the operation's time that no layer's span covers.
inline constexpr const char* kOpSpan = "schedbench.op";

/// Calls `fn` inside a span named `name`, which is recorded only while a
/// traced operation runs.  For calls the benchmark makes into a layer.
template <class Fn>
auto in_span(const char* name, Fn&& fn) {
  msys::obs::ScopedSpan span(name, "schedbench");
  return fn();
}

/// Like in_span, with the library's own tracing off inside `fn`.  For the
/// simulator, whose per-op timeline events would otherwise add their
/// recording cost to the simulator's time.
template <class Fn>
auto in_quiet_span(const char* name, Fn&& fn) {
  msys::obs::ScopedSpan span(name, "schedbench");
  struct Quiet {
    msys::obs::TraceRecorder* recorder = msys::obs::TraceRecorder::active();
    Quiet() { msys::obs::TraceRecorder::set_active(nullptr); }
    ~Quiet() { msys::obs::TraceRecorder::set_active(recorder); }
  } quiet;
  return fn();
}

/// Per-layer figures of a traced run (--trace 1), the same for every
/// workload.  Each traced operation runs with its own TraceRecorder
/// installed, so it records the library's own spans (sim.run,
/// dsched.fallback, engine.compile, serve.replay, search.move, ...) and
/// the spans the benchmark opens around the calls it makes itself
/// (appdsl.parse, extract.analysis, store.save, ...).  A span's self time
/// (its duration less that of the spans nested in it on the same thread)
/// goes to the layer named by the span's prefix.  Library counters are
/// read as deltas over the traced operations.
class LayerProfile {
 public:
  /// Runs `fn` as `ops` traced operations: installs a fresh recorder,
  /// opens kOpSpan, calls `fn`, and appends the wall time in ms (span
  /// recording included, folding not) to the traced samples.  Returns
  /// what `fn` returns.
  template <class Fn>
  auto run(std::size_t ops, Fn&& fn) {
    auto recorder = std::make_unique<msys::obs::TraceRecorder>();
    const msys::obs::MetricsSnapshot before = msys::obs::snapshot();
    const Clock::time_point start = Clock::now();
    auto result = [&] {
      msys::obs::TraceSession session(*recorder);
      msys::obs::ScopedSpan op(kOpSpan, "schedbench");
      return fn();
    }();
    const double ms = ms_since(start);
    traced_total_us_ += ms * 1e3;
    traced_ms_.push_back(ms / static_cast<double>(ops));
    add_counters_since(before);
    fold(std::move(recorder), ops);
    return result;
  }
  /// Adds an untraced sample of the same operation, in ms per operation,
  /// for the tracing overhead.
  void untraced(double ms_per_op) { untraced_ms_.push_back(ms_per_op); }

  /// Emits every per-layer metric into `report`, per traced operation.
  void report_per_layer(Report& report) const;
  /// Writes the first traced operation's spans through the library's
  /// Chrome-trace exporter to <work_dir>/trace-<workload>.json.
  void export_chrome(const Options& options, Report& report) const;

  /// Share of the traced operations' wall time that no layer's span
  /// covers on the calling thread.
  [[nodiscard]] double unattributed_share() const { return unattributed_us_ / traced_total_us_; }

  /// The layers, by span-name prefix, in report order.
  static const std::vector<std::string>& layers();

 private:
  void add_counters_since(const msys::obs::MetricsSnapshot& before);
  void fold(std::unique_ptr<msys::obs::TraceRecorder> recorder, std::size_t ops);

  std::map<std::string, double> self_us_;
  double unattributed_us_{0.0};
  double traced_total_us_{0.0};
  msys::obs::MetricsSnapshot counters_;
  std::size_t ops_{0};
  std::vector<double> traced_ms_;
  std::vector<double> untraced_ms_;
  std::unique_ptr<msys::obs::TraceRecorder> first_;
};

/// Entry points, one per workload.
Report run_verify_single(const Options& options);
Report run_dse_batch(const Options& options);
Report run_serve_trace(const Options& options);
Report run_anneal_search(const Options& options);

}  // namespace schedbench
