// serve-trace: multi-tenant serving.  ServeLoop::run on an even 4-tenant
// partition with 2 compile threads replays a generated trace, open loop
// in virtual time: 20 000 arrivals over a few dozen distinct workloads,
// 2 priority levels, no deadlines and no shed watermark, so no arrival is
// refused.  The compile phase is almost all engine cache hits, the
// opposite of dse-batch; the rest is admission, preemption and transition
// charges in the virtual-time replay.  The traced run also searches the
// capacity by replaying the same trace shape at other mean gaps.
#include <map>

#include "bench.hpp"
#include "msys/serve/partition.hpp"
#include "msys/serve/serve_loop.hpp"
#include "msys/serve/trace_file.hpp"
#include "stats.hpp"

namespace schedbench {

using namespace msys;

namespace {

constexpr std::uint32_t kArrivals = 20000;
constexpr std::uint32_t kStreams = 8;
constexpr std::uint32_t kWorkloads = 32;
constexpr std::uint32_t kTenants = 4;
constexpr unsigned kThreads = 2;
constexpr int kSetups = 3;
/// Mean interarrival gap per stream at the base rate, in cycles.
constexpr std::uint64_t kBaseGapCycles = 600000;
/// The capacity search's latency limit on the virtual p99, in cycles.
constexpr std::uint64_t kP99LimitCycles = 3000000;
/// Bisection stops when the bracket is within 1% of the passing rate.
constexpr double kCapacityResolution = 0.01;

serve::TraceGenSpec trace_spec(std::uint64_t seed, std::uint64_t gap_cycles) {
  serve::TraceGenSpec spec;
  spec.seed = seed;
  spec.jobs = kArrivals;
  spec.streams = kStreams;
  spec.mean_gap_cycles = gap_cycles;
  spec.deadline_cycles = 0;
  spec.priorities = 2;
  spec.workloads = kWorkloads;
  return spec;
}

/// Arrivals per million cycles, summed over streams.
double rate_per_mcycle(std::uint64_t gap_cycles) {
  return static_cast<double>(kStreams) * 1e6 / static_cast<double>(gap_cycles);
}
std::uint64_t gap_for_rate(double rate) {
  return static_cast<std::uint64_t>(static_cast<double>(kStreams) * 1e6 / rate);
}

serve::TenantPartition make_partition() {
  const arch::M1Config machine = arch::M1Config::m1_default();
  serve::TenantPartition::BuildResult built =
      serve::TenantPartition::build(machine, serve::TenantPartition::even_specs(machine, kTenants));
  if (!built.ok()) throw std::runtime_error("even partition rejected: " + render(built.diagnostics));
  return *built.partition;
}

serve::ServeReport serve_once(const serve::TenantPartition& partition,
                              const serve::TraceFile& trace, unsigned threads) {
  serve::ServeOptions options;
  options.threads = threads;
  serve::ServeLoop loop(partition, options);
  return loop.run(trace);
}

std::string outcome_bytes(const serve::ServeReport& report) {
  std::string out;
  for (const serve::JobOutcome& o : report.outcomes) {
    out += serve::canonical_outcome_line(o);
    out += '\n';
  }
  return out;
}

/// Output checks of one replay, computed from the per-job outcomes.
void check_report(const serve::ServeReport& r, std::size_t arrivals, Report& report) {
  const serve::ServeStats& st = r.stats;
  report.check(r.outcomes.size() == arrivals && st.jobs == arrivals,
               "serve returned " + std::to_string(r.outcomes.size()) + " outcomes for " +
                   std::to_string(arrivals) + " arrivals");
  auto conserved = [](const auto& s) {
    return s.completed + s.rejected + s.shed + s.infeasible + s.compile_timeouts == s.jobs;
  };
  report.check(conserved(st), "conservation identity fails in total");
  std::size_t tenant_jobs = 0;
  for (const serve::TenantStats& t : st.tenants) {
    report.check(conserved(t), "conservation identity fails for tenant " + t.name);
    tenant_jobs += t.jobs;
  }
  report.check(tenant_jobs == st.jobs, "tenant job counts do not sum to the total");
  report.check(st.completed == arrivals,
               std::to_string(arrivals - st.completed) + " arrivals did not complete");

  std::map<std::string, std::uint64_t> service_sum;
  std::size_t bad_order = 0;
  for (const serve::JobOutcome& o : r.outcomes) {
    if (!o.completed()) continue;
    if (o.start_cycles < o.arrive_cycles ||
        o.finish_cycles - o.arrive_cycles < o.service_cycles) {
      ++bad_order;
    }
    service_sum[o.tenant] += o.service_cycles;
  }
  report.check(bad_order == 0, std::to_string(bad_order) +
                                   " jobs start before arrival or finish faster than service");
  for (const serve::TenantStats& t : st.tenants) {
    report.check(service_sum[t.name] <= t.makespan_cycles,
                 "tenant " + t.name + " service " + std::to_string(service_sum[t.name]) +
                     " cycles exceed its makespan " + std::to_string(t.makespan_cycles));
  }
}

}  // namespace

Report run_serve_trace(const Options& options) {
  Report report;
  const serve::TenantPartition partition = make_partition();

  std::vector<double> generate_ms;
  serve::TraceFile trace;
  const std::vector<double> setup_s = time_setups(
      kSetups,
      [&] {
        const Clock::time_point start = Clock::now();
        serve::TraceFile generated = serve::generate_trace(trace_spec(options.seed, kBaseGapCycles));
        generate_ms.push_back(ms_since(start));
        (void)serve_once(partition, generated, kThreads);
        return generated;
      },
      trace, report);
  const std::size_t arrivals = trace.events.size();
  const double per_op = static_cast<double>(arrivals);

  // Timed repetitions: each replays the whole trace; one operation is one
  // arrival, and a repetition's sample is its wall time per arrival.  A
  // traced run follows each untraced repetition with a traced one.
  LayerProfile profile;
  std::vector<double> op_ms;
  std::vector<double> compile_ms;
  serve::ServeReport base;
  std::string base_bytes;
  std::size_t reps = 0;
  const Clock::time_point run_start = Clock::now();
  while (reps < 3 || seconds_since(run_start) < options.seconds) {
    const Clock::time_point start = Clock::now();
    serve::ServeReport r = serve_once(partition, trace, kThreads);
    op_ms.push_back(ms_since(start) / per_op);
    compile_ms.push_back(r.stats.compile.wall_ms);
    std::string bytes = outcome_bytes(r);
    if (reps == 0) {
      base = std::move(r);
      base_bytes = std::move(bytes);
    } else {
      report.check(bytes == base_bytes, "outcomes differ between repetitions");
    }
    if (options.trace) {
      profile.untraced(op_ms.back());
      const serve::ServeReport traced =
          profile.run(arrivals, [&] { return serve_once(partition, trace, kThreads); });
      report.check(outcome_bytes(traced) == base_bytes, "traced outcomes differ from untraced ones");
    }
    ++reps;
  }

  check_report(base, arrivals, report);
  report.check(outcome_bytes(serve_once(partition, trace, 1)) == base_bytes,
               "outcome lines differ between 1 and 2 compile threads");
  report.attempted = reps * (options.trace ? 2 : 1) * arrivals;
  report.failed = reps * (options.trace ? 2 : 1) * (arrivals - base.stats.completed);

  std::vector<double> kcycles;
  for (const serve::JobOutcome& o : base.outcomes) {
    if (o.completed()) kcycles.push_back(static_cast<double>(o.service_cycles) / 1e3);
  }
  report.notes.push_back(
      "serve-trace: " + std::to_string(arrivals) + " arrivals, " + std::to_string(kStreams) +
      " streams, " + std::to_string(kWorkloads) + " workloads, base gap " +
      std::to_string(kBaseGapCycles) + " cycles/stream (" +
      std::to_string(rate_per_mcycle(kBaseGapCycles)) + " arrivals/Mcycle), " +
      std::to_string(reps) + " repetitions");
  report.notes.push_back(
      "virtual latency p50 " + std::to_string(base.stats.p50_latency_cycles) + " p99 " +
      std::to_string(base.stats.p99_latency_cycles) + " cycles, makespan " +
      std::to_string(base.stats.makespan_cycles) + ", transitions " +
      std::to_string(base.stats.transitions) + " (" + std::to_string(base.stats.transition_cycles) +
      " cycles), preemptions " + std::to_string(base.stats.preemptions) + "; compile " +
      std::to_string(median(compile_ms)) + " ms of each replay, trace generation " +
      std::to_string(median(generate_ms)) + " ms");

  if (!options.trace) {
    report_end_to_end(report, setup_s, op_ms, kcycles);
    return report;
  }

  int probes = 0;
  const double capacity = find_capacity(
      rate_per_mcycle(kBaseGapCycles), kCapacityResolution,
      [&](double rate) {
        const serve::ServeReport r =
            serve_once(partition, serve::generate_trace(trace_spec(options.seed, gap_for_rate(rate))),
                       kThreads);
        return r.stats.completed == r.stats.jobs && r.stats.p99_latency_cycles <= kP99LimitCycles;
      },
      &probes);
  report.notes.push_back("capacity at virtual p99 <= " + std::to_string(kP99LimitCycles) +
                         " cycles: " + std::to_string(capacity) + " arrivals/Mcycle (" +
                         std::to_string(probes) + " probes)");
  profile.report_per_layer(report);
  profile.export_chrome(options, report);
  return report;
}

}  // namespace schedbench
