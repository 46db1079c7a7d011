// dse-batch: design-space exploration through the engine and the store.
// One repetition runs three batches of the same jobs (each distinct app
// three times, in rounds: all distinct apps, then all again) with
// SchedulerKind::kFallback on a 2-thread pool:
//   (a) cold, on a fresh memory-only ScheduleCache;
//   (b) cold, writing through to an empty DiskScheduleStore;
//   (c) restart: a fresh memory cache over the store (b) filled.
// Duplicates are spread out on purpose: adjacent duplicates park both
// workers behind one single-flight compile, and the batch then measures
// waiting rather than compiling.
#include <filesystem>
#include <map>

#include "bench.hpp"
#include "inputs.hpp"
#include "msys/dsched/alloc_driver.hpp"
#include "msys/engine/batch_runner.hpp"
#include "msys/engine/result_codec.hpp"
#include "msys/extract/analysis.hpp"
#include "msys/obs/metrics.hpp"
#include "stats.hpp"

namespace schedbench {

using namespace msys;

namespace {

constexpr std::uint32_t kDistinct = 400;
constexpr int kCopies = 3;
constexpr int kSetups = 3;
constexpr unsigned kThreads = 2;

struct Fingerprint {
  std::uint64_t key{0};
  std::string rung;
  std::uint64_t cycles{0};

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint fingerprint(std::uint64_t key, const engine::CompiledResult& r) {
  return {key, r.outcome.chosen_rung(), r.predicted.total.value()};
}

engine::Job make_job(const AppInput& in) {
  engine::Job job;
  job.input = in.compile_input();
  job.kind = engine::SchedulerKind::kFallback;
  return job;
}

struct Setup {
  std::vector<std::string> names;  // per distinct job
  std::vector<engine::Job> distinct;
  std::vector<engine::Job> jobs;   // kCopies rounds of `distinct`
  std::vector<std::string> left_out;
};

struct Phase {
  std::vector<engine::JobResult> results;
  engine::BatchStats stats;
  double seconds{0.0};
  std::uint64_t compiled{0};    // engine.jobs.compiled delta
  std::uint64_t disk_hits{0};   // cache instance disk tier hits
  obs::MetricsSnapshot counters;
};

Phase run_phase(engine::ThreadPool& pool, const std::vector<engine::Job>& jobs,
                std::shared_ptr<store::DiskScheduleStore> store) {
  engine::ScheduleCache::Config config(4 * jobs.size(), 8);
  config.store = std::move(store);
  engine::ScheduleCache cache(config);
  engine::BatchRunner runner(pool, &cache);
  Phase phase;
  const obs::MetricsSnapshot before = obs::snapshot();
  const Clock::time_point start = Clock::now();
  phase.results = runner.run(jobs, &phase.stats);
  phase.seconds = seconds_since(start);
  phase.counters = obs::snapshot().since(before);
  phase.compiled = phase.counters.counter("engine.jobs.compiled");
  phase.disk_hits = cache.stats().disk_hits;
  return phase;
}

std::shared_ptr<store::DiskScheduleStore> open_store(const std::string& dir) {
  std::filesystem::remove_all(dir);
  store::StoreConfig config;
  config.dir = dir;
  std::string error;
  std::shared_ptr<store::DiskScheduleStore> s = store::DiskScheduleStore::open(config, &error);
  if (s == nullptr) throw std::runtime_error("cannot open store " + dir + ": " + error);
  return s;
}

struct Rep {
  Phase cold;
  Phase persist;
  Phase restart;
};

Rep run_rep(engine::ThreadPool& pool, const Setup& s, const std::string& store_dir) {
  Rep rep;
  rep.cold = run_phase(pool, s.jobs, nullptr);
  std::shared_ptr<store::DiskScheduleStore> disk = open_store(store_dir);
  rep.persist = run_phase(pool, s.jobs, disk);
  rep.restart = run_phase(pool, s.jobs, disk);
  return rep;
}

/// Input generation plus one untimed warm-up: a cold in-memory batch.  The
/// store phases are left out of set-up, because their time follows the
/// filesystem rather than the program.  Family draws are screened by a
/// serial compile and a re-simulation (see draw_member).
Setup set_up(const Options& options, engine::ThreadPool& pool) {
  Setup s;
  auto add = [&](const AppInput& in) {
    s.names.push_back(in.name);
    s.distinct.push_back(make_job(in));
  };
  add(fault_repro());
  for (std::uint32_t i = 0; i < kDistinct; ++i) {
    draw_member(
        i,
        [&](std::uint32_t draw) {
          const AppInput in =
              from_random(member_name(i, draw), family_spec(options.seed, i, draw, FamilyShape{}));
          const auto result = engine::compile_job(make_job(in));
          std::string disagreement =
              result->feasible()
                  ? stall_disagreement(result->predicted, simulate(result->outcome.schedule, in.cfg))
                  : "";
          if (disagreement.empty()) add(in);
          return disagreement;
        },
        s.left_out);
  }
  for (int c = 0; c < kCopies; ++c) s.jobs.insert(s.jobs.end(), s.distinct.begin(), s.distinct.end());
  (void)run_phase(pool, s.jobs, nullptr);
  return s;
}

/// One distinct job through the layers a batch job passes, each called
/// from here in its own span: the cache key, the compile, the RF search
/// and Figure-4 walk at the chosen RF, and the store round trip with the
/// result codec.  Returns "" when every step gave the expected result.
std::string layer_pass(const engine::Job& job, const Fingerprint& reference,
                       store::DiskScheduleStore& disk) {
  const std::uint64_t key = in_span("engine.cache_key", [&] { return engine::cache_key(job); });
  const auto result = in_span("engine.compile_job", [&] { return engine::compile_job(job); });
  const extract::ScheduleAnalysis analysis = in_span("extract.analysis", [&] {
    return extract::ScheduleAnalysis(*job.input.sched, job.input.cfg.cross_set_reads);
  });
  const std::uint32_t max_rf = in_span("dsched.compute_max_rf", [&] {
    return dsched::compute_max_rf(analysis, job.input.cfg, dsched::DriverOptions{});
  });
  if (max_rf < 1) return "compute_max_rf found no feasible RF";
  const dsched::DataSchedule& chosen = result->outcome.schedule;
  dsched::DriverOptions walk;
  walk.rf = chosen.rf;
  walk.retained = chosen.retained;
  const dsched::DriverResult plan = in_span("dsched.plan_round", [&] {
    return dsched::plan_round(analysis, job.input.cfg.fb_set_size, walk);
  });
  if (!plan.ok) return "plan_round at the chosen RF failed";
  if (!engine::persistable(*result)) return "";
  const std::string payload = in_span("engine.encode_result", [&] { return engine::encode_result(*result); });
  const bool saved = in_span("store.save", [&] { return disk.save(key, payload); });
  const std::optional<std::string> loaded = in_span("store.load", [&] { return disk.load(key); });
  if (!saved || loaded != payload) return "store round trip failed";
  const auto decoded = in_span("engine.decode_result", [&] { return engine::decode_result(payload, job); });
  if (decoded == nullptr || !(fingerprint(key, *decoded) == reference)) {
    return "decode replay differs from the compiled result";
  }
  return "";
}

}  // namespace

Report run_dse_batch(const Options& options) {
  Report report;
  std::filesystem::create_directories(options.work_dir);
  const std::string store_dir = options.work_dir + "/dse-store";
  std::filesystem::remove_all(store_dir);
  engine::ThreadPool pool(kThreads);

  Setup s;
  const std::vector<double> setup_s =
      time_setups(kSetups, [&] { return set_up(options, pool); }, s, report);
  const std::size_t n_distinct = s.distinct.size();
  const std::size_t n_jobs = s.jobs.size();

  // Reference results: serial, uncached compiles, each re-simulated.
  std::vector<Fingerprint> reference;
  std::vector<std::string> failing(n_distinct);
  std::vector<double> kcycles;
  for (std::size_t d = 0; d < n_distinct; ++d) {
    const engine::Job& job = s.distinct[d];
    const auto r = engine::compile_job(job);
    reference.push_back(fingerprint(engine::cache_key(job), *r));
    if (!r->feasible()) {
      report.check(false, s.names[d] + ": infeasible");
      failing[d] = "infeasible";
      continue;
    }
    const sim::SimReport measured = simulate(r->outcome.schedule, job.input.cfg);
    kcycles.push_back(static_cast<double>(measured.total.value()) / 1e3);
    failing[d] = check_simulation(r->predicted, measured, s.names[d],
                                  "rung " + r->outcome.chosen_rung(), report);
  }

  // Timed repetitions.  One operation is one job; a repetition's sample is
  // the wall time per job over the cold (a) and restart (c) batches.  The
  // write-through batch (b) runs and is checked in every repetition but
  // is left out of the sample: its time follows the filesystem's
  // create+rename latency, which varied between runs by more than any
  // end-to-end bound allows.
  std::vector<double> op_ms;
  std::vector<double> cold_rate, persist_rate, restart_rate;
  engine::BatchStats cold_stats;
  std::size_t reps = 0;
  const Clock::time_point run_start = Clock::now();
  while (reps < 3 || seconds_since(run_start) < options.seconds) {
    const Rep rep = run_rep(pool, s, store_dir + "/" + std::to_string(reps));
    ++reps;
    op_ms.push_back((rep.cold.seconds + rep.restart.seconds) * 1e3 / (2.0 * static_cast<double>(n_jobs)));
    cold_rate.push_back(static_cast<double>(n_jobs) / rep.cold.seconds);
    persist_rate.push_back(static_cast<double>(n_jobs) / rep.persist.seconds);
    restart_rate.push_back(static_cast<double>(n_jobs) / rep.restart.seconds);
    cold_stats = rep.cold.stats;

    for (const Phase* phase : {&rep.cold, &rep.persist, &rep.restart}) {
      for (std::size_t j = 0; j < n_jobs; ++j) {
        const engine::JobResult& r = phase->results[j];
        if (!(fingerprint(r.key, *r.result) == reference[j % n_distinct])) {
          report.check(false, s.names[j % n_distinct] +
                                  ": batch result differs from the serial uncached compile");
        }
      }
    }
    report.check(rep.restart.compiled == 0 && rep.restart.disk_hits == n_distinct,
                 "restart phase compiled " + std::to_string(rep.restart.compiled) +
                     " jobs and read " + std::to_string(rep.restart.disk_hits) + " of " +
                     std::to_string(n_distinct) + " distinct jobs from the store");
    report.check(rep.persist.counters.counter("store.saves") == n_distinct,
                 "persist phase saved " +
                     std::to_string(rep.persist.counters.counter("store.saves")) + " records, not " +
                     std::to_string(n_distinct));
  }

  // Stores are deleted only now, so no deletion runs inside a timed batch.
  std::filesystem::remove_all(store_dir);

  std::size_t failing_distinct = 0;
  for (std::size_t d = 0; d < n_distinct; ++d) {
    if (failing[d].empty()) continue;
    ++failing_distinct;
    report.failures.push_back({s.names[d], failing[d]});
  }
  report.attempted = reps * 3 * n_jobs;
  report.failed = reps * 3 * kCopies * failing_distinct;
  report.notes.push_back("dse-batch: " + std::to_string(n_distinct) + " distinct apps (" +
                         std::to_string(kDistinct) + " seeded family, 1 fault repro) x " +
                         std::to_string(kCopies) + " = " + std::to_string(n_jobs) +
                         " jobs per batch, " + std::to_string(reps) + " repetitions");
  report.notes.push_back("jobs/s medians: cold " + std::to_string(median(cold_rate)) +
                         ", write-through " + std::to_string(median(persist_rate)) +
                         ", restart " + std::to_string(median(restart_rate)) +
                         "; last cold batch: hit rate " + std::to_string(cold_stats.hit_rate()) +
                         ", miss " + std::to_string(cold_stats.avg_miss_ms()) + " ms, wait " +
                         std::to_string(cold_stats.avg_inflight_wait_ms()) + " ms, queue peak " +
                         std::to_string(pool.queue_depth_peak()));
  note_left_out(s.left_out, report);

  if (!options.trace) {
    report_end_to_end(report, setup_s, op_ms, kcycles);
    return report;
  }

  // Traced operation: one distinct job through layer_pass, serially, each
  // job untraced and then traced, each time into a fresh store.
  LayerProfile profile;
  const std::string untraced_dir = options.work_dir + "/dse-layer-untraced";
  const std::string traced_dir = options.work_dir + "/dse-layer-traced";
  std::shared_ptr<store::DiskScheduleStore> untraced_store = open_store(untraced_dir);
  std::shared_ptr<store::DiskScheduleStore> traced_store = open_store(traced_dir);
  for (std::size_t d = 0; d < n_distinct; ++d) {
    const Clock::time_point start = Clock::now();
    const std::string untraced = layer_pass(s.distinct[d], reference[d], *untraced_store);
    profile.untraced(ms_since(start));
    const std::string traced =
        profile.run(1, [&] { return layer_pass(s.distinct[d], reference[d], *traced_store); });
    report.check(untraced.empty() && traced.empty(), s.names[d] + ": " + untraced + traced);
  }
  double record_bytes = 0.0;
  std::size_t records = 0;
  for (const auto& entry : std::filesystem::directory_iterator(traced_store->dir())) {
    if (entry.is_regular_file() && entry.path().extension() == ".msr") {
      record_bytes += static_cast<double>(entry.file_size());
      ++records;
    }
  }
  untraced_store.reset();
  traced_store.reset();
  std::filesystem::remove_all(untraced_dir);
  std::filesystem::remove_all(traced_dir);
  report.notes.push_back("store records: " + std::to_string(records) + ", " +
                         std::to_string(record_bytes / static_cast<double>(records)) +
                         " bytes each");
  profile.report_per_layer(report);
  profile.export_chrome(options, report);
  return report;
}

}  // namespace schedbench
