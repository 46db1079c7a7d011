#include "msys/serve/chaos.hpp"

#include <atomic>
#include <filesystem>
#include <optional>
#include <sstream>
#include <utility>

#include "msys/arch/m1.hpp"
#include "msys/common/fault_injector.hpp"
#include "msys/common/rng.hpp"
#include "msys/common/shrink.hpp"
#include "msys/serve/partition.hpp"
#include "msys/serve/serve_loop.hpp"
#include "msys/store/disk_store.hpp"

namespace msys::serve {

namespace {

namespace fs = std::filesystem;

/// Fresh scratch subdirectory names for store-backed runs.  The counter
/// only names directories — nothing about case derivation or fault
/// decisions reads it — so campaign determinism is untouched.
std::atomic<std::uint64_t> g_dir_seq{0};

std::string fresh_store_dir(const std::string& scratch_root) {
  if (scratch_root.empty()) return {};
  const std::uint64_t n = g_dir_seq.fetch_add(1, std::memory_order_relaxed);
  return scratch_root + "/store" + std::to_string(n);
}

/// One ServeLoop::run under one arming: the canonical outcome bytes plus
/// the stats block, or a first-failure description.
struct RunResult {
  std::string tsv;
  ServeStats stats;
  /// Failure kind ("conservation", "exception", ...) or empty on success.
  std::string kind;
  std::string detail;

  [[nodiscard]] bool ok() const { return kind.empty(); }
};

RunResult fail(std::string kind, std::string detail) {
  RunResult r;
  r.kind = std::move(kind);
  r.detail = std::move(detail);
  return r;
}

/// Recounts the outcome records and cross-checks the stats block: the
/// conservation invariant, independently of the asserts inside ServeLoop.
std::string conservation_error(const ServeReport& report) {
  std::size_t completed = 0, rejected = 0, shed = 0, infeasible = 0, timeouts = 0;
  for (const JobOutcome& o : report.outcomes) {
    if (o.completed()) {
      ++completed;
    } else if (o.status == "rejected") {
      ++rejected;
    } else if (o.status == "shed-overload") {
      ++shed;
    } else if (o.status == "infeasible") {
      ++infeasible;
    } else if (o.status == "compile-timeout") {
      ++timeouts;
    } else {
      return "unknown outcome status '" + o.status + "' at index " +
             std::to_string(o.index);
    }
  }
  const ServeStats& s = report.stats;
  std::ostringstream why;
  if (completed + rejected + shed + infeasible + timeouts != report.outcomes.size()) {
    why << "outcome statuses do not cover every arrival";
  } else if (s.completed != completed || s.rejected != rejected || s.shed != shed ||
             s.infeasible != infeasible || s.compile_timeouts != timeouts) {
    why << "stats disagree with outcome recount: completed " << s.completed << "/"
        << completed << ", rejected " << s.rejected << "/" << rejected << ", shed "
        << s.shed << "/" << shed << ", infeasible " << s.infeasible << "/" << infeasible
        << ", compile-timeouts " << s.compile_timeouts << "/" << timeouts;
  } else if (s.deadline_missed > s.completed + s.compile_timeouts) {
    why << "deadline_missed (" << s.deadline_missed
        << ") exceeds completed + compile-timeouts — shed or rejected work was "
           "double-counted";
  }
  return why.str();
}

RunResult run_once(const ChaosCase& c, const TraceFile& trace, unsigned threads,
                   const std::string& store_dir, bool with_faults,
                   std::uint64_t* faults_injected) {
  auto& injector = FaultInjector::global();
  if (with_faults && !c.fault_spec.empty()) {
    std::string error;
    if (!injector.arm_from_spec(c.fault_spec, &error)) {
      return fail("exception", "bad fault spec '" + c.fault_spec + "': " + error);
    }
  } else {
    injector.disarm();
  }

  ServeOptions options;
  options.threads = threads;
  options.shed_threshold_cycles = c.shed_threshold_cycles;
  options.degraded_threshold_cycles = c.degraded_threshold_cycles;
  if (!store_dir.empty()) {
    store::StoreConfig store_cfg;
    store_cfg.dir = store_dir;
    std::string store_error;
    options.store = store::DiskScheduleStore::open(store_cfg, &store_error);
    if (options.store == nullptr) {
      injector.disarm();
      return fail("exception", "cannot open store " + store_dir + ": " + store_error);
    }
  }

  const arch::M1Config machine = arch::M1Config::m1_default();
  TenantPartition::BuildResult built =
      TenantPartition::build(machine, TenantPartition::even_specs(machine, c.tenants));
  if (!built.ok()) {
    injector.disarm();
    return fail("exception", "partition failed: " + render(built.diagnostics));
  }

  RunResult r;
  try {
    ServeLoop loop(std::move(*built.partition), options);
    const ServeReport report = loop.run(trace);
    std::ostringstream tsv;
    for (const JobOutcome& o : report.outcomes) {
      tsv << canonical_outcome_line(o) << '\n';
    }
    r.tsv = tsv.str();
    r.stats = report.stats;
    if (const std::string why = conservation_error(report); !why.empty()) {
      r = fail("conservation", why);
    }
  } catch (const std::exception& e) {
    r = fail("exception", e.what());
  }
  if (faults_injected != nullptr && injector.armed()) {
    *faults_injected += injector.total_injected();
  }
  injector.disarm();
  return r;
}

/// Second fsck sweep must be clean: the first sweep *is* the repair
/// (quarantine + temp removal), so anything still dirty afterwards means
/// the store cannot converge.
std::string fsck_error(const std::string& store_dir) {
  store::StoreConfig store_cfg;
  store_cfg.dir = store_dir;
  std::string store_error;
  const std::unique_ptr<store::DiskScheduleStore> disk =
      store::DiskScheduleStore::open(store_cfg, &store_error);
  if (disk == nullptr) return "cannot reopen store for fsck: " + store_error;
  (void)disk->verify_store();  // repair pass
  const store::FsckReport second = disk->verify_store();
  if (!second.clean()) {
    std::ostringstream why;
    why << "store not clean after repair sweep: " << second.scanned << " scanned, "
        << second.quarantined << " quarantined, " << second.removed_tmp
        << " temp files removed";
    return why.str();
  }
  return {};
}

/// Runs the whole battery for one case against one trace and reports the
/// first violated invariant (empty kind on success).  `stats` (optional)
/// accumulates campaign aggregates — null during shrink probes.
RunResult run_battery(const ChaosCase& c, const TraceFile& trace,
                      const ChaosOptions& options, ChaosStats* stats) {
  const bool store_backed = c.with_store && !options.scratch_dir.empty();
  std::uint64_t injected = 0;
  std::string reference;  // TSV of the first thread count

  for (const unsigned threads : options.thread_counts) {
    const std::string dir = store_backed ? fresh_store_dir(options.scratch_dir) : "";
    RunResult cold = run_once(c, trace, threads, dir, /*with_faults=*/true, &injected);
    if (stats != nullptr) ++stats->runs;
    if (!cold.ok()) return cold;

    if (reference.empty()) {
      reference = cold.tsv;
      if (stats != nullptr) {
        stats->jobs += cold.stats.jobs;
        stats->shed += cold.stats.shed;
        stats->degraded_serves += cold.stats.degraded_serves;
        stats->store_faults += cold.stats.store_faults;
      }
    } else if (cold.tsv != reference) {
      return fail("thread-divergence",
                  "outcome bytes differ between " +
                      std::to_string(options.thread_counts.front()) + " and " +
                      std::to_string(threads) + " compile threads");
    }

    if (store_backed) {
      // Warm pass on the same store: every result served from disk (or
      // recomputed past a quarantined/torn entry) must carry the same
      // outcome bytes as the cold computation.
      RunResult warm = run_once(c, trace, threads, dir, /*with_faults=*/true, &injected);
      if (stats != nullptr) ++stats->runs;
      if (!warm.ok()) return warm;
      if (warm.tsv != cold.tsv) {
        return fail("store-divergence",
                    "warm store pass changed outcome bytes at " +
                        std::to_string(threads) + " threads");
      }
      if (std::string why = fsck_error(dir); !why.empty()) {
        return fail("fsck", why + " (" + std::to_string(threads) + " threads)");
      }
    }
  }

  if (c.delay_only && !c.fault_spec.empty()) {
    // Delay-only mixes must not move a single outcome byte: compare the
    // armed reference against a disarmed, storeless baseline (which also
    // asserts the store tier itself is outcome-transparent).
    RunResult baseline = run_once(c, trace, options.thread_counts.front(), "",
                                  /*with_faults=*/false, nullptr);
    if (stats != nullptr) ++stats->runs;
    if (!baseline.ok()) return baseline;
    if (baseline.tsv != reference) {
      return fail("fault-divergence",
                  "a delay-only fault mix changed outcome bytes");
    }
  }

  if (stats != nullptr) stats->faults_injected += injected;
  RunResult ok;
  return ok;
}

}  // namespace

std::string ChaosCase::label() const {
  std::ostringstream os;
  os << "case " << index << " [" << fault_class << "] seed " << base_seed << ", "
     << trace.jobs << " jobs / " << trace.streams << " streams, " << tenants
     << " tenants";
  if (with_store) os << ", store";
  if (shed_threshold_cycles != 0) os << ", shed@" << shed_threshold_cycles;
  if (degraded_threshold_cycles != 0) os << ", degraded@" << degraded_threshold_cycles;
  return os.str();
}

std::string ChaosStats::summary() const {
  std::ostringstream os;
  os << cases << " cases / " << runs << " serve runs: " << jobs << " jobs, " << shed
     << " shed, " << degraded_serves << " degraded serves, " << store_faults
     << " store faults, " << faults_injected << " faults injected, "
     << failures.size() << " FAILURES";
  return os.str();
}

ChaosCase make_chaos_case(std::uint64_t base_seed, std::size_t index) {
  Rng rng = Rng(base_seed).split(index);
  ChaosCase c;
  c.base_seed = base_seed;
  c.index = index;

  c.trace.seed = rng.next_u64();
  c.trace.jobs = static_cast<std::uint32_t>(rng.uniform(6, 20));
  c.trace.streams = static_cast<std::uint32_t>(rng.uniform(1, 4));
  c.trace.mean_gap_cycles = 30000 * rng.uniform(1, 8);
  c.trace.deadline_cycles = rng.chance(1, 4) ? 0 : 400000 * rng.uniform(1, 10);
  c.trace.priorities = static_cast<std::uint32_t>(rng.uniform(1, 3));
  c.trace.workloads = static_cast<std::uint32_t>(rng.uniform(2, 4));
  c.tenants = 1u << rng.uniform(0, 2);
  if (c.trace.deadline_cycles != 0 && rng.chance(1, 2)) {
    // The generator jitters per-event deadlines +/-25% around the spec
    // value, so 1x the spec catches roughly half the events (DS entry)
    // and 2x catches them all, the tighter half at the Basic entry.
    c.degraded_threshold_cycles = c.trace.deadline_cycles * rng.uniform(1, 2);
  }

  const std::uint64_t fault_seed = rng.uniform(1, 1000);
  std::ostringstream spec;
  spec << "seed=" << fault_seed << ";";
  // Round-robin over the fault classes so every campaign of >= 7 cases
  // exercises each one at least once.
  switch (index % 7) {
    case 0:
      c.fault_class = "none";
      break;
    case 1:
      c.fault_class = "stall";
      spec << "serve.compile.stall=1/3:2;engine.compile.stall=1/5:1";
      c.fault_spec = spec.str();
      break;
    case 2:
      c.fault_class = "store-read";
      spec << "store.read.io_error=1/3;serve.store.read=1/4";
      c.fault_spec = spec.str();
      c.with_store = true;
      break;
    case 3:
      c.fault_class = "store-torn";
      spec << "store.write.torn=1/2;store.read.corrupt=1/6";
      c.fault_spec = spec.str();
      c.with_store = true;
      break;
    case 4:
      c.fault_class = "clock-skew";
      spec << "serve.admission.clock_skew=1/3:" << 20000 * rng.uniform(1, 10);
      c.fault_spec = spec.str();
      c.delay_only = false;
      break;
    case 5:
      c.fault_class = "overload";
      c.trace.mean_gap_cycles = 15000;  // arrivals outrun capacity
      c.shed_threshold_cycles = 200000 * rng.uniform(3, 8);
      break;
    case 6:
      c.fault_class = "mixed";
      spec << "serve.compile.stall=1/4:1;store.write.torn=1/3"
           << ";serve.admission.clock_skew=1/4:" << 20000 * rng.uniform(1, 6);
      c.fault_spec = spec.str();
      c.with_store = true;
      c.delay_only = false;
      c.trace.mean_gap_cycles = 20000;
      c.shed_threshold_cycles = 200000 * rng.uniform(3, 8);
      break;
    default:
      break;
  }
  return c;
}

TraceFile shrink_trace(TraceFile trace,
                       const std::function<bool(const TraceFile&)>& keep,
                       int max_steps) {
  if (trace.events.size() <= 1) return trace;
  const auto candidates = [](const TraceFile& current) {
    std::vector<TraceFile> out;
    // Drop aligned event chunks, largest first — the delta-debugging
    // sweep.  Chunks are at most half the trace, so one event survives.
    const std::size_t n = current.events.size();
    for (std::size_t chunk = n / 2; chunk >= 1; chunk /= 2) {
      for (std::size_t start = 0; start + chunk <= n; start += chunk) {
        std::vector<TraceEvent>& events = out.emplace_back(current).events;
        const auto first = events.begin() + static_cast<std::ptrdiff_t>(start);
        events.erase(first, first + static_cast<std::ptrdiff_t>(chunk));
      }
    }
    // Then normalise per-event fields — a repro without deadlines or
    // priorities implicates the base replay machinery, not admission.
    for (std::size_t i = 0; i < n; ++i) {
      if (current.events[i].deadline_cycles != 0) {
        out.emplace_back(current).events[i].deadline_cycles = 0;
      }
      if (current.events[i].priority != 0) out.emplace_back(current).events[i].priority = 0;
    }
    return out;
  };
  return shrink_greedy(std::move(trace), candidates, keep, max_steps);
}

ChaosStats run_chaos_campaign(const ChaosOptions& options) {
  ChaosStats stats;
  if (!options.scratch_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options.scratch_dir, ec);
  }
  for (std::size_t i = 0; i < options.cases; ++i) {
    const ChaosCase c = make_chaos_case(options.base_seed, i);
    const TraceFile trace = generate_trace(c.trace);
    ++stats.cases;
    RunResult r = run_battery(c, trace, options, &stats);
    if (r.ok()) continue;

    ChaosFailure failure;
    failure.c = c;
    failure.kind = r.kind;
    failure.detail = r.detail;
    TraceFile repro = trace;
    if (options.shrink) {
      // Keep-predicate: the *same kind* of invariant violation still
      // reproduces (a different failure would send the reader down the
      // wrong hole, exactly like the .mapp shrinker's same-kind rule).
      repro = shrink_trace(trace, [&](const TraceFile& t) {
        return run_battery(c, t, options, nullptr).kind == r.kind;
      });
    }
    failure.shrunk_trace = write_trace(repro);
    stats.failures.push_back(std::move(failure));
  }
  return stats;
}

}  // namespace msys::serve
