#include "msys/fuzzing/fuzzing.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "msys/appdsl/parser.hpp"
#include "msys/common/cancel.hpp"
#include "msys/common/error.hpp"
#include "msys/common/rng.hpp"
#include "msys/common/shrink.hpp"
#include "msys/csched/context_plan.hpp"
#include "msys/dsched/fallback.hpp"
#include "msys/engine/schedule_cache.hpp"
#include "msys/engine/thread_pool.hpp"
#include "msys/sim/check.hpp"
#include "msys/store/disk_store.hpp"
#include "msys/workloads/random.hpp"

namespace msys::fuzzing {

namespace {

// ---------------------------------------------------------------------------
// Case generation
// ---------------------------------------------------------------------------

std::string text_from_random(const workloads::RandomSpec& spec) {
  workloads::RandomExperiment exp = workloads::make_random(spec);
  std::vector<std::vector<std::string>> partition;
  for (const model::Cluster& c : exp.sched.clusters()) {
    std::vector<std::string> names;
    for (KernelId k : c.kernels) names.push_back(exp.app->kernel(k).name);
    partition.push_back(std::move(names));
  }
  return appdsl::write(*exp.app, partition, exp.cfg);
}

/// Malformed / edge-case texts that must resolve as parser diagnostics (or
/// as structured infeasibility for the valid-but-hopeless ones).
FuzzCase textual_case(std::uint64_t seed, Rng& rng) {
  static constexpr const char* kTexts[] = {
      // Zero iterations: range diagnostic, not a builder throw.
      "app z iterations 0\ninput a 8\nkernel k ctx 4 cycles 10 in a out r:4:final\n"
      "cluster k\n",
      // Overflowing iteration count.
      "app z iterations 99999999999999999999999\ninput a 8\n"
      "kernel k ctx 4 cycles 10 in a out r:4:final\ncluster k\n",
      // Negative and garbage numbers.
      "app z iterations 4\ninput a -8\nkernel k ctx 4 cycles 10 in a out r:4:final\n",
      "app z iterations 4\ninput a 8\nkernel k ctx 4x cycles 10 in a out r:4:final\n",
      // Duplicate names.
      "app z iterations 4\ninput a 8\ninput a 8\n"
      "kernel k ctx 4 cycles 10 in a out r:4:final\ncluster k\n",
      "app z iterations 4\ninput a 8\nkernel k ctx 4 cycles 10 in a out r:4:final\n"
      "kernel k ctx 4 cycles 10 in a\ncluster k\n",
      // Unknown references and keywords; missing app line; empty input.
      "app z iterations 4\nkernel k ctx 4 cycles 10 in nope out r:4:final\n",
      "app z iterations 4\ninput a 8\nfrobnicate 12\n",
      "input a 8\n",
      "",
      // Valid parse, hopeless machine: a 1-word FB set.
      "app z iterations 4\ninput a 8\nkernel k ctx 4 cycles 10 in a out r:4:final\n"
      "cluster k\nfbset 1\n",
      // Valid parse, object exactly the FB set size (boundary fit).
      "app z iterations 2\ninput a 64\nkernel k ctx 4 cycles 10 in a out r:1:final\n"
      "cluster k\nfbset 64\n",
  };
  const std::size_t idx = rng.uniform(0, std::size(kTexts) - 1);
  return FuzzCase{"seed" + std::to_string(seed) + "-textual" + std::to_string(idx),
                  seed, kTexts[idx]};
}

}  // namespace

FuzzCase make_case(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const std::uint64_t cls = seed % kScenarioClasses;
  workloads::RandomSpec spec;
  spec.seed = rng.next_u64();
  std::string cls_name;
  switch (cls) {
    case 0:  // control: the historical always-feasible generator
      cls_name = "control";
      break;
    case 1:  // tiny Frame Buffer: feasibility cliff for every scheduler
      cls_name = "tiny-fb";
      spec.fb_scale_percent = static_cast<std::uint32_t>(rng.uniform(5, 45));
      spec.max_kernels = 8;
      break;
    case 2:  // a single object larger than one FB set
      cls_name = "oversized-object";
      spec.oversized_input_words = rng.uniform(2000, 20000);
      spec.fb_scale_percent = static_cast<std::uint32_t>(rng.uniform(10, 40));
      spec.max_kernels = 6;
      break;
    case 3:  // huge iteration counts: stress the RF search
      cls_name = "huge-iterations";
      spec.min_iterations = spec.max_iterations =
          static_cast<std::uint32_t>(rng.uniform(96, 160));
      spec.min_kernels = 2;
      spec.max_kernels = 4;
      spec.min_size = 4;
      spec.max_size = 24;
      break;
    case 4:  // deep inter-cluster reuse chains: many retention candidates
      cls_name = "deep-reuse";
      spec.reuse_percent = 90;
      spec.min_kernels = 8;
      spec.max_kernels = 14;
      spec.shared_inputs = 4;
      spec.min_cluster_size = 1;
      spec.max_cluster_size = 1;
      spec.fb_scale_percent = static_cast<std::uint32_t>(rng.uniform(50, 100));
      break;
    case 5:  // degenerate single-kernel clusters on a tight machine
      cls_name = "singleton-clusters";
      spec.min_cluster_size = 1;
      spec.max_cluster_size = 1;
      spec.fb_scale_percent = static_cast<std::uint32_t>(rng.uniform(30, 70));
      break;
    case 6:  // word-size extremes: 1..3-word objects on a floor-sized FB
      cls_name = "tiny-objects";
      spec.min_size = 1;
      spec.max_size = 3;
      spec.fb_scale_percent = 1;  // clamps to the 16-word floor
      spec.max_iterations = 6;
      break;
    default:  // malformed / edge-case texts
      return textual_case(seed, rng);
  }
  FuzzCase c;
  c.name = "seed" + std::to_string(seed) + "-" + cls_name;
  c.seed = seed;
  c.text = text_from_random(spec);
  return c;
}

// ---------------------------------------------------------------------------
// Differential checking
// ---------------------------------------------------------------------------

namespace {

/// The first broken check of one schedule oracle run, if any.
std::optional<CheckFailure> first_failure(std::string who, const sim::ScheduleCheck& check) {
  using Failure = sim::ScheduleCheck::Failure;
  switch (check.failure) {
    case Failure::kNone:
      if (!check.predicted.feasible && check.predicted.infeasible_reason.empty()) {
        return CheckFailure{std::move(who), "missing-diagnostic",
                            "cost model reports infeasible without a reason"};
      }
      return std::nullopt;  // clean, or structured "does not run on this machine"
    case Failure::kValidator:
    case Failure::kSimulator:
      return CheckFailure{std::move(who), to_string(check.failure), render(check.diagnostics)};
    default:
      return CheckFailure{std::move(who), "cost-mismatch", check.comparison()};
  }
}

}  // namespace

CaseResult run_case(const FuzzCase& c) {
  CaseResult result;
  result.name = c.name;
  try {
    appdsl::ParseResult parsed = appdsl::parse_collect(c.text, c.name);
    result.parse_diagnostics = parsed.diagnostics;
    result.parse_ok = parsed.ok();
    if (!result.parse_ok) {
      if (result.parse_diagnostics.empty()) {
        result.failures.push_back(
            {"parser", "missing-diagnostic", "rejected input with no diagnostics"});
      }
      return result;
    }
    if (parsed.experiment->partition.empty()) return result;  // nothing to schedule

    const model::KernelSchedule sched = parsed.experiment->schedule();
    const arch::M1Config& cfg = parsed.experiment->cfg;
    const extract::ScheduleAnalysis analysis(sched, cfg.cross_set_reads);
    const csched::ContextPlan ctx_plan =
        csched::ContextPlan::build(sched, cfg.cm_capacity_words);

    // The three paper schedulers, each fully cross-checked.
    for (const auto& scheduler : dsched::all_schedulers()) {
      try {
        dsched::DataSchedule schedule = scheduler->schedule(analysis, cfg);
        if (!schedule.feasible) {
          if (schedule.infeasible_reason.empty()) {
            result.failures.push_back({scheduler->name(), "missing-diagnostic",
                                       "infeasible schedule without a reason"});
          }
          continue;
        }
        ++result.feasible_schedulers;
        if (std::optional<CheckFailure> failure =
                first_failure(schedule.scheduler_name,
                              sim::check_schedule(schedule, analysis, cfg, ctx_plan))) {
          result.failures.push_back(std::move(*failure));
        }
      } catch (const std::exception& e) {
        result.failures.push_back({scheduler->name(), "uncaught-throw", e.what()});
      }
    }

    // The degradation chain: must end feasible-and-clean or structurally
    // infeasible, never anything in between.
    dsched::ScheduleOutcome outcome = dsched::schedule_with_fallback(analysis, cfg);
    result.fallback_feasible = outcome.feasible();
    result.fallback_rung = outcome.chosen_rung();
    result.fallback_chain = outcome.chain_summary();
    for (const Diagnostic& d : outcome.diagnostics) {
      if (d.code == "schedule.internal") {
        result.failures.push_back({"fallback", "internal", d.message});
      }
    }
    if (outcome.feasible()) {
      const sim::ScheduleCheck check =
          sim::check_schedule(outcome.schedule, analysis, cfg, ctx_plan);
      if (std::optional<CheckFailure> failure =
              first_failure("fallback/" + outcome.schedule.scheduler_name, check)) {
        result.failures.push_back(std::move(*failure));
      }
      if (check.predicted.feasible) result.fallback_total_cycles = check.predicted.total.value();
    } else {
      result.infeasibility = outcome.diagnostics;
      if (!has_errors(outcome.diagnostics)) {
        result.failures.push_back({"fallback", "missing-diagnostic",
                                   "infeasible outcome without diagnostics"});
      }
    }
  } catch (const std::exception& e) {
    result.failures.push_back({"pipeline", "uncaught-throw", e.what()});
  }
  return result;
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

namespace {

/// Mutable mirror of one .mapp source, rebuilt from the model so that the
/// shrinker edits structure, not text.
struct CaseIr {
  struct Out {
    std::string name;
    std::uint64_t size{1};
    bool final{false};
  };
  struct Kernel {
    std::string name;
    std::uint32_t ctx{1};
    std::uint64_t cycles{1};
    std::vector<std::string> inputs;
    std::vector<Out> outputs;
  };

  std::string app_name;
  std::uint64_t iterations{1};
  std::vector<std::pair<std::string, std::uint64_t>> ext_inputs;
  std::vector<Kernel> kernels;  // topological order
  std::vector<std::vector<std::string>> clusters;
  std::uint64_t fbset{1024};
  std::uint32_t cm{512};
  std::uint64_t ctxcost{1};

  static std::optional<CaseIr> from_text(const std::string& text) {
    appdsl::ParseResult parsed = appdsl::parse_collect(text, "<shrink>");
    if (!parsed.ok()) return std::nullopt;
    const model::Application& app = parsed.experiment->app;
    CaseIr ir;
    ir.app_name = app.name();
    ir.iterations = app.total_iterations();
    for (const model::DataObject& d : app.data_objects()) {
      if (!d.producer.valid()) ir.ext_inputs.emplace_back(d.name, d.size.value());
    }
    for (KernelId kid : app.topological_order()) {
      const model::Kernel& k = app.kernel(kid);
      Kernel out;
      out.name = k.name;
      out.ctx = k.context_words;
      out.cycles = k.exec_cycles.value();
      for (DataId in : k.inputs) out.inputs.push_back(app.data(in).name);
      for (DataId o : k.outputs) {
        const model::DataObject& d = app.data(o);
        out.outputs.push_back({d.name, d.size.value(), d.required_in_external_memory});
      }
      ir.kernels.push_back(std::move(out));
    }
    ir.clusters = parsed.experiment->partition;
    ir.fbset = parsed.experiment->cfg.fb_set_size.value();
    ir.cm = parsed.experiment->cfg.cm_capacity_words;
    ir.ctxcost = parsed.experiment->cfg.dma.cycles_per_context_word.value();
    return ir;
  }

  [[nodiscard]] std::string emit() const {
    std::ostringstream out;
    out << "app " << app_name << " iterations " << iterations << '\n';
    for (const auto& [name, size] : ext_inputs) {
      out << "input " << name << ' ' << size << '\n';
    }
    for (const Kernel& k : kernels) {
      out << "kernel " << k.name << " ctx " << k.ctx << " cycles " << k.cycles << " in";
      for (const std::string& in : k.inputs) out << ' ' << in;
      if (!k.outputs.empty()) {
        out << " out";
        for (const Out& o : k.outputs) {
          out << ' ' << o.name << ':' << o.size;
          if (o.final) out << ":final";
        }
      }
      out << '\n';
    }
    for (const std::vector<std::string>& cluster : clusters) {
      out << "cluster";
      for (const std::string& k : cluster) out << ' ' << k;
      out << '\n';
    }
    out << "fbset " << fbset << '\n';
    out << "cm " << cm << '\n';
    out << "ctxcost " << ctxcost << '\n';
    return out.str();
  }

  /// Re-establishes the invariants the builder checks after kernels were
  /// dropped: orphaned results become final, unconsumed inputs disappear.
  void fixup() {
    std::unordered_set<std::string> kernel_names;
    for (const Kernel& k : kernels) kernel_names.insert(k.name);
    for (auto& cluster : clusters) {
      std::erase_if(cluster, [&](const std::string& k) { return !kernel_names.count(k); });
    }
    std::erase_if(clusters, [](const auto& c) { return c.empty(); });
    std::unordered_set<std::string> consumed;
    for (const Kernel& k : kernels) {
      for (const std::string& in : k.inputs) consumed.insert(in);
    }
    std::erase_if(ext_inputs, [&](const auto& in) { return !consumed.count(in.first); });
    for (Kernel& k : kernels) {
      for (Out& o : k.outputs) {
        if (!consumed.count(o.name)) o.final = true;
      }
    }
  }

  bool drop_last_cluster() {
    if (clusters.size() <= 1) return false;
    std::unordered_set<std::string> doomed(clusters.back().begin(),
                                           clusters.back().end());
    clusters.pop_back();
    std::erase_if(kernels, [&](const Kernel& k) { return doomed.count(k.name) > 0; });
    fixup();
    return !kernels.empty();
  }

  bool drop_last_kernel() {
    if (clusters.empty() || clusters.back().size() <= 1) return false;
    const std::string victim = clusters.back().back();
    // Only safe when nothing consumes the victim's outputs.
    const Kernel* vk = nullptr;
    for (const Kernel& k : kernels) {
      if (k.name == victim) vk = &k;
    }
    if (vk == nullptr) return false;
    for (const Kernel& k : kernels) {
      for (const std::string& in : k.inputs) {
        for (const Out& o : vk->outputs) {
          if (in == o.name) return false;
        }
      }
    }
    clusters.back().pop_back();
    std::erase_if(kernels, [&](const Kernel& k) { return k.name == victim; });
    fixup();
    return true;
  }

  bool halve_iterations() {
    if (iterations <= 1) return false;
    iterations = std::max<std::uint64_t>(1, iterations / 2);
    return true;
  }

  bool halve_sizes() {
    bool changed = false;
    for (auto& [name, size] : ext_inputs) {
      if (size > 1) {
        size = std::max<std::uint64_t>(1, size / 2);
        changed = true;
      }
    }
    for (Kernel& k : kernels) {
      for (Out& o : k.outputs) {
        if (o.size > 1) {
          o.size = std::max<std::uint64_t>(1, o.size / 2);
          changed = true;
        }
      }
    }
    return changed;
  }

  bool halve_fbset() {
    if (fbset <= 16) return false;
    fbset = std::max<std::uint64_t>(16, fbset / 2);
    return true;
  }
};

}  // namespace

std::string shrink_text(std::string text, const Predicate& keep, int max_steps) {
  using Transform = bool (CaseIr::*)();
  static constexpr Transform kTransforms[] = {
      &CaseIr::drop_last_cluster, &CaseIr::drop_last_kernel, &CaseIr::halve_iterations,
      &CaseIr::halve_sizes, &CaseIr::halve_fbset};
  const auto candidates = [](const std::string& current) {
    std::vector<std::string> out;
    for (Transform t : kTransforms) {
      std::optional<CaseIr> ir = CaseIr::from_text(current);
      if (!ir) break;  // unparseable cases shrink no further
      if (!((*ir).*t)()) continue;
      std::string candidate = ir->emit();
      if (candidate != current) out.push_back(std::move(candidate));
    }
    return out;
  };
  return shrink_greedy(std::move(text), candidates, keep, max_steps);
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

std::string CampaignStats::summary() const {
  std::ostringstream out;
  out << cases << " cases: " << all_feasible << " all-feasible, " << degraded
      << " degraded, " << infeasible << " infeasible (structured), " << parse_rejected
      << " parse-rejected, " << failures.size() << " FAILURES";
  if (store_checked > 0) {
    out << "; store pass: " << store_checked << " checked, " << store_disk_hits
        << " from disk, " << store_timeouts << " timed out";
  }
  return out.str();
}

CampaignStats run_campaign(std::uint64_t base_seed, std::uint64_t n_cases) {
  return run_campaign(base_seed, n_cases, /*n_threads=*/1);
}

CampaignStats run_campaign(std::uint64_t base_seed, std::uint64_t n_cases,
                           unsigned n_threads) {
  CampaignOptions options;
  options.n_threads = n_threads;
  return run_campaign(base_seed, n_cases, options);
}

namespace {

/// Replays one schedulable case through the store-backed cache and
/// reports any disagreement with the direct fallback run as a
/// "store-divergence" failure.  Serial, seed order, never throws.
void store_cross_check(const FuzzCase& c, CaseResult& r, engine::ScheduleCache& cache,
                       const CampaignOptions& options, CampaignStats& stats) {
  try {
    appdsl::ParseResult parsed = appdsl::parse_collect(c.text, c.name);
    if (!parsed.ok() || parsed.experiment->partition.empty()) return;
    engine::Job job;
    job.input = engine::make_input(std::move(parsed.experiment->app),
                                   parsed.experiment->partition,
                                   std::move(parsed.experiment->cfg));
    job.kind = engine::SchedulerKind::kFallback;
    const CancelToken cancel = options.job_deadline.count() > 0
                                   ? CancelToken::deadline_after(options.job_deadline)
                                   : CancelToken{};
    bool was_hit = false;
    engine::CacheTier tier = engine::CacheTier::kCompute;
    const std::shared_ptr<const engine::CompiledResult> served =
        cache.get_or_compile(job, &was_hit, cancel, &tier);
    ++stats.store_checked;
    if (served == nullptr || served->outcome.cancelled()) {
      ++stats.store_timeouts;  // structured deadline data, not a divergence
      return;
    }
    if (tier == engine::CacheTier::kDisk) ++stats.store_disk_hits;
    std::ostringstream why;
    if (served->feasible() != r.fallback_feasible) {
      why << "feasibility: direct=" << (r.fallback_feasible ? "yes" : "no")
          << " store-served=" << (served->feasible() ? "yes" : "no");
    } else if (served->feasible()) {
      if (served->outcome.chosen_rung() != r.fallback_rung) {
        why << "rung: direct=" << r.fallback_rung
            << " store-served=" << served->outcome.chosen_rung();
      } else if (served->predicted.total.value() != r.fallback_total_cycles) {
        why << "total cycles: direct=" << r.fallback_total_cycles
            << " store-served=" << served->predicted.total.value();
      }
    }
    if (const std::string detail = why.str(); !detail.empty()) {
      r.failures.push_back({"engine-store", "store-divergence",
                            detail + " [tier=" + to_string(tier) + "]"});
    }
  } catch (const std::exception& e) {
    r.failures.push_back({"engine-store", "store-divergence",
                          std::string("uncaught throw in store pass: ") + e.what()});
  }
}

}  // namespace

CampaignStats run_campaign(std::uint64_t base_seed, std::uint64_t n_cases,
                           const CampaignOptions& options) {
  // Phase 1 — run every case, results indexed by seed offset.  run_case is
  // pure, so the worker interleaving cannot influence any result.
  std::vector<FuzzCase> cases;
  cases.reserve(n_cases);
  for (std::uint64_t i = 0; i < n_cases; ++i) cases.push_back(make_case(base_seed + i));

  CampaignStats stats;
  std::vector<CaseResult> results(cases.size());
  std::atomic<std::uint64_t> completed{0};

  // Observational sampler: periodic counter deltas while phase 1 runs,
  // plus one final delta when the phase drains.  It only reads the obs
  // registry and the completion counter, so it cannot perturb any result.
  std::atomic<bool> phase1_done{false};
  std::thread sampler;
  const bool sampling = options.snapshot_interval.count() > 0 && options.on_snapshot;
  if (sampling) {
    sampler = std::thread([&] {
      obs::MetricsSnapshot prev = obs::snapshot();
      auto next_tick = std::chrono::steady_clock::now() + options.snapshot_interval;
      while (!phase1_done.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() < next_tick) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        next_tick += options.snapshot_interval;
        obs::MetricsSnapshot now = obs::snapshot();
        options.on_snapshot(now.since(prev), completed.load(std::memory_order_relaxed));
        ++stats.snapshots;  // sampler-thread-only until join
        prev = std::move(now);
      }
      options.on_snapshot(obs::snapshot().since(prev),
                          completed.load(std::memory_order_relaxed));
      ++stats.snapshots;
    });
  }

  const std::unique_ptr<engine::ThreadPool> pool =
      options.n_threads > 1 ? std::make_unique<engine::ThreadPool>(options.n_threads)
                            : nullptr;
  engine::run_indexed(pool.get(), cases.size(), [&](std::size_t i) {
    results[i] = run_case(cases[i]);
    completed.fetch_add(1, std::memory_order_relaxed);
  });
  if (sampling) {
    phase1_done.store(true, std::memory_order_release);
    sampler.join();
  }

  // Store-backed cross-check pass — serial, seed order, before the fold so
  // divergences shrink like any other failure.  A store that cannot open
  // is itself a structured campaign failure, never a crash.
  if (!options.store_dir.empty()) {
    store::StoreConfig store_cfg;
    store_cfg.dir = options.store_dir;
    std::string store_error;
    std::shared_ptr<store::DiskScheduleStore> disk =
        store::DiskScheduleStore::open(store_cfg, &store_error);
    if (disk == nullptr) {
      CampaignFailure failure;
      failure.original = FuzzCase{"store-open", 0, ""};
      failure.result.name = "store-open";
      failure.result.failures.push_back(
          {"engine-store", "store-divergence", "store open failed: " + store_error});
      stats.failures.push_back(std::move(failure));
    } else {
      engine::ScheduleCache::Config cache_cfg;
      cache_cfg.store = disk;
      cache_cfg.name = "fuzz";
      engine::ScheduleCache cache(cache_cfg);
      for (std::size_t i = 0; i < cases.size(); ++i) {
        store_cross_check(cases[i], results[i], cache, options, stats);
      }
    }
  }

  // Phase 2 — fold in seed order.  Shrinking (which re-runs cases) stays in
  // this serial fold, so failure repros are byte-identical at any thread
  // count.
  for (std::size_t i = 0; i < cases.size(); ++i) {
    FuzzCase& c = cases[i];
    CaseResult& r = results[i];
    ++stats.cases;
    if (!r.parse_ok) {
      ++stats.parse_rejected;
    } else if (!r.fallback_chain.empty()) {
      if (r.feasible_schedulers == 3) ++stats.all_feasible;
      if (r.fallback_feasible && r.fallback_rung != "CDS") ++stats.degraded;
      if (!r.fallback_feasible) ++stats.infeasible;
    }
    if (!r.clean()) {
      std::unordered_set<std::string> kinds;
      for (const CheckFailure& f : r.failures) kinds.insert(f.kind);
      Predicate same_kind = [&](const std::string& text) {
        CaseResult again = run_case(FuzzCase{c.name + "-shrink", c.seed, text});
        for (const CheckFailure& f : again.failures) {
          if (kinds.count(f.kind)) return true;
        }
        return false;
      };
      CampaignFailure failure;
      failure.shrunk_mapp = shrink_text(c.text, same_kind);
      failure.original = std::move(c);
      failure.result = std::move(r);
      stats.failures.push_back(std::move(failure));
    }
  }
  return stats;
}

}  // namespace msys::fuzzing
