#include "msys/engine/result_codec.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "msys/csched/context_plan.hpp"
#include "msys/dsched/alloc_driver.hpp"
#include "msys/dsched/cost.hpp"
#include "msys/dsched/schedulers.hpp"
#include "msys/extract/analysis.hpp"

namespace msys::engine {

namespace {

constexpr std::string_view kTag = "msys.engine.CompiledResult/v1";

// Tiny canonical byte codec: u64 little-endian, u8 raw, strings
// length-prefixed.  The reader never throws — any overrun flips `ok` and
// every later read returns a zero value, so decode degrades to "payload
// does not parse" exactly once at the end.
struct Writer {
  std::string out;

  void u8(std::uint8_t v) { out.push_back(static_cast<char>(v)); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void str(std::string_view s) {
    u64(s.size());
    out.append(s);
  }
};

struct Reader {
  std::string_view in;
  std::size_t pos{0};
  bool ok{true};

  std::uint8_t u8() {
    if (pos + 1 > in.size()) {
      ok = false;
      return 0;
    }
    return static_cast<std::uint8_t>(in[pos++]);
  }
  std::uint64_t u64() {
    if (pos + 8 > in.size()) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[pos + i])) << (8 * i);
    }
    pos += 8;
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (!ok || pos + n > in.size()) {
      ok = false;
      return {};
    }
    std::string s(in.substr(pos, n));
    pos += n;
    return s;
  }
};

void encode_cost(Writer& w, const dsched::CostBreakdown& cost) {
  w.u8(cost.feasible ? 1 : 0);
  w.str(cost.infeasible_reason);
  w.u64(cost.total.value());
  w.u64(cost.compute.value());
  w.u64(cost.stall.value());
  w.u64(cost.dma_busy.value());
  w.u64(cost.data_words_loaded);
  w.u64(cost.data_words_stored);
  w.u64(cost.context_words);
  w.u64(cost.dma_requests);
}

dsched::CostBreakdown decode_cost(Reader& r) {
  dsched::CostBreakdown cost;
  cost.feasible = r.u8() != 0;
  cost.infeasible_reason = r.str();
  cost.total = Cycles{r.u64()};
  cost.compute = Cycles{r.u64()};
  cost.stall = Cycles{r.u64()};
  cost.dma_busy = Cycles{r.u64()};
  cost.data_words_loaded = r.u64();
  cost.data_words_stored = r.u64();
  cost.context_words = r.u64();
  cost.dma_requests = r.u64();
  return cost;
}

/// The end-to-end fingerprint: a replayed schedule must reproduce every
/// number the original run predicted (reasons are prose, not compared).
bool same_cost(const dsched::CostBreakdown& a, const dsched::CostBreakdown& b) {
  return a.feasible == b.feasible && a.total == b.total && a.compute == b.compute &&
         a.stall == b.stall && a.dma_busy == b.dma_busy &&
         a.data_words_loaded == b.data_words_loaded &&
         a.data_words_stored == b.data_words_stored &&
         a.context_words == b.context_words && a.dma_requests == b.dma_requests;
}

}  // namespace

bool persistable(const CompiledResult& result) {
  if (result.outcome.cancelled() || result.outcome.schedule.cancelled) return false;
  for (const Diagnostic& d : result.outcome.diagnostics) {
    if (d.code == "schedule.internal") return false;
  }
  return true;
}

std::string encode_result(const CompiledResult& result) {
  const dsched::DataSchedule& schedule = result.outcome.schedule;
  Writer w;
  w.str(kTag);
  w.u8(schedule.feasible ? 1 : 0);
  w.str(schedule.scheduler_name);
  w.str(schedule.infeasible_reason);
  w.u64(schedule.rf);
  // The rung's walk options (beyond rf/retained, which the schedule
  // records itself), encoded explicitly so decode needs no rung-name
  // mapping.
  const dsched::DriverOptions opts = dsched::rung_options(schedule.scheduler_name);
  w.u8(opts.release_at_last_use ? 1 : 0);
  w.u8(opts.regularity_hints ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(opts.fit));
  w.u8(opts.allow_split ? 1 : 0);
  w.u64(schedule.retained.size());
  // RetainedSet iterates ascending by DataId — already the canonical
  // encoding order, no sort needed.
  for (const DataId data : schedule.retained) w.u64(data.index());

  w.u64(result.outcome.attempts.size());
  for (const dsched::FallbackAttempt& a : result.outcome.attempts) {
    w.str(a.rung);
    w.u8(a.attempted ? 1 : 0);
    w.u8(a.succeeded ? 1 : 0);
    w.str(a.reason);
  }
  w.u64(result.outcome.diagnostics.size());
  for (const Diagnostic& d : result.outcome.diagnostics) {
    w.str(d.code);
    w.u8(static_cast<std::uint8_t>(d.severity));
    w.str(d.loc.file);
    w.u64(static_cast<std::uint64_t>(d.loc.line));
    w.str(d.message);
  }
  encode_cost(w, result.predicted);
  return std::move(w.out);
}

std::shared_ptr<const CompiledResult> decode_result(std::string_view payload,
                                                    const Job& job) {
  Reader r{payload};
  if (r.str() != kTag) return nullptr;
  const bool feasible = r.u8() != 0;
  std::string scheduler_name = r.str();
  std::string infeasible_reason = r.str();
  const std::uint64_t rf = r.u64();

  dsched::DriverOptions opts;
  opts.rf = static_cast<std::uint32_t>(rf);
  opts.release_at_last_use = r.u8() != 0;
  opts.regularity_hints = r.u8() != 0;
  const std::uint8_t fit = r.u8();
  if (fit > static_cast<std::uint8_t>(alloc::FitPolicy::kBestFit)) return nullptr;
  opts.fit = static_cast<alloc::FitPolicy>(fit);
  opts.allow_split = r.u8() != 0;
  const std::uint64_t n_retained = r.u64();
  if (!r.ok || n_retained > payload.size()) return nullptr;  // length sanity
  const std::uint64_t data_count = job.input.app->data_count();
  for (std::uint64_t i = 0; i < n_retained; ++i) {
    const std::uint64_t idx = r.u64();
    if (idx >= data_count) return nullptr;
    opts.retained.insert(DataId{static_cast<std::uint32_t>(idx)});
  }

  auto result = std::make_shared<CompiledResult>();
  result->input = job.input;

  const std::uint64_t n_attempts = r.u64();
  if (!r.ok || n_attempts > payload.size()) return nullptr;
  for (std::uint64_t i = 0; i < n_attempts; ++i) {
    dsched::FallbackAttempt a;
    a.rung = r.str();
    a.attempted = r.u8() != 0;
    a.succeeded = r.u8() != 0;
    a.reason = r.str();
    result->outcome.attempts.push_back(std::move(a));
  }
  const std::uint64_t n_diags = r.u64();
  if (!r.ok || n_diags > payload.size()) return nullptr;
  for (std::uint64_t i = 0; i < n_diags; ++i) {
    Diagnostic d;
    d.code = r.str();
    const std::uint8_t severity = r.u8();
    if (severity > static_cast<std::uint8_t>(Severity::kNote)) return nullptr;
    d.severity = static_cast<Severity>(severity);
    d.loc.file = r.str();
    d.loc.line = static_cast<int>(r.u64());
    d.message = r.str();
    result->outcome.diagnostics.push_back(std::move(d));
  }
  const dsched::CostBreakdown stored_cost = decode_cost(r);
  if (!r.ok || r.pos != payload.size()) return nullptr;

  if (!feasible) {
    result->outcome.schedule =
        dsched::infeasible(std::move(scheduler_name), *job.input.sched,
                           std::move(infeasible_reason));
    result->predicted = stored_cost;
    return result;
  }

  // Replay the deterministic planning walk with the stored decisions and
  // demand the recomputed cost reproduce the stored fingerprint exactly.
  try {
    const extract::ScheduleAnalysis analysis(*job.input.sched,
                                             job.input.cfg.cross_set_reads);
    dsched::DriverResult planned =
        dsched::plan_round(analysis, job.input.cfg.fb_set_size, opts);
    if (!planned.ok) return nullptr;
    dsched::DataSchedule schedule;
    schedule.scheduler_name = std::move(scheduler_name);
    schedule.sched = &analysis.sched();
    schedule.feasible = true;
    schedule.rf = opts.rf;
    schedule.retained = opts.retained;
    schedule.round_plan = std::move(planned.round_plan);
    schedule.placements = std::move(planned.placements);
    schedule.alloc_summary = planned.summary;
    const csched::ContextPlan ctx_plan = csched::ContextPlan::build(
        *job.input.sched, job.input.cfg.cm_capacity_words);
    result->predicted = dsched::predict_cost(schedule, job.input.cfg, ctx_plan);
    if (!same_cost(result->predicted, stored_cost)) return nullptr;
    result->outcome.schedule = std::move(schedule);
  } catch (const std::exception&) {
    // A replayed entry must never crash the engine: a throw here means the
    // stored decisions are incompatible with this build — corrupt.
    return nullptr;
  }
  return result;
}

}  // namespace msys::engine
