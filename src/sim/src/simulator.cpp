#include "msys/sim/simulator.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "msys/common/bitset.hpp"
#include "msys/common/error.hpp"
#include "msys/dsched/schedule_types.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"

namespace msys::sim {

using codegen::Op;
using codegen::OpKind;
using codegen::ScheduleProgram;
using dsched::DataSchedule;
using dsched::ObjInstance;
using dsched::Placement;

namespace {

constexpr std::size_t kNone = SIZE_MAX;

/// A timed op plus the timestamps the timing pass assigned.
struct TimedOp {
  const Op* op;
  Cycles start{};
  Cycles end{};
};

/// Functional FB-set state: one occupancy bit per FB word, and for each
/// (data, iter) instance the extents it occupies while resident.  Residency
/// is indexed by `instance_index`; the extents are the schedule's own
/// placement, which outlives the run.  `what` formats the offending op for
/// a failure message and runs only when a check fails.
class FbState {
 public:
  FbState(SizeWords capacity, std::size_t instances)
      : capacity_(capacity.value()), occupied_((capacity_ + 63) / 64, 0),
        resident_(instances, nullptr) {}

  template <class What>
  void insert(std::size_t inst, const std::vector<Extent>& extents, const What& what) {
    MSYS_REQUIRE(resident_[inst] == nullptr, "instance already resident: " + what());
    // Every extent is checked before any is marked: like the other resident
    // instances, a placement never conflicts with itself.
    for (const Extent& e : extents) {
      MSYS_REQUIRE(e.end() <= capacity_, "placement out of range: " + what());
      MSYS_REQUIRE(!any_in_range(occupied_, e.begin(), e.end()),
                   "FB words doubly occupied: " + what());
    }
    for (const Extent& e : extents) set_range(occupied_, e.begin(), e.end());
    used_ += total_size(extents).value();
    peak_ = std::max(peak_, used_);
    resident_[inst] = &extents;
  }

  template <class What>
  void remove(std::size_t inst, const What& what) {
    const std::vector<Extent>* extents = resident_[inst];
    MSYS_REQUIRE(extents != nullptr, "releasing a non-resident instance: " + what());
    for (const Extent& e : *extents) clear_range(occupied_, e.begin(), e.end());
    used_ -= total_size(*extents).value();
    resident_[inst] = nullptr;
  }

  [[nodiscard]] bool resident(std::size_t inst) const { return resident_[inst] != nullptr; }
  [[nodiscard]] std::uint64_t peak_words() const { return peak_; }

 private:
  std::uint64_t capacity_;
  std::vector<std::uint64_t> occupied_;
  std::vector<const std::vector<Extent>*> resident_;
  std::uint64_t used_{0};
  std::uint64_t peak_{0};
};

/// Functional Context Memory state.
class CmState {
 public:
  CmState(std::uint32_t capacity, bool persistent) : capacity_(capacity),
                                                     persistent_(persistent) {}

  void load(KernelId kernel, std::uint32_t words, ClusterId cluster,
            ClusterId prev_cluster, const model::KernelSchedule& sched) {
    if (resident_.contains(kernel)) return;  // persistent regime reload
    // Make room: evict kernels belonging to neither the loading cluster
    // nor the one still executing (its contexts are live until its slot
    // ends).  The per-slot-serial regime may additionally evict the
    // previous cluster — its execution finished before this load started.
    if (!persistent_) {
      auto evictable = [&](KernelId k) {
        const ClusterId c = sched.cluster_of(k);
        return c != cluster && c != prev_cluster;
      };
      evict_if(evictable, words);
      evict_if([&](KernelId k) { return sched.cluster_of(k) != cluster; }, words);
    }
    MSYS_REQUIRE(used_ + words <= capacity_,
                 "context memory overflow loading kernel contexts");
    resident_.emplace(kernel, words);
    used_ += words;
    peak_ = std::max(peak_, used_);
  }

  [[nodiscard]] bool resident(KernelId kernel) const { return resident_.contains(kernel); }
  [[nodiscard]] std::uint32_t peak_words() const { return peak_; }

 private:
  template <class Pred>
  void evict_if(Pred pred, std::uint32_t needed) {
    if (used_ + needed <= capacity_) return;
    for (auto it = resident_.begin(); it != resident_.end();) {
      if (used_ + needed <= capacity_) return;
      if (pred(it->first)) {
        used_ -= it->second;
        it = resident_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::uint32_t capacity_;
  bool persistent_;
  std::unordered_map<KernelId, std::uint32_t> resident_;
  std::uint32_t used_{0};
  std::uint32_t peak_{0};
};

}  // namespace

std::string SimReport::summary() const {
  std::ostringstream out;
  out << "total=" << total.value() << "c compute=" << compute.value() << "c stall="
      << stall.value() << "c dma=" << dma_busy.value() << "c loads=" << data_words_loaded
      << "w stores=" << data_words_stored << "w ctx=" << context_words << "w execs="
      << exec_count;
  return out.str();
}

Simulator::Simulator(const arch::M1Config& cfg, const csched::ContextPlan& ctx_plan)
    : cfg_(&cfg), ctx_plan_(&ctx_plan) {}

SimReport Simulator::run(const ScheduleProgram& program) {
  MSYS_TRACE_SPAN(span, "sim.run", "sim");
  MSYS_REQUIRE(program.schedule != nullptr, "program not bound to a schedule");
  const DataSchedule& schedule = *program.schedule;
  const model::KernelSchedule& sched = *schedule.sched;
  const model::Application& app = sched.app();
  const std::size_t n_slots = program.slots.size();
  MSYS_REQUIRE(n_slots > 0, "empty program");

  SimReport report;

  // ---- Static slot bookkeeping. ----
  std::vector<std::size_t> prev_same_set(n_slots, kNone);
  {
    std::size_t last_on_set[2] = {kNone, kNone};
    for (std::size_t s = 0; s < n_slots; ++s) {
      const auto set = static_cast<std::size_t>(sched.cluster(program.slots[s].cluster).set);
      prev_same_set[s] = last_on_set[set];
      last_on_set[set] = s;
    }
  }
  std::vector<std::uint32_t> in_remaining(n_slots, 0);
  std::vector<std::uint32_t> exec_remaining(n_slots, 0);
  for (const Op& op : program.dma_ops) {
    if (op.kind == OpKind::kLoadContext || op.kind == OpKind::kLoadData) {
      ++in_remaining[op.slot];
    }
  }
  for (const Op& op : program.rc_ops) {
    if (op.kind == OpKind::kExec) ++exec_remaining[op.slot];
  }
  for (std::size_t s = 0; s < n_slots; ++s) {
    MSYS_REQUIRE(exec_remaining[s] > 0, "slot with no executions");
  }

  // in_done / exec_done become known when the slot's counters reach zero.
  std::vector<Cycles> in_done(n_slots, Cycles::zero());
  std::vector<bool> in_known(n_slots, false);
  std::vector<Cycles> exec_done(n_slots, Cycles::zero());
  std::vector<bool> exec_known(n_slots, false);
  for (std::size_t s = 0; s < n_slots; ++s) {
    if (in_remaining[s] == 0) in_known[s] = true;
  }

  auto op_duration = [&](const Op& op) -> Cycles {
    switch (op.kind) {
      case OpKind::kLoadContext:
        return cfg_->dma.context_cycles(app.kernel(op.kernel).context_words);
      case OpKind::kLoadData:
      case OpKind::kStoreData:
        return cfg_->dma.data_cycles(app.data(op.data).size);
      case OpKind::kExec:
        return app.kernel(op.kernel).exec_cycles;
      case OpKind::kRelease:
        return Cycles::zero();
    }
    return Cycles::zero();
  };

  // ---- Timing pass: two cursors over the FIFO streams, advancing
  // whichever head op has all of its dependencies resolved. ----
  const bool ctx_serial = !ctx_plan_->overlaps_compute();
  const bool ctx_persistent =
      ctx_plan_->regime() == csched::ContextRegime::kPersistent;
  std::vector<TimedOp> timed;
  timed.reserve(program.dma_ops.size() + program.rc_ops.size());

  std::size_t di = 0;
  std::size_t ri = 0;
  Cycles dma_t = Cycles::zero();
  Cycles rc_t = Cycles::zero();
  std::vector<bool> slot_first_load_done(n_slots, false);

  while (di < program.dma_ops.size() || ri < program.rc_ops.size()) {
    bool progressed = false;

    // RC head.
    while (ri < program.rc_ops.size()) {
      const Op& op = program.rc_ops[ri];
      if (op.kind == OpKind::kExec) {
        if (!in_known[op.slot]) break;
        const Cycles start = std::max(rc_t, in_done[op.slot]);
        const Cycles end = start + op_duration(op);
        timed.push_back({&op, start, end});
        rc_t = end;
        report.compute += op_duration(op);
        ++report.exec_count;
        if (--exec_remaining[op.slot] == 0) {
          exec_done[op.slot] = end;
          exec_known[op.slot] = true;
        }
      } else {  // kRelease: bookkeeping at the current RC time
        timed.push_back({&op, rc_t, rc_t});
        ++report.release_count;
      }
      ++ri;
      progressed = true;
    }

    // DMA head.
    while (di < program.dma_ops.size()) {
      const Op& op = program.dma_ops[di];
      Cycles start = dma_t;
      if (op.kind == OpKind::kLoadContext) {
        if (ctx_serial && op.slot > 0) {
          if (!exec_known[op.slot - 1]) break;
          start = std::max(start, exec_done[op.slot - 1]);
        } else if (!ctx_persistent && op.slot >= 2) {
          // CM prefetch depth is one slot: see dsched::predict_cost.
          if (!exec_known[op.slot - 2]) break;
          start = std::max(start, exec_done[op.slot - 2]);
        }
      } else if (op.kind == OpKind::kLoadData) {
        const std::size_t t = prev_same_set[op.slot];
        if (!slot_first_load_done[op.slot] && t != kNone) {
          if (!exec_known[t]) break;
          start = std::max(start, exec_done[t]);
        }
        slot_first_load_done[op.slot] = true;
      } else {  // kStoreData
        if (!exec_known[op.slot]) break;
        start = std::max(start, exec_done[op.slot]);
      }
      const Cycles end = start + op_duration(op);
      timed.push_back({&op, start, end});
      dma_t = end;
      report.dma_busy += op_duration(op);
      ++report.dma_requests;
      if (op.kind == OpKind::kLoadContext) {
        report.context_words += app.kernel(op.kernel).context_words;
      } else if (op.kind == OpKind::kLoadData) {
        report.data_words_loaded += app.data(op.data).size.value();
      } else {
        report.data_words_stored += app.data(op.data).size.value();
      }
      if ((op.kind == OpKind::kLoadContext || op.kind == OpKind::kLoadData) &&
          --in_remaining[op.slot] == 0) {
        in_done[op.slot] = end;
        in_known[op.slot] = true;
      }
      ++di;
      progressed = true;
    }

    MSYS_REQUIRE(progressed || (di >= program.dma_ops.size() && ri >= program.rc_ops.size()),
                 "scheduling deadlock: circular dependency between DMA and RC streams");
  }

  report.total = std::max(dma_t, rc_t);
  report.stall = report.total - report.compute;

  // ---- Functional pass: apply effects in simulated-time order. ----
  // Phases at equal timestamps: removals, then insertions, then checks.
  enum Phase : int { kRemove = 0, kInsert = 1, kCheck = 2 };
  struct Event {
    Cycles time;
    int phase;
    std::size_t seq;  // stable order within a phase
    const TimedOp* op;
  };
  std::vector<Event> events;
  events.reserve(timed.size() * 2);
  for (std::size_t i = 0; i < timed.size(); ++i) {
    const TimedOp& t = timed[i];
    switch (t.op->kind) {
      case OpKind::kLoadData:
        events.push_back({t.start, kCheck, i, &t});   // external availability
        events.push_back({t.start, kInsert, i, &t});  // FB words occupied
        break;
      case OpKind::kExec:
        events.push_back({t.start, kCheck, i, &t});   // inputs + contexts
        events.push_back({t.start, kInsert, i, &t});  // outputs appear
        break;
      case OpKind::kStoreData:
        events.push_back({t.start, kCheck, i, &t});   // instance resident
        events.push_back({t.end, kInsert, i, &t});    // reaches external memory
        if (t.op->release_after_store) events.push_back({t.end, kRemove, i, &t});
        break;
      case OpKind::kRelease:
        events.push_back({t.start, kRemove, i, &t});
        break;
      case OpKind::kLoadContext:
        events.push_back({t.end, kInsert, i, &t});
        break;
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.phase != b.phase) return a.phase < b.phase;
    return a.seq < b.seq;
  });

  // Instances are indexed data * n_iter + iter; n_iter covers every op's
  // iteration, so a program that names an iteration the application lacks
  // still finds its instance absent rather than out of range.
  std::size_t n_iter = 0;
  for (const auto* ops : {&program.dma_ops, &program.rc_ops}) {
    for (const Op& op : *ops) n_iter = std::max(n_iter, std::size_t{op.iter} + 1);
  }
  const std::size_t n_instances = app.data_objects().size() * n_iter;
  auto instance_index = [&](DataId data, std::uint32_t iter) {
    return std::size_t{data.index()} * n_iter + iter;
  };

  FbState fb[2] = {FbState(cfg_->fb_set_size, n_instances),
                   FbState(cfg_->fb_set_size, n_instances)};
  CmState cm(cfg_->cm_capacity_words,
             ctx_plan_->regime() == csched::ContextRegime::kPersistent);
  // Results present in external memory, per round (each round produces
  // fresh instances): a load of a produced object must follow its store in
  // the same round.  An instance's iteration belongs to one round, so one
  // stamp per instance holds the round of its latest store.
  std::vector<std::uint32_t> stored_in_round(n_instances, 0);  // round + 1; 0 = never

  auto describe = [&](const Op& op) {
    std::ostringstream out;
    out << to_string(op.kind) << ' '
        << (op.kind == OpKind::kLoadContext || op.kind == OpKind::kExec
                ? app.kernel(op.kernel).name
                : app.data(op.data).name)
        << " slot=" << op.slot << " iter=" << op.iter;
    return out.str();
  };

  for (const Event& ev : events) {
    const Op& op = *ev.op->op;
    const codegen::Slot& slot = program.slots[op.slot];
    const FbSet slot_set = sched.cluster(slot.cluster).set;
    auto what = [&] { return describe(op); };
    switch (op.kind) {
      case OpKind::kLoadData: {
        const std::size_t inst = instance_index(op.data, op.iter);
        if (ev.phase == kCheck) {
          // Data produced inside the application exists in external memory
          // only once this round's store has completed.
          const KernelId producer = app.data(op.data).producer;
          MSYS_REQUIRE(!producer.valid() || stored_in_round[inst] == slot.round + 1,
                       "loading a result before its store: " + describe(op));
          break;
        }
        const Placement& p = schedule.placement(op.cluster, {op.data, op.iter});
        fb[static_cast<std::size_t>(p.set)].insert(inst, p.extents, what);
        if (hooks_.on_load) hooks_.on_load(op, slot.round);
        break;
      }
      case OpKind::kExec: {
        const model::Kernel& kernel = app.kernel(op.kernel);
        if (ev.phase == kCheck) {
          MSYS_REQUIRE(cm.resident(op.kernel),
                       "contexts not CM-resident for " + describe(op));
          for (DataId in : kernel.inputs) {
            const std::size_t inst = instance_index(in, op.iter);
            const bool home = fb[static_cast<std::size_t>(slot_set)].resident(inst);
            const bool across =
                cfg_->cross_set_reads &&
                fb[static_cast<std::size_t>(other_set(slot_set))].resident(inst);
            MSYS_REQUIRE(home || across, "input '" + app.data(in).name +
                                             "' not resident for " + describe(op));
          }
        } else {
          for (DataId out : kernel.outputs) {
            const Placement& p = schedule.placement(slot.cluster, {out, op.iter});
            fb[static_cast<std::size_t>(p.set)].insert(instance_index(out, op.iter),
                                                       p.extents, what);
          }
          if (hooks_.on_exec) hooks_.on_exec(op, slot);
        }
        break;
      }
      case OpKind::kStoreData: {
        const std::size_t set = static_cast<std::size_t>(slot_set);
        const std::size_t inst = instance_index(op.data, op.iter);
        if (ev.phase == kCheck) {
          MSYS_REQUIRE(fb[set].resident(inst),
                       "storing a non-resident instance: " + describe(op));
        } else if (ev.phase == kInsert) {
          stored_in_round[inst] = slot.round + 1;
          if (hooks_.on_store) hooks_.on_store(op, slot.round);
        } else {
          fb[set].remove(inst, what);
        }
        break;
      }
      case OpKind::kRelease: {
        const Placement& p = schedule.placement(op.cluster, {op.data, op.iter});
        fb[static_cast<std::size_t>(p.set)].remove(instance_index(op.data, op.iter), what);
        break;
      }
      case OpKind::kLoadContext: {
        const ClusterId prev =
            op.slot > 0 ? program.slots[op.slot - 1].cluster : slot.cluster;
        cm.load(op.kernel, app.kernel(op.kernel).context_words, slot.cluster, prev,
                sched);
        break;
      }
    }
  }

  report.max_resident_words[0] = fb[0].peak_words();
  report.max_resident_words[1] = fb[1].peak_words();
  report.max_cm_words = cm.peak_words();

  if (trace_) {
    for (const TimedOp& t : timed) trace_(t.start, t.end, describe(*t.op));
  }

  // ---- Observability. ----  Counters mirror the SimReport fields so the
  // obs cross-check tests can reconcile the two; the trace recorder gets
  // the same per-op busy intervals render_timeline draws, on the sim-time
  // clock (pid 2): EXEC on the RC-array lane, transfers on the DMA lane.
  {
    static obs::Counter& runs = obs::counter("sim.runs");
    static obs::Counter& cycles_total = obs::counter("sim.cycles.total");
    static obs::Counter& cycles_compute = obs::counter("sim.cycles.compute");
    static obs::Counter& cycles_dma = obs::counter("sim.cycles.dma_busy");
    static obs::Counter& cycles_stall = obs::counter("sim.cycles.stall");
    static obs::Counter& words_loaded = obs::counter("sim.words.loaded");
    static obs::Counter& words_stored = obs::counter("sim.words.stored");
    static obs::Counter& words_context = obs::counter("sim.words.context");
    runs.add();
    cycles_total.add(report.total.value());
    cycles_compute.add(report.compute.value());
    cycles_dma.add(report.dma_busy.value());
    cycles_stall.add(report.stall.value());
    words_loaded.add(report.data_words_loaded);
    words_stored.add(report.data_words_stored);
    words_context.add(report.context_words);
  }
  if (obs::TraceRecorder* rec = obs::TraceRecorder::active()) {
    for (const TimedOp& t : timed) {
      if (t.op->kind == OpKind::kRelease || t.start == t.end) continue;
      const obs::SimLane lane =
          t.op->kind == OpKind::kExec ? obs::SimLane::kRc : obs::SimLane::kDma;
      rec->sim_complete(describe(*t.op), "sim", t.start.value(),
                        (t.end - t.start).value(), lane);
    }
  }
  if (span.active()) {
    span.add_arg(obs::arg("total_cycles", report.total.value()));
    span.add_arg(obs::arg("execs", std::uint64_t{report.exec_count}));
  }
  return report;
}

Simulator::Outcome Simulator::try_run(const ScheduleProgram& program) {
  Outcome outcome;
  try {
    outcome.report = run(program);
  } catch (const Error& e) {
    outcome.diagnostics.push_back(make_error("sim.fault", e.what()));
  }
  return outcome;
}

}  // namespace msys::sim
