#include "msys/dsched/cost.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "msys/common/error.hpp"
#include "msys/common/strfmt.hpp"

namespace msys::dsched {

namespace {

/// Per-slot transfer/compute quantities, precomputed before the weave.
struct SlotCost {
  FbSet set{FbSet::kA};
  Cycles exec{};
  Cycles ctx_cycles{};        // context-load DMA time
  Cycles load_cycles{};       // prefetchable data-load DMA time
  Cycles late_load_cycles{};  // loads of the previous slot's results: they
                              // reach external memory only after ST(s-1),
                              // so they queue behind it
  Cycles store_cycles{};
  bool has_ctx_load{false};
  /// Previous slot on the same FB set (SIZE_MAX when none): data loads
  /// must wait for its execution to release the set's space.
  std::size_t prev_same_set{SIZE_MAX};
};

}  // namespace

std::string CostBreakdown::summary() const {
  if (!feasible) return "infeasible: " + infeasible_reason;
  std::ostringstream out;
  out << "total=" << total.value() << "c compute=" << compute.value() << "c stall="
      << stall.value() << "c dma=" << dma_busy.value() << "c loads=" << data_words_loaded
      << "w stores=" << data_words_stored << "w ctx=" << context_words << 'w';
  return out.str();
}

CostBreakdown predict_cost(const DataSchedule& schedule, const arch::M1Config& cfg,
                           const csched::ContextPlan& ctx_plan) {
  if (!schedule.feasible) {
    CostBreakdown out;
    out.feasible = false;
    out.infeasible_reason = schedule.infeasible_reason;
    return out;
  }
  return predict_cost(*schedule.sched, schedule.rf, schedule.round_plan, cfg, ctx_plan);
}

CostBreakdown predict_cost(const model::KernelSchedule& sched, std::uint32_t rf,
                           const std::vector<ClusterRoundPlan>& round_plan,
                           const arch::M1Config& cfg,
                           const csched::ContextPlan& ctx_plan) {
  CostBreakdown out;
  if (!ctx_plan.feasible()) {
    out.feasible = false;
    out.infeasible_reason = ctx_plan.infeasible_reason();
    return out;
  }
  out.feasible = true;

  const model::Application& app = sched.app();
  const std::uint32_t total_iterations = app.total_iterations();
  MSYS_REQUIRE(rf >= 1 && rf <= total_iterations, "RF outside [1, total_iterations]");
  const std::uint32_t n_clusters = static_cast<std::uint32_t>(sched.cluster_count());
  const std::uint32_t rounds = (total_iterations + rf - 1) / rf;
  const std::uint32_t n_slots = rounds * n_clusters;
  // iterations_in_round, inlined: RF except possibly the last round.
  auto iters_in_round = [&](std::uint32_t round) {
    return std::min(rf, total_iterations - round * rf);
  };

  // ---- Per-slot quantities. ----
  std::vector<SlotCost> slots(n_slots);
  for (std::uint32_t s = 0; s < n_slots; ++s) {
    const std::uint32_t round = s / n_clusters;
    const ClusterId cluster_id{s % n_clusters};
    const model::Cluster& cluster = sched.cluster(cluster_id);
    const std::uint32_t iters = iters_in_round(round);
    SlotCost& slot = slots[s];
    slot.set = cluster.set;

    Cycles exec = Cycles::zero();
    for (KernelId k : cluster.kernels) exec += app.kernel(k).exec_cycles;
    slot.exec = exec * iters;
    out.compute += slot.exec;

    Cycles ctx = Cycles::zero();
    if (ctx_plan.words_for_slot(round, cluster_id) > 0) {
      slot.has_ctx_load = true;
      for (KernelId k : cluster.kernels) {
        const std::uint32_t words = app.kernel(k).context_words;
        ctx += cfg.dma.context_cycles(words);
        out.context_words += words;
        ++out.dma_requests;
      }
    }
    slot.ctx_cycles = ctx;
    Cycles in = Cycles::zero();
    Cycles late = Cycles::zero();
    const ClusterRoundPlan& plan = round_plan[cluster_id.index()];
    for (ObjInstance inst : plan.loads) {
      if (inst.iter >= iters) continue;
      const SizeWords size = app.data(inst.data).size;
      const KernelId producer = app.data(inst.data).producer;
      const bool produced_by_prev_slot =
          producer.valid() && s > 0 &&
          sched.cluster_of(producer) == ClusterId{(s - 1) % n_clusters} &&
          (s % n_clusters) != 0;
      (produced_by_prev_slot ? late : in) += cfg.dma.data_cycles(size);
      out.data_words_loaded += size.value();
      ++out.dma_requests;
    }
    slot.load_cycles = in;
    slot.late_load_cycles = late;

    Cycles st = Cycles::zero();
    for (const StoreEvent& store : plan.stores) {
      if (store.inst.iter >= iters) continue;
      const SizeWords size = app.data(store.inst.data).size;
      st += cfg.dma.data_cycles(size);
      out.data_words_stored += size.value();
      ++out.dma_requests;
    }
    slot.store_cycles = st;
    out.dma_busy += ctx + in + late + st;
  }
  // Same-set predecessor links.
  {
    std::size_t last_on_set[2] = {SIZE_MAX, SIZE_MAX};
    for (std::uint32_t s = 0; s < n_slots; ++s) {
      const auto set_idx = static_cast<std::size_t>(slots[s].set);
      slots[s].prev_same_set = last_on_set[set_idx];
      last_on_set[set_idx] = s;
    }
  }

  // ---- The double-buffering weave (see header): IN_early may prefetch
  // during the previous slot; IN_late (loads of the previous slot's own
  // results) always queues behind that slot's stores. ----
  enum class Kind { kInEarly, kStore, kInLate };
  struct Item {
    Kind kind;
    std::uint32_t slot;
  };
  std::vector<Item> order;
  order.reserve(3 * n_slots);
  std::vector<bool> emitted(n_slots, false);
  order.push_back({Kind::kInEarly, 0});
  emitted[0] = true;
  for (std::uint32_t s = 0; s < n_slots; ++s) {
    if (s + 1 < n_slots && slots[s + 1].set != slots[s].set && !emitted[s + 1]) {
      order.push_back({Kind::kInEarly, s + 1});
      emitted[s + 1] = true;
    }
    order.push_back({Kind::kStore, s});
    if (s + 1 < n_slots) {
      if (!emitted[s + 1]) {
        order.push_back({Kind::kInEarly, s + 1});
        emitted[s + 1] = true;
      }
      if (slots[s + 1].late_load_cycles.value() > 0) {
        order.push_back({Kind::kInLate, s + 1});
      }
    }
  }

  // ---- Timeline recurrence over the weave. ----
  const bool ctx_serial = !ctx_plan.overlaps_compute();
  const bool ctx_persistent = ctx_plan.regime() == csched::ContextRegime::kPersistent;
  std::vector<Cycles> in_done(n_slots), exec_done(n_slots);
  Cycles dma_t = Cycles::zero();
  auto finish_exec = [&](std::uint32_t s) {
    const Cycles prev_exec = (s == 0) ? Cycles::zero() : exec_done[s - 1];
    exec_done[s] = std::max(prev_exec, in_done[s]) + slots[s].exec;
  };
  for (const Item& item : order) {
    const std::uint32_t s = item.slot;
    if (item.kind == Kind::kInEarly) {
      Cycles ctx_start = dma_t;
      if (ctx_serial && s > 0 && slots[s].has_ctx_load) {
        // The CM cannot hold two clusters: this slot's context load must
        // wait for the previous slot's execution to release the CM.
        ctx_start = std::max(ctx_start, exec_done[s - 1]);
      } else if (!ctx_persistent && s >= 2 && slots[s].has_ctx_load) {
        // The CM holds at most two adjacent clusters' contexts: prefetch
        // reaches one slot ahead, never two — loading slot s's contexts
        // would evict slot s-2's, so it must wait for that execution.
        ctx_start = std::max(ctx_start, exec_done[s - 2]);
      }
      const Cycles ctx_done = ctx_start + slots[s].ctx_cycles;
      Cycles load_start = ctx_done;
      if (slots[s].load_cycles.value() > 0 && slots[s].prev_same_set != SIZE_MAX) {
        // Data loads overwrite FB words of the previous same-set cluster;
        // they must wait until its execution has released them.  (Its
        // stores precede these loads on the DMA channel by construction.)
        load_start = std::max(load_start, exec_done[slots[s].prev_same_set]);
      }
      in_done[s] = load_start + slots[s].load_cycles;
      dma_t = in_done[s];
      if (slots[s].late_load_cycles.value() == 0) finish_exec(s);
    } else if (item.kind == Kind::kInLate) {
      Cycles start = dma_t;
      if (slots[s].prev_same_set != SIZE_MAX) {
        start = std::max(start, exec_done[slots[s].prev_same_set]);
      }
      in_done[s] = start + slots[s].late_load_cycles;
      dma_t = in_done[s];
      finish_exec(s);
    } else if (slots[s].store_cycles.value() > 0) {
      // A slot that stores nothing emits no store op, so the channel does
      // not wait for its execution.
      const Cycles start = std::max(dma_t, exec_done[s]);
      dma_t = start + slots[s].store_cycles;
    }
  }

  out.total = std::max(exec_done[n_slots - 1], dma_t);
  out.stall = out.total - out.compute;
  return out;
}

}  // namespace msys::dsched
