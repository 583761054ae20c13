// The end-of-instant settle batch: solves every fluid component dirtied at
// the current simulated instant, across every attached domain, in one
// deterministic pass.
//
// How it keeps the timeline deterministic:
//   1. Dirty marks never post: attached schedulers route mark_dirty (and
//      completion-timer firings) to the pool, which arms the kernel's
//      settle hook. The hook runs at the end of the simulated instant, so
//      every component dirtied at that instant — across all domains — is
//      collected into one batch.
//   2. The batch is sorted by (domain id, component id) — a canonical
//      order independent of mark order.
//   3. The *pure compute* phase (FluidScheduler::compute_component) runs
//      for every task first; each touches its own component's flows and
//      resources and the pool's scratch, and posts nothing.
//   4. Every *commit* phase then runs in the canonical order. Commits are
//      the only place timer posts and completion events enter the shared
//      Simulation queue, so the sequence numbers they draw depend only on
//      the batch's contents, never on the order marks arrived in.
// See DESIGN.md §5 "The end-of-instant settle batch".
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/fluid.h"
#include "sim/simulation.h"

namespace nm::sim {

/// Cross-domain coupling hook (implemented by FluidNet). When boundary
/// flows exist the pool interleaves compute rounds with exchange() calls —
/// solve dirty components against the current ghost caps, publish the
/// boundary rates, re-solve whatever moved — until a fixed point, then
/// commits every touched component exactly once in canonical order.
class SettleExchange {
 public:
  virtual ~SettleExchange() = default;
  /// True when at least one boundary flow is registered (enables
  /// multi-round settling; with none the pool keeps its single-round path).
  [[nodiscard]] virtual bool active() const = 0;
  /// Runs one Jacobi exchange over the boundary registry: publish each
  /// freshly-solved home rate into its ghosts' caps and fold the ghosts'
  /// capacity offers back into the home flow's boundary cap. Appends every
  /// (scheduler, component id) whose inputs moved to `dirtied`. Called
  /// between compute rounds.
  virtual void exchange(std::vector<std::pair<FluidScheduler*, std::uint32_t>>& dirtied) = 0;
};

class SolvePool {
 public:
  /// Registers the settle hook with `sim`. The pool must outlive no
  /// scheduler attached to it and must be destroyed before `sim`.
  explicit SolvePool(Simulation& sim);
  ~SolvePool();
  SolvePool(const SolvePool&) = delete;
  SolvePool& operator=(const SolvePool&) = delete;

  /// Takes over settling for `scheduler`. Attach order defines the
  /// scheduler's canonical domain id. Must happen before the scheduler has
  /// any pending settle (i.e. right after construction).
  void attach(FluidScheduler& scheduler);
  void detach(FluidScheduler& scheduler);

  /// Registers (or clears, with nullptr) the cross-domain exchange driver.
  void set_exchange(SettleExchange* exchange) { exchange_ = exchange; }
  [[nodiscard]] bool exchange_active() const {
    return exchange_ != nullptr && exchange_->active();
  }
  /// True when any attached scheduler has components waiting for the next
  /// settle point. Readers use it to decide whether a coupled (exchange)
  /// settle must run before rates can be observed.
  [[nodiscard]] bool any_dirty() const;

  /// Settle points executed so far, the components they solved, and the
  /// largest batch one settle collected.
  [[nodiscard]] std::size_t settle_count() const { return settles_; }
  [[nodiscard]] std::size_t solved_component_count() const { return solved_comps_; }
  [[nodiscard]] std::size_t max_batch_size() const { return max_batch_; }
  /// Compute rounds run inside exchanging settles (1 round = solve all
  /// pending components once), and how many settles hit the round cap
  /// before the exchange reached its fixed point.
  [[nodiscard]] std::size_t exchange_round_count() const { return exchange_rounds_; }
  [[nodiscard]] std::size_t unconverged_exchange_count() const { return unconverged_exchanges_; }
  /// Per-settle visibility on the same counter: rounds of the most recent
  /// exchanging settle, and the worst settle observed since construction.
  /// A healthy scenario stays far below kMaxExchangeRounds; tests gate on
  /// the max to catch convergence regressions before the safety valve
  /// silently absorbs them.
  [[nodiscard]] std::size_t last_settle_exchange_rounds() const { return last_settle_rounds_; }
  [[nodiscard]] std::size_t max_exchange_rounds_per_settle() const { return max_settle_rounds_; }

 private:
  friend class FluidScheduler;
  friend class FluidNet;

  /// Safety valve for a non-converging exchange: commit whatever the last
  /// round produced (all dirty flags are already cleared by then, so
  /// nothing is stranded) and count it in unconverged_exchange_count().
  /// The Jacobi iteration contracts geometrically (observed worst case
  /// ~0.7/round on coupled-bottleneck chains, ~75 rounds to 1e-12), so 256
  /// leaves a wide margin while still bounding a pathological settle.
  static constexpr std::size_t kMaxExchangeRounds = 256;

  struct TaskEntry {
    FluidScheduler* sched = nullptr;
    FluidScheduler::Component* comp = nullptr;
    std::uint32_t domain = 0;
    FluidScheduler::SolveResult result;
    /// Completions banked across exchange rounds (each recompute clears
    /// result.finished); swapped back into result before the final commit.
    std::vector<FlowPtr> finished_acc;
  };

  /// Called by an attached scheduler on every dirty mark; arms the kernel
  /// settle hook for the current instant.
  void notify_dirty(FluidScheduler& scheduler);
  /// The settle hook body: collect → (compute ↔ exchange)* → commit in
  /// canonical order.
  void settle();
  /// Computes every task listed in pending_, in canonical order. A compute
  /// that throws propagates before anything is committed.
  void compute_pending();
  /// Appends a task for `comp`, reusing a spare entry when there is one.
  void add_task(FluidScheduler* sched, FluidScheduler::Component* comp, std::uint32_t domain);
  /// Empties the batch into spare_tasks_. The entries keep their vectors'
  /// capacity, so later settles bank completions without allocating.
  void recycle_tasks();

  Simulation* sim_;
  std::uint64_t hook_id_ = 0;
  /// Attach-ordered; detach leaves a null hole so domain ids stay stable.
  std::vector<FluidScheduler*> attached_;
  SettleExchange* exchange_ = nullptr;

  /// The task batch for the current settle.
  std::vector<TaskEntry> tasks_;
  /// Entries of earlier batches, reused by add_task.
  std::vector<TaskEntry> spare_tasks_;
  /// Indices into tasks_ to compute this round, in canonical order. Round
  /// 0 lists every collected task; later (exchange) rounds list just the
  /// components the exchange re-dirtied.
  std::vector<std::size_t> pending_;
  std::vector<std::pair<FluidScheduler*, std::uint32_t>> dirtied_;
  FluidScheduler::SolveScratch scratch_;

  std::size_t settles_ = 0;
  std::size_t solved_comps_ = 0;
  std::size_t max_batch_ = 0;
  std::size_t exchange_rounds_ = 0;
  std::size_t unconverged_exchanges_ = 0;
  std::size_t last_settle_rounds_ = 0;
  std::size_t max_settle_rounds_ = 0;
};

}  // namespace nm::sim
