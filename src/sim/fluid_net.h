// FluidNet: the domain-aware flow façade. It owns a set of FluidDomains
// (topology shards, each an independently-solved FluidScheduler on the
// shared clock) and routes every FlowSpec to the domain owning its
// resources. A spec whose resources span domains becomes a *boundary
// flow*: the flow itself lives in its home domain, and each foreign domain
// hosts a ghost flow mirroring the boundary flow's demand onto the foreign
// resources it crosses.
//
// The coupling runs at settle points, driven by the SolvePool (see
// solve_pool.h): after each compute round the net publishes every
// boundary flow's freshly-solved home rate into its ghosts' rate caps, and
// folds the ghosts' *capacity offers* — the rate each foreign resource
// could grant the ghost, read off the last solve's binding level and free
// capacity — back into the home flow's boundary cap. Components whose
// inputs moved are re-solved, and the loop repeats until a fixed point (at
// which the cross-domain rates equal the merged single-domain max-min
// solution; see DESIGN.md §6). The exchange walks boundary flows in
// registration order and the commit order is canonical, so the timeline is
// a deterministic function of the flow program.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/fluid.h"
#include "sim/solve_pool.h"

namespace nm::sim {

class FluidNet final : public FlowRouter, private SettleExchange {
 public:
  /// A net over `sim`. Its SolvePool is created when a second domain is
  /// added (boundary flows need its exchange loop), so a single-domain net
  /// keeps the legacy zero-delay settle path exactly.
  explicit FluidNet(Simulation& sim);
  ~FluidNet() override;
  FluidNet(const FluidNet&) = delete;
  FluidNet& operator=(const FluidNet&) = delete;

  /// Adds a topology shard. Add every domain before starting flows (pool
  /// attachment requires schedulers with no pending settles).
  FluidDomain& add_domain(std::string name);
  [[nodiscard]] std::size_t domain_count() const { return domains_.size(); }
  [[nodiscard]] FluidDomain& domain(std::size_t index);
  /// The domain owning `res`, or nullptr when the resource is unregistered
  /// or owned by a scheduler outside this net.
  [[nodiscard]] FluidDomain* domain_of(const FluidResource& res);

  [[nodiscard]] Simulation& simulation() override { return *sim_; }

  /// Routes `spec` to the domain owning its resources (unowned resources
  /// register into the home domain, first-touch). A spec spanning domains
  /// starts a boundary flow: the returned handle is the home flow — its
  /// rate/remaining/completion behave exactly like a local flow's, while
  /// ghost flows mirror its consumption into the foreign domains.
  FlowPtr start(FlowSpec spec) override;

  /// The pool driving the end-of-instant settle and the boundary exchange;
  /// nullptr for a single-domain net.
  [[nodiscard]] SolvePool* pool() { return pool_.get(); }

  [[nodiscard]] std::size_t boundary_flow_count() const { return boundary_.size(); }
  [[nodiscard]] std::size_t exchange_round_count() const {
    return pool_ != nullptr ? pool_->exchange_round_count() : 0;
  }
  [[nodiscard]] std::size_t unconverged_exchange_count() const {
    return pool_ != nullptr ? pool_->unconverged_exchange_count() : 0;
  }
  /// Exchange rounds the most recent coupled settle needed, and the worst
  /// any settle has needed — the regression gate for the round-cap safety
  /// valve (a healthy scenario stays far below SolvePool's cap).
  [[nodiscard]] std::size_t last_settle_exchange_rounds() const {
    return pool_ != nullptr ? pool_->last_settle_exchange_rounds() : 0;
  }
  [[nodiscard]] std::size_t max_exchange_rounds_per_settle() const {
    return pool_ != nullptr ? pool_->max_exchange_rounds_per_settle() : 0;
  }
  /// Cap publishes the exchange stored but did not re-solve for, because
  /// the cap stayed slack (non-binding) on both sides of the move. Each
  /// skip is a component re-solve (and possibly a whole extra exchange
  /// round) avoided; deep domain chains rely on this to keep settles from
  /// rippling caps across domains the change cannot affect.
  [[nodiscard]] std::size_t exchange_skip_count() const { return exchange_skips_; }

 private:
  /// One registered boundary flow: the home flow plus one ghost per
  /// foreign domain it crosses.
  struct GhostLink {
    FluidScheduler* sched = nullptr;
    FlowPtr ghost;
  };
  struct BoundaryFlow {
    FluidScheduler* home_sched = nullptr;
    FlowPtr home;
    std::vector<GhostLink> ghosts;
  };

  // SettleExchange:
  [[nodiscard]] bool active() const override { return !boundary_.empty(); }
  void exchange(std::vector<std::pair<FluidScheduler*, std::uint32_t>>& dirtied) override;

  /// Serially removes a finished boundary flow's ghost from its foreign
  /// component (preserving flow order) and retires it without firing its
  /// completion event.
  void retire_ghost(FluidScheduler& sched, Flow& ghost,
                    std::vector<std::pair<FluidScheduler*, std::uint32_t>>& dirtied);
  static void mark(FluidScheduler* sched, const Flow& flow,
                   std::vector<std::pair<FluidScheduler*, std::uint32_t>>& dirtied);

  Simulation* sim_;
  std::vector<std::unique_ptr<FluidDomain>> domains_;
  /// Registration order is the exchange's iteration order.
  std::vector<BoundaryFlow> boundary_;
  std::size_t exchange_skips_ = 0;
  /// Declared last: destroyed first, detaching every scheduler before any
  /// domain (and the flows it still tracks) goes away.
  std::unique_ptr<SolvePool> pool_;
};

}  // namespace nm::sim
