#include "sim/fluid_net.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace nm::sim {

namespace {
/// Ghost flows must never complete on their own: their only job is to
/// mirror the home flow's demand, and their cap (the published home rate)
/// bounds how fast they could drain. 1e300 outlasts any simulable horizon.
constexpr double kGhostWork = 1e300;
/// Publish threshold: rates/caps that moved by less than this (relative)
/// are treated as converged, ending the exchange loop.
constexpr double kExchangeTol = 1e-12;
/// Work-drained threshold, mirroring the solver's completion test
/// (fluid.cpp's kEpsilon): a home flow at or below it has been (or is
/// about to be) declared finished by the compute phase just run.
constexpr double kWorkEpsilon = 1e-6;

bool moved(double a, double b) {
  if (a == b) {
    return false;  // covers equal infinities
  }
  if (!std::isfinite(a) || !std::isfinite(b)) {
    return true;
  }
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) > kExchangeTol * scale;
}

/// True when `cap` clears `rate` with relative margin: the cap is not the
/// binding constraint for a flow running at `rate`. A cap that stays slack
/// on both sides of a move cannot change the solved allocation — the
/// max-min solution is determined by its binding constraints only — so the
/// exchange can store the new value without re-solving the component.
bool cap_slack(double rate, double cap) { return cap > rate * (1.0 + 1e-9); }
}  // namespace

FluidNet::FluidNet(Simulation& sim) : sim_(&sim) {}

FluidNet::~FluidNet() {
  if (pool_ != nullptr) {
    pool_->set_exchange(nullptr);
  }
}

FluidDomain& FluidNet::add_domain(std::string name) {
  domains_.push_back(std::make_unique<FluidDomain>(*sim_, std::move(name)));
  auto& dom = *domains_.back();
  if (pool_ == nullptr && domains_.size() > 1) {
    // Second domain: boundary flows become possible, so settling must go
    // through the pool (it owns the exchange loop). Attach every domain
    // added so far, this one included.
    pool_ = std::make_unique<SolvePool>(*sim_);
    pool_->set_exchange(this);
    for (auto& added : domains_) {
      pool_->attach(added->scheduler());
    }
  } else if (pool_ != nullptr) {
    pool_->attach(dom.scheduler());
  }
  return dom;
}

FluidDomain& FluidNet::domain(std::size_t index) {
  NM_CHECK(index < domains_.size(), "domain index " << index << " out of range");
  return *domains_[index];
}

FluidDomain* FluidNet::domain_of(const FluidResource& res) {
  for (auto& dom : domains_) {
    if (&dom->scheduler() == res.scheduler_) {
      return dom.get();
    }
  }
  return nullptr;
}

FlowPtr FluidNet::start(FlowSpec spec) {
  NM_CHECK(!domains_.empty(), "FluidNet has no domains");
  NM_CHECK(!spec.shares.empty(), "a flow must cross at least one resource");

  // Home = owning domain of the first owned resource (matching the
  // first-touch lazy registration FluidScheduler::start applies to the
  // unowned ones); an all-unowned spec homes into domain 0.
  FluidScheduler* home = nullptr;
  bool cross = false;
  for (const auto& share : spec.shares) {
    NM_CHECK(share.resource != nullptr, "null resource in flow");
    FluidScheduler* owner = share.resource->scheduler_;
    if (owner == nullptr) {
      continue;
    }
    NM_CHECK(domain_of(*share.resource) != nullptr,
             "resource " << share.resource->name() << " is owned outside this FluidNet");
    if (home == nullptr) {
      home = owner;
    } else if (owner != home) {
      cross = true;
    }
  }
  if (home == nullptr) {
    home = &domains_.front()->scheduler();
  }
  if (!cross) {
    return home->start(std::move(spec));
  }

  // Boundary flow: the home flow carries the work and the home-domain
  // shares; each foreign domain gets a ghost flow over its share subset,
  // capped at the published home rate (0 until the first exchange).
  NM_CHECK(pool_ != nullptr, "cross-domain flow without a SolvePool");
  std::vector<ResourceShare> home_shares;
  std::vector<std::pair<FluidScheduler*, std::vector<ResourceShare>>> foreign;
  for (const auto& share : spec.shares) {
    FluidScheduler* owner = share.resource->scheduler_;
    if (owner == nullptr || owner == home) {
      home_shares.push_back(share);
      continue;
    }
    auto it = std::find_if(foreign.begin(), foreign.end(),
                           [owner](const auto& entry) { return entry.first == owner; });
    if (it == foreign.end()) {
      foreign.emplace_back(owner, std::vector<ResourceShare>{});
      it = std::prev(foreign.end());
    }
    it->second.push_back(share);
  }

  BoundaryFlow entry;
  entry.home_sched = home;
  entry.home = home->start(FlowSpec{spec.work, std::move(home_shares), spec.max_rate, spec.name});
  if (entry.home->finished_) {
    return entry.home;  // zero-work: nothing to mirror
  }
  for (auto& [sched, shares] : foreign) {
    auto ghost = sched->start(FlowSpec{kGhostWork, std::move(shares), 0.0, spec.name.str() + ":ghost"});
    ghost->ghost_ = true;
    entry.ghosts.push_back(GhostLink{sched, std::move(ghost)});
  }
  boundary_.push_back(std::move(entry));
  return boundary_.back().home;
}

void FluidNet::mark(FluidScheduler* sched, const Flow& flow,
                    std::vector<std::pair<FluidScheduler*, std::uint32_t>>& dirtied) {
  if (flow.comp_ != FluidScheduler::kNone) {
    dirtied.emplace_back(sched, flow.comp_);
  }
}

void FluidNet::exchange(std::vector<std::pair<FluidScheduler*, std::uint32_t>>& dirtied) {
  // Registration order; every step below reads only post-compute state,
  // so the exchange — and with it the whole settle — is deterministic. For
  // each boundary flow:
  //   1. Publish the home rate into each ghost's cap (the foreign domains
  //      then account rate × weight consumption on their resources).
  //   2. Fold the ghosts' capacity offers back into the home boundary cap.
  //      A resource's offer is the max-min level it last bound at (the
  //      ghost can always claim a fair share that high), or the ghost's
  //      current rate plus the resource's leftover headroom when it never
  //      bound — both read off the just-computed solve.
  for (std::size_t i = 0; i < boundary_.size();) {
    BoundaryFlow& bf = boundary_[i];
    Flow& home = *bf.home;
    // Retire on the solver's own completion test (not just finished_,
    // which commit sets later): the compute round just integrated the home
    // flow to `now`, so a drained one is about to be committed finished —
    // its ghosts must vanish in this same settle or they would keep
    // consuming foreign capacity until some unrelated dirtying.
    const bool drained =
        home.finished_ ||
        home.remaining_ <= std::max(kWorkEpsilon, home.rate_ * 0.5e-9);
    if (drained) {
      for (auto& link : bf.ghosts) {
        retire_ghost(*link.sched, *link.ghost, dirtied);
      }
      boundary_.erase(boundary_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    double cap = std::numeric_limits<double>::infinity();
    for (auto& link : bf.ghosts) {
      Flow& ghost = *link.ghost;
      if (moved(ghost.max_rate_, home.rate_)) {
        // Store the new cap unconditionally (the next round's moved() check
        // must see the published value, or the loop would re-publish
        // forever), but only re-solve the foreign component when the cap
        // was or becomes binding on the ghost. A slack-to-slack move leaves
        // the foreign solution — and therefore this resource's next offer —
        // untouched, so skipping the mark cannot change the fixed point.
        const double old_cap = ghost.max_rate_;
        ghost.max_rate_ = home.rate_;
        if (cap_slack(ghost.rate_, old_cap) && cap_slack(ghost.rate_, home.rate_)) {
          ++exchange_skips_;
        } else {
          mark(link.sched, ghost, dirtied);
        }
      }
      for (const auto& share : ghost.shares_) {
        const FluidResource& res = *share.resource;
        const double headroom = std::max(0.0, res.capacity_ - res.consume_rate_);
        double offer = std::max(res.bound_level_, ghost.rate_ + headroom / share.weight);
        if (res.cap_policy_ != nullptr) {
          // Calibrated boundary (e.g. a WanLink endpoint): the published cap
          // follows the policy's latency/bandwidth model instead of the raw
          // fair-share offer. Policies only ever tighten the offer, so the
          // Jacobi iteration keeps its fixed point and contraction.
          offer = res.cap_policy_->offer(res, share.weight, offer, sim_->now());
        }
        cap = std::min(cap, offer);
      }
    }
    if (moved(home.boundary_cap_, cap)) {
      // Same slack gate as the ghost publish, on the *effective* cap (the
      // solver reads min(max_rate_, boundary_cap_)): when the user cap is
      // the tighter constraint, the boundary cap can wander freely above it
      // without perturbing the home solve.
      const double old_eff = std::min(home.max_rate_, home.boundary_cap_);
      const double new_eff = std::min(home.max_rate_, cap);
      home.boundary_cap_ = cap;
      if (old_eff == new_eff ||
          (cap_slack(home.rate_, old_eff) && cap_slack(home.rate_, new_eff))) {
        ++exchange_skips_;
      } else {
        mark(bf.home_sched, home, dirtied);
      }
    }
    ++i;
  }
}

void FluidNet::retire_ghost(FluidScheduler& sched, Flow& ghost,
                            std::vector<std::pair<FluidScheduler*, std::uint32_t>>& dirtied) {
  if (ghost.finished_) {
    return;
  }
  const auto comp_id = ghost.comp_;
  if (comp_id != FluidScheduler::kNone) {
    auto& comp = *sched.comps_[comp_id];
    // The component may not have been solved at this instant yet: bank its
    // flows' progress (the ghost's included) before the ghost disappears
    // from the flow list.
    sched.integrate_component(comp);
    auto& flows = comp.flows;
    const auto pos = ghost.comp_index_;
    flows.erase(flows.begin() + pos);
    for (std::size_t i = pos; i < flows.size(); ++i) {
      flows[i]->comp_index_ = static_cast<std::uint32_t>(i);
    }
    dirtied.emplace_back(&sched, comp_id);
  }
  // Local + global retirement, minus the completion event: a ghost never
  // "finishes" for any waiter, it is torn down with its home flow.
  sched.finish_flow_local(ghost);
  sched.retire_flow_global(ghost);
}

}  // namespace nm::sim
