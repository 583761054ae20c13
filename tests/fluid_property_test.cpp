// Randomized property test: the one production max-min solver — the
// incremental, component-partitioned FluidScheduler — against a brute-force
// reference solver (the oracle) that recomputes the global allocation from
// scratch and shares no state with the scheduler. On 1250 random
// topologies, and after every suspend/resume/cap/capacity mutation, the two
// must agree within 1e-9.
// The same harness cross-checks the O(1) rate-tracked consumption read:
// every resource's consumed() must match a brute-force integral of
// (reference rate × weight) over every constant-rate window within 1e-9.
// Part of the flows carry finite work and retire mid-schedule, new flows
// join (merging components), some flows cross one resource twice (as a
// same-host transfer charges one node's CPU as both src and dst), and a
// band of long schedules retires enough flows to force epoch rebuilds, so
// the per-resource flow lists are pinned through every retirement path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "max_min_oracle.h"
#include "sim/fluid.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace nm::sim {
namespace {

using oracle::reference_rates;
using oracle::RefFlow;

// --- Random topology + mutation driver --------------------------------------

struct Topology {
  Simulation sim;
  FluidScheduler sched{sim};
  std::vector<std::unique_ptr<FluidResource>> resources;
  /// Unfinished flows (pruned at every sync_reference).
  std::vector<FlowPtr> flows;
  /// Brute-force consumption integral per resource: Σ over constant-rate
  /// windows of (reference rate × weight × window). The production
  /// scheduler instead tracks an aggregate rate at solve time and reads
  /// consumed() in O(1); the two must agree within 1e-9.
  std::vector<double> consumed_ref;
  /// Reference rates of `flows`, in effect since `ref_time`, the instant
  /// consumed_ref is integrated up to.
  std::vector<double> ref_rates;
  TimePoint ref_time;
  /// Flows that finished so far.
  std::size_t retired = 0;
};

/// The reference solver's view of the topology's current state.
struct RefProblem {
  std::vector<double> capacity;
  std::vector<RefFlow> flows;
};

RefProblem build_ref(Topology& topo) {
  RefProblem prob;
  prob.capacity.reserve(topo.resources.size());
  for (const auto& r : topo.resources) {
    prob.capacity.push_back(r->capacity());
  }
  prob.flows.reserve(topo.flows.size());
  for (const auto& flow : topo.flows) {
    RefFlow rf;
    // 0 while suspended; a finished flow (not yet pruned) runs at 0 too.
    rf.cap = flow->finished() ? 0.0 : flow->max_rate();
    for (const auto& share : flow->shares()) {
      for (std::size_t r = 0; r < topo.resources.size(); ++r) {
        if (topo.resources[r].get() == share.resource) {
          rf.res.push_back(r);
          rf.weight.push_back(share.weight);
        }
      }
    }
    prob.flows.push_back(std::move(rf));
  }
  return prob;
}

/// Rates are piecewise constant between syncs: every mutation and every
/// completion is followed by one. Integrates the brute-force consumption
/// reference up to now at the reference rates in effect since the last
/// sync (consumed_ref[r] += rate × weight × dt), prunes finished flows, and
/// re-solves the reference for the current state.
void sync_reference(Topology& topo) {
  const RefProblem before = build_ref(topo);
  const double dt = (topo.sim.now() - topo.ref_time).to_seconds();
  // Flows admitted since the last sync have no reference rate yet; they
  // were admitted at ref_time (mutations never advance the clock).
  for (std::size_t f = 0; f < topo.ref_rates.size(); ++f) {
    for (std::size_t s = 0; s < before.flows[f].res.size(); ++s) {
      topo.consumed_ref[before.flows[f].res[s]] +=
          topo.ref_rates[f] * before.flows[f].weight[s] * dt;
    }
  }
  topo.ref_time = topo.sim.now();
  topo.retired += static_cast<std::size_t>(std::erase_if(
      topo.flows, [](const FlowPtr& flow) { return flow->finished(); }));
  const RefProblem after = build_ref(topo);
  topo.ref_rates = reference_rates(after.capacity, after.flows);
}

/// Syncs the reference at the instant `flow` completes, before any other
/// rate change: the completing solve is the only event of that instant
/// that moves rates, and the waiter resumes within the same instant.
Task sync_at_completion(Topology& topo, FlowPtr flow) {
  co_await flow->completion().wait();
  sync_reference(topo);
}

void check_against_reference(Topology& topo, std::uint32_t seed, int step) {
  const RefProblem prob = build_ref(topo);
  const auto& capacity = prob.capacity;
  const auto& ref = prob.flows;
  const auto expected = reference_rates(capacity, ref);
  for (std::size_t f = 0; f < topo.flows.size(); ++f) {
    if (topo.flows[f]->finished()) {
      continue;  // its last rate stays behind; the reference runs it at 0
    }
    const double got = topo.flows[f]->current_rate();
    const double want = expected[f];
    const double tol = 1e-9 * std::max(1.0, std::max(std::abs(got), std::abs(want)));
    EXPECT_NEAR(got, want, tol) << "seed=" << seed << " step=" << step << " flow=" << f;
  }
  // Feasibility: no resource is over-committed.
  std::vector<double> used(capacity.size(), 0.0);
  for (std::size_t f = 0; f < topo.flows.size(); ++f) {
    if (topo.flows[f]->finished()) {
      continue;
    }
    for (std::size_t s = 0; s < ref[f].res.size(); ++s) {
      used[ref[f].res[s]] += topo.flows[f]->current_rate() * ref[f].weight[s];
    }
  }
  for (std::size_t r = 0; r < capacity.size(); ++r) {
    EXPECT_LE(used[r], capacity[r] * (1.0 + 1e-9)) << "seed=" << seed << " res=" << r;
  }
  // O(1) rate-tracked consumption vs the brute-force integral. consumed()
  // is a pure read (extrapolation over the constant-rate window since the
  // last solve), so sampling it here must not perturb anything the later
  // steps observe.
  for (std::size_t r = 0; r < topo.resources.size(); ++r) {
    const double got = topo.resources[r]->consumed();
    const double want = topo.consumed_ref[r];
    const double tol = 1e-9 * std::max(1.0, std::max(std::abs(got), std::abs(want)));
    EXPECT_NEAR(got, want, tol)
        << "consumed() diverged from integral: seed=" << seed << " step=" << step
        << " res=" << r;
  }
}

/// Topologies whose retirements passed the scheduler's epoch-rebuild
/// threshold (more than 64, and more than the live flows). Kept above zero
/// by the long-schedule band so a rebuild always runs under the oracle.
int g_rebuild_topologies = 0;

void run_one_topology(std::uint32_t seed) {
  std::mt19937 rng(seed);
  Topology topo;
  std::uniform_real_distribution<double> cap_dist(0.5, 200.0);
  const std::size_t r_count = 1 + rng() % 8;
  for (std::size_t r = 0; r < r_count; ++r) {
    // Named string sidesteps a GCC 12 -Wrestrict false positive on the
    // "literal + to_string" temporary under heavy inlining.
    std::string name = "r";
    name += std::to_string(r);
    topo.resources.push_back(std::make_unique<FluidResource>(
        topo.sched, std::move(name), cap_dist(rng)));
  }
  topo.consumed_ref.assign(r_count, 0.0);
  std::uniform_real_distribution<double> weight_dist(0.01, 2.0);
  std::uniform_real_distribution<double> flow_cap_dist(0.1, 100.0);
  std::uniform_real_distribution<double> work_dist(0.01, 5.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // Work far beyond what the mutation window can drain never completes;
  // finite work drains within a few windows at typical rates.
  const auto start_flow = [&](bool finite) {
    const std::size_t cross = 1 + rng() % std::min<std::size_t>(4, r_count);
    std::vector<std::size_t> picks;
    while (picks.size() < cross) {
      const std::size_t r = rng() % r_count;
      if (std::find(picks.begin(), picks.end(), r) == picks.end()) {
        picks.push_back(r);
      }
    }
    if (unit(rng) < 0.15) {
      picks.push_back(picks[rng() % picks.size()]);  // crosses one resource twice
    }
    // Weights stay within two decades: mixing ~1e-9 weights (the CPU
    // core-seconds-per-byte scale) with ~1 weights makes progressive
    // filling ill-conditioned, and incremental-vs-scratch residuals then
    // differ by more than bookkeeping noise. The tiny-weight regime is
    // covered by the calibrated integration tests instead.
    std::vector<ResourceShare> shares;
    for (const auto r : picks) {
      shares.push_back(ResourceShare{topo.resources[r].get(), weight_dist(rng)});
    }
    const double cap = unit(rng) < 0.4 ? flow_cap_dist(rng) : kUncappedRate;
    const double work = finite ? work_dist(rng) : 1e15;
    topo.flows.push_back(topo.sched.start(FlowSpec{work, std::move(shares), cap, {}}));
    if (finite) {
      topo.sim.spawn(sync_at_completion(topo, topo.flows.back()));
    }
  };
  const std::size_t f_count = 1 + rng() % 40;
  for (std::size_t f = 0; f < f_count; ++f) {
    start_flow(unit(rng) < 0.3);
  }
  sync_reference(topo);
  check_against_reference(topo, seed, /*step=*/-1);

  // Every fiftieth seed runs a long schedule of admissions and completions.
  const bool long_schedule = seed % 50 == 0;
  const int steps = long_schedule ? 250 : static_cast<int>(rng() % 7);
  bool rebuilt = false;
  for (int step = 0; step < steps; ++step) {
    const auto kind = rng() % 6;
    if (kind == 5 || topo.flows.empty()) {
      // Admission at a later instant: merges the components the new flow
      // bridges after both have made progress.
      for (std::size_t n = 1 + rng() % 4; n > 0; --n) {
        start_flow(true);
      }
    } else {
      auto& flow = topo.flows[rng() % topo.flows.size()];
      switch (kind) {
        case 0:
          // Completions inside the window sync the reference themselves;
          // the final sync below banks the tail.
          topo.sim.run_for(Duration::millis(1 + rng() % 100));
          break;
        case 1:
          flow->set_max_rate(unit(rng) < 0.3 ? kUncappedRate : flow_cap_dist(rng));
          break;
        case 2:
          flow->suspend();
          break;
        case 3:
          flow->resume();
          break;
        case 4:
          topo.resources[rng() % r_count]->set_capacity(cap_dist(rng));
          break;
      }
    }
    sync_reference(topo);
    check_against_reference(topo, seed, step);
    rebuilt = rebuilt || (topo.retired > 64 && topo.retired > topo.flows.size());
  }
  g_rebuild_topologies += rebuilt ? 1 : 0;
}

TEST(FluidReference, IncrementalMatchesBruteForceOn1000RandomTopologies) {
  g_rebuild_topologies = 0;
  for (std::uint32_t seed = 1; seed <= 1000; ++seed) {
    run_one_topology(seed);
    if (::testing::Test::HasFailure()) {
      break;  // first failing seed is enough to debug
    }
  }
  EXPECT_GT(g_rebuild_topologies, 0) << "no schedule reached an epoch rebuild";
}

// A second band of seeds exercising the same machinery keeps the total
// comfortably above the 1000-topology floor even if bands are split later.
TEST(FluidReference, IncrementalMatchesBruteForceOnHighSeeds) {
  for (std::uint32_t seed = 100000; seed < 100250; ++seed) {
    run_one_topology(seed);
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
}

}  // namespace
}  // namespace nm::sim
