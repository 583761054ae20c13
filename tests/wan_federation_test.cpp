// WAN federation golden-reference layer. Three strata:
//
//  1. Model-free equivalence: a WanLink with zero latency and zero loss is
//     a plain boundary-resource pair, so a two-site split crossed by WAN
//     flows must produce the same max-min fair rates as the identical
//     topology merged onto one scheduler (with the endpoints as ordinary
//     resources) and as a brute-force global reference — within 1e-9,
//     across ~200 random topologies and mutation schedules.
//  2. Model semantics, hand-checkable: the Mathis ceiling binds per flow
//     (it models per-connection TCP throughput; the line rate stays the
//     shared-medium sum constraint), a factor-0 phase freezes crossing
//     flows until a heal phase, and an RTT-only phase still re-folds the
//     published caps (set_capacity marks the crossing components dirty
//     even when the numeric capacity is unchanged).
//  3. Determinism: with a lossy, time-varying link active, finite-work
//     timelines, a full cross-site Federation migration and a 3-site mesh
//     evacuation are pinned by value to the nanosecond.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/evacuation_driver.h"
#include "core/federation.h"
#include "scenarios/evacuation.h"
#include "sim/fluid.h"
#include "sim/fluid_net.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/wan_link.h"
#include "util/rng.h"
#include "vmm/host.h"
#include "vmm/migration.h"
#include "vmm/vm.h"

namespace nm::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- Brute-force reference max-min solver (as in fluid_crossdomain_test) ----

struct RefFlow {
  std::vector<std::size_t> res;
  std::vector<double> weight;
  double cap = kInf;  // 0 when suspended
};

std::vector<double> reference_rates(const std::vector<double>& capacity,
                                    const std::vector<RefFlow>& flows) {
  const std::size_t f_count = flows.size();
  std::vector<double> rate(f_count, 0.0);
  std::vector<bool> frozen(f_count, false);
  std::size_t left = f_count;
  while (left > 0) {
    std::vector<double> residual = capacity;
    std::vector<double> wsum(capacity.size(), 0.0);
    std::vector<std::size_t> unfrozen(capacity.size(), 0);
    for (std::size_t f = 0; f < f_count; ++f) {
      for (std::size_t s = 0; s < flows[f].res.size(); ++s) {
        if (frozen[f]) {
          residual[flows[f].res[s]] -= rate[f] * flows[f].weight[s];
        } else {
          wsum[flows[f].res[s]] += flows[f].weight[s];
          ++unfrozen[flows[f].res[s]];
        }
      }
    }
    double bound = kInf;
    for (std::size_t r = 0; r < capacity.size(); ++r) {
      if (unfrozen[r] > 0 && wsum[r] > 0.0) {
        bound = std::min(bound, std::max(0.0, residual[r]) / wsum[r]);
      }
    }
    for (std::size_t f = 0; f < f_count; ++f) {
      if (!frozen[f]) {
        bound = std::min(bound, flows[f].cap);
      }
    }
    if (!std::isfinite(bound)) {
      ADD_FAILURE() << "reference solver found no finite bound";
      return rate;
    }
    std::vector<bool> binding(capacity.size(), false);
    for (std::size_t r = 0; r < capacity.size(); ++r) {
      binding[r] = unfrozen[r] > 0 && wsum[r] > 0.0 &&
                   std::max(0.0, residual[r]) / wsum[r] <= bound * (1.0 + 1e-12);
    }
    bool progress = false;
    for (std::size_t f = 0; f < f_count; ++f) {
      if (frozen[f]) {
        continue;
      }
      bool freeze = flows[f].cap <= bound * (1.0 + 1e-12);
      for (std::size_t s = 0; !freeze && s < flows[f].res.size(); ++s) {
        freeze = binding[flows[f].res[s]];
      }
      if (freeze) {
        rate[f] = std::min(bound, flows[f].cap);
        frozen[f] = true;
        --left;
        progress = true;
      }
    }
    if (!progress) {
      ADD_FAILURE() << "reference solver stalled";
      return rate;
    }
  }
  return rate;
}

// --- Topology description: two sites plus a WAN endpoint pair ---------------

struct FlowDesc {
  std::vector<std::size_t> res;
  std::vector<double> weight;
  double cap = kInf;
  double work = 1e15;
};

// Regular resource r lives at site r % 2; the last two capacity entries are
// the WAN endpoints (equal, = line rate). A flow whose regular resources
// span both sites carries shares on both endpoints (the shared-medium
// routing the Federation's fabrics use).
struct WanTopo {
  std::vector<double> capacity;
  std::vector<FlowDesc> flows;
  std::size_t wan_a = 0;
  std::size_t wan_b = 0;
  double line = 0.0;
};

WanTopo random_wan_topo(std::mt19937& rng, bool finite_work, double cap_scale,
                        double work_scale) {
  std::uniform_real_distribution<double> cap_dist(0.5, 200.0);
  std::uniform_real_distribution<double> line_dist(5.0, 150.0);
  std::uniform_real_distribution<double> weight_dist(0.01, 2.0);
  std::uniform_real_distribution<double> wan_weight_dist(0.25, 1.5);
  std::uniform_real_distribution<double> flow_cap_dist(0.1, 100.0);
  std::uniform_real_distribution<double> work_dist(0.1, 50.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  WanTopo t;
  const std::size_t r_count = 2 + rng() % 7;
  for (std::size_t r = 0; r < r_count; ++r) {
    t.capacity.push_back(cap_dist(rng) * cap_scale);
  }
  t.line = line_dist(rng) * cap_scale;
  t.wan_a = r_count;
  t.wan_b = r_count + 1;
  t.capacity.push_back(t.line);
  t.capacity.push_back(t.line);
  const std::size_t f_count = 1 + rng() % 24;
  for (std::size_t f = 0; f < f_count; ++f) {
    // Up to two regular resources; a cross-site flow adds the endpoint
    // pair, for four shares total — the span envelope the ghost exchange
    // provably solves to the global max-min point (fluid_crossdomain_test
    // pins spans up to 4; beyond that the Jacobi fold can settle on a
    // stable fixed point that is not the max-min allocation).
    const std::size_t span = 1 + rng() % std::min<std::size_t>(2, r_count);
    FlowDesc fd;
    while (fd.res.size() < span) {
      const std::size_t r = rng() % r_count;
      if (std::find(fd.res.begin(), fd.res.end(), r) == fd.res.end()) {
        fd.res.push_back(r);
        fd.weight.push_back(weight_dist(rng));
      }
    }
    fd.cap = unit(rng) < 0.4 ? flow_cap_dist(rng) * cap_scale : kUncappedRate;
    fd.work = finite_work ? work_dist(rng) * work_scale : 1e15;
    t.flows.push_back(std::move(fd));
  }
  // Force flow 0 cross-site so every seed genuinely crosses the link.
  t.flows[0].res = {0, 1};
  t.flows[0].weight = {1.0, 1.0};
  // Cross-site flows take a share on each endpoint (one stream on the
  // wire: same weight both sides, and weights != 1 exercise the policy's
  // wire-rate -> flow-rate conversion).
  for (auto& fd : t.flows) {
    bool site[2] = {false, false};
    for (const std::size_t r : fd.res) {
      site[r % 2] = true;
    }
    if (site[0] && site[1]) {
      const double w = wan_weight_dist(rng);
      fd.res.push_back(t.wan_a);
      fd.weight.push_back(w);
      fd.res.push_back(t.wan_b);
      fd.weight.push_back(w);
    }
  }
  return t;
}

// The same topology on one scheduler, endpoints as plain resources.
struct MergedTopo {
  Simulation sim;
  FluidScheduler sched{sim};
  std::vector<std::unique_ptr<FluidResource>> res;
  std::vector<FlowPtr> flows;

  explicit MergedTopo(const WanTopo& t) {
    for (std::size_t r = 0; r < t.capacity.size(); ++r) {
      std::string name = "r";
      name += std::to_string(r);
      res.push_back(std::make_unique<FluidResource>(sched, std::move(name), t.capacity[r]));
    }
    for (const auto& fd : t.flows) {
      FlowSpec spec{fd.work, {}, fd.cap, {}};
      for (std::size_t s = 0; s < fd.res.size(); ++s) {
        spec.over(*res[fd.res[s]], fd.weight[s]);
      }
      flows.push_back(sched.start(std::move(spec)));
    }
  }
};

// Two site domains coupled by a real WanLink; regular resource r lands at
// site r % 2, and the endpoint shares route through wan.a()/wan.b().
struct FederatedTopo {
  Simulation sim;
  FluidNet net;
  std::unique_ptr<WanLink> wan;
  std::vector<std::unique_ptr<FluidResource>> res;  // regular resources only
  std::vector<FlowPtr> flows;

  FederatedTopo(const WanTopo& t, WanLinkConfig cfg) : net(sim) {
    auto& da = net.add_domain("site-a");
    auto& db = net.add_domain("site-b");
    cfg.line_rate = Bandwidth::bytes_per_sec(t.line);
    wan = std::make_unique<WanLink>(sim, da.scheduler(), db.scheduler(), "test", cfg);
    const std::size_t regular = t.capacity.size() - 2;
    for (std::size_t r = 0; r < regular; ++r) {
      auto& dom = net.domain(r % 2);
      std::string name = "r";
      name += std::to_string(r);
      res.push_back(
          std::make_unique<FluidResource>(dom.scheduler(), std::move(name), t.capacity[r]));
    }
    for (const auto& fd : t.flows) {
      FlowSpec spec{fd.work, {}, fd.cap, {}};
      for (std::size_t s = 0; s < fd.res.size(); ++s) {
        const std::size_t r = fd.res[s];
        if (r == t.wan_a) {
          spec.over(wan->a(), fd.weight[s]);
        } else if (r == t.wan_b) {
          spec.over(wan->b(), fd.weight[s]);
        } else {
          spec.over(*res[r], fd.weight[s]);
        }
      }
      flows.push_back(net.start(std::move(spec)));
    }
  }
};

std::vector<double> expected_rates(const MergedTopo& m, const WanTopo& t) {
  std::vector<double> capacity;
  capacity.reserve(m.res.size());
  for (const auto& r : m.res) {
    capacity.push_back(r->capacity());
  }
  std::vector<RefFlow> flows;
  flows.reserve(t.flows.size());
  for (std::size_t f = 0; f < t.flows.size(); ++f) {
    RefFlow rf;
    rf.res = t.flows[f].res;
    rf.weight = t.flows[f].weight;
    rf.cap = m.flows[f]->max_rate();  // 0 while suspended
    flows.push_back(std::move(rf));
  }
  return reference_rates(capacity, flows);
}

void check_rates(MergedTopo& merged, FederatedTopo& split, const WanTopo& t,
                 std::uint32_t seed, int step) {
  const auto want = expected_rates(merged, t);
  for (std::size_t f = 0; f < t.flows.size(); ++f) {
    const double m = merged.flows[f]->current_rate();
    const double s = split.flows[f]->current_rate();
    const double tol = 1e-9 * std::max({1.0, std::abs(m), std::abs(s), std::abs(want[f])});
    EXPECT_NEAR(m, want[f], tol)
        << "merged vs reference: seed=" << seed << " step=" << step << " flow=" << f;
    EXPECT_NEAR(s, want[f], tol)
        << "federated vs reference: seed=" << seed << " step=" << step << " flow=" << f;
  }
}

void run_golden_equivalence(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const WanTopo t = random_wan_topo(rng, /*finite_work=*/false, 1.0, 1.0);
  MergedTopo merged(t);
  // Zero RTT and zero loss: the Mathis ceiling is +inf and the factor
  // stays 1, so the policy's min() must be a no-op against the fair offer.
  FederatedTopo split(t, WanLinkConfig{});
  EXPECT_GT(split.net.boundary_flow_count(), 0u) << "seed=" << seed;
  check_rates(merged, split, t, seed, /*step=*/-1);

  std::uniform_real_distribution<double> cap_dist(0.5, 200.0);
  std::uniform_real_distribution<double> flow_cap_dist(0.1, 100.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t regular = t.capacity.size() - 2;
  const int steps = static_cast<int>(rng() % 6);
  for (int step = 0; step < steps; ++step) {
    const std::size_t f = rng() % t.flows.size();
    switch (rng() % 5) {
      case 0: {
        const Duration window = Duration::millis(1 + rng() % 100);
        merged.sim.run_for(window);
        split.sim.run_for(window);
        break;
      }
      case 1: {
        const double cap = unit(rng) < 0.3 ? kUncappedRate : flow_cap_dist(rng);
        merged.flows[f]->set_max_rate(cap);
        split.flows[f]->set_max_rate(cap);
        break;
      }
      case 2:
        merged.flows[f]->suspend();
        split.flows[f]->suspend();
        break;
      case 3:
        merged.flows[f]->resume();
        split.flows[f]->resume();
        break;
      case 4: {
        // Mutate regular resources only; the endpoints belong to the link
        // (its schedule is the one allowed to move them).
        const std::size_t r = rng() % regular;
        const double cap = cap_dist(rng);
        merged.res[r]->set_capacity(cap);
        split.res[r]->set_capacity(cap);
        break;
      }
    }
    check_rates(merged, split, t, seed, step);
  }
  EXPECT_EQ(split.net.unconverged_exchange_count(), 0u) << "seed=" << seed;
}

TEST(WanGolden, ZeroImpairmentLinkMatchesMergedAndReference) {
  for (std::uint32_t seed = 1; seed <= 200; ++seed) {
    run_golden_equivalence(seed);
    if (::testing::Test::HasFailure()) {
      break;  // first failing seed is enough to debug
    }
  }
}

// --- N-site golden equivalence ----------------------------------------------
// Full-mesh N-site split: regular resource r lives at site r % N, and a
// cross-site flow rides the direct WanLink between its two sites (a full
// mesh keeps every cross flow single-hop, i.e. inside the 4-share
// exchange envelope the boundary exchange provably solves). Zero
// impairments, so the merged topology — endpoints as plain resources on
// one scheduler — and the brute-force reference must agree within 1e-9.

struct NSiteTopo {
  std::size_t n_sites = 3;
  std::vector<double> capacity;  // regular resources only
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // (i, j), i < j
  std::vector<double> line;                                // per pair
  std::vector<FlowDesc> flows;  // res = regular indices; endpoint shares appended
  // Reference-solver view: regular capacities, then endpoint pair p at
  // indices regular + 2p (a side) and regular + 2p + 1 (b side).
  [[nodiscard]] std::size_t endpoint_a(std::size_t p) const { return capacity.size() + 2 * p; }
  [[nodiscard]] std::size_t endpoint_b(std::size_t p) const {
    return capacity.size() + 2 * p + 1;
  }
};

NSiteTopo random_nsite_topo(std::mt19937& rng, std::size_t n_sites) {
  std::uniform_real_distribution<double> cap_dist(0.5, 200.0);
  std::uniform_real_distribution<double> line_dist(5.0, 150.0);
  std::uniform_real_distribution<double> weight_dist(0.01, 2.0);
  std::uniform_real_distribution<double> wan_weight_dist(0.25, 1.5);
  std::uniform_real_distribution<double> flow_cap_dist(0.1, 100.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  NSiteTopo t;
  t.n_sites = n_sites;
  for (std::size_t i = 0; i < n_sites; ++i) {
    for (std::size_t j = i + 1; j < n_sites; ++j) {
      t.pairs.emplace_back(i, j);
      t.line.push_back(line_dist(rng));
    }
  }
  const std::size_t r_count = n_sites + rng() % 7;  // >= 1 per site
  for (std::size_t r = 0; r < r_count; ++r) {
    t.capacity.push_back(cap_dist(rng));
  }
  const std::size_t f_count = 1 + rng() % 24;
  for (std::size_t f = 0; f < f_count; ++f) {
    const std::size_t span = 1 + rng() % 2;
    FlowDesc fd;
    while (fd.res.size() < span) {
      const std::size_t r = rng() % r_count;
      if (std::find(fd.res.begin(), fd.res.end(), r) == fd.res.end()) {
        fd.res.push_back(r);
        fd.weight.push_back(weight_dist(rng));
      }
    }
    fd.cap = unit(rng) < 0.4 ? flow_cap_dist(rng) : kUncappedRate;
    t.flows.push_back(std::move(fd));
  }
  // Force flow 0 cross-site so every seed crosses at least one link.
  t.flows[0].res = {0, 1};
  t.flows[0].weight = {1.0, 1.0};
  for (auto& fd : t.flows) {
    if (fd.res.size() < 2) {
      continue;
    }
    const std::size_t sa = fd.res[0] % n_sites;
    const std::size_t sb = fd.res[1] % n_sites;
    if (sa == sb) {
      continue;
    }
    const auto pair = std::make_pair(std::min(sa, sb), std::max(sa, sb));
    const std::size_t p = static_cast<std::size_t>(
        std::find(t.pairs.begin(), t.pairs.end(), pair) - t.pairs.begin());
    const double w = wan_weight_dist(rng);
    fd.res.push_back(t.endpoint_a(p));
    fd.weight.push_back(w);
    fd.res.push_back(t.endpoint_b(p));
    fd.weight.push_back(w);
  }
  return t;
}

struct MergedTopoN {
  Simulation sim;
  FluidScheduler sched{sim};
  std::vector<std::unique_ptr<FluidResource>> res;  // regular + 2 per pair
  std::vector<FlowPtr> flows;

  explicit MergedTopoN(const NSiteTopo& t) {
    for (std::size_t r = 0; r < t.capacity.size(); ++r) {
      res.push_back(
          std::make_unique<FluidResource>(sched, "r" + std::to_string(r), t.capacity[r]));
    }
    for (std::size_t p = 0; p < t.pairs.size(); ++p) {
      res.push_back(
          std::make_unique<FluidResource>(sched, "wa" + std::to_string(p), t.line[p]));
      res.push_back(
          std::make_unique<FluidResource>(sched, "wb" + std::to_string(p), t.line[p]));
    }
    for (const auto& fd : t.flows) {
      FlowSpec spec{fd.work, {}, fd.cap, {}};
      for (std::size_t s = 0; s < fd.res.size(); ++s) {
        spec.over(*res[fd.res[s]], fd.weight[s]);
      }
      flows.push_back(sched.start(std::move(spec)));
    }
  }
};

struct FederatedTopoN {
  Simulation sim;
  FluidNet net;
  std::vector<std::unique_ptr<WanLink>> wans;       // one per pair
  std::vector<std::unique_ptr<FluidResource>> res;  // regular only
  std::vector<FlowPtr> flows;

  explicit FederatedTopoN(const NSiteTopo& t) : net(sim) {
    for (std::size_t s = 0; s < t.n_sites; ++s) {
      net.add_domain("site-" + std::to_string(s));
    }
    for (std::size_t p = 0; p < t.pairs.size(); ++p) {
      WanLinkConfig cfg;  // zero impairments: plain boundary pair
      cfg.line_rate = Bandwidth::bytes_per_sec(t.line[p]);
      wans.push_back(std::make_unique<WanLink>(
          sim, net.domain(t.pairs[p].first).scheduler(),
          net.domain(t.pairs[p].second).scheduler(), "w" + std::to_string(p), cfg));
    }
    for (std::size_t r = 0; r < t.capacity.size(); ++r) {
      res.push_back(std::make_unique<FluidResource>(net.domain(r % t.n_sites).scheduler(),
                                                    "r" + std::to_string(r), t.capacity[r]));
    }
    for (const auto& fd : t.flows) {
      FlowSpec spec{fd.work, {}, fd.cap, {}};
      for (std::size_t s = 0; s < fd.res.size(); ++s) {
        const std::size_t r = fd.res[s];
        if (r >= t.capacity.size()) {
          const std::size_t p = (r - t.capacity.size()) / 2;
          spec.over((r - t.capacity.size()) % 2 == 0 ? wans[p]->a() : wans[p]->b(),
                    fd.weight[s]);
        } else {
          spec.over(*res[r], fd.weight[s]);
        }
      }
      flows.push_back(net.start(std::move(spec)));
    }
  }
};

void check_nsite_rates(MergedTopoN& merged, FederatedTopoN& split, const NSiteTopo& t,
                       std::uint32_t seed, int step) {
  std::vector<double> capacity;
  capacity.reserve(merged.res.size());
  for (const auto& r : merged.res) {
    capacity.push_back(r->capacity());
  }
  std::vector<RefFlow> ref;
  ref.reserve(t.flows.size());
  for (std::size_t f = 0; f < t.flows.size(); ++f) {
    ref.push_back(RefFlow{t.flows[f].res, t.flows[f].weight, merged.flows[f]->max_rate()});
  }
  const auto want = reference_rates(capacity, ref);
  for (std::size_t f = 0; f < t.flows.size(); ++f) {
    const double m = merged.flows[f]->current_rate();
    const double s = split.flows[f]->current_rate();
    const double tol = 1e-9 * std::max({1.0, std::abs(m), std::abs(s), std::abs(want[f])});
    EXPECT_NEAR(m, want[f], tol) << "merged vs reference: sites=" << t.n_sites
                                 << " seed=" << seed << " step=" << step << " flow=" << f;
    EXPECT_NEAR(s, want[f], tol) << "federated vs reference: sites=" << t.n_sites
                                 << " seed=" << seed << " step=" << step << " flow=" << f;
  }
}

void run_nsite_golden(std::uint32_t seed, std::size_t n_sites) {
  std::mt19937 rng(seed * 977 + static_cast<std::uint32_t>(n_sites));
  const NSiteTopo t = random_nsite_topo(rng, n_sites);
  MergedTopoN merged(t);
  FederatedTopoN split(t);
  EXPECT_GT(split.net.boundary_flow_count(), 0u) << "sites=" << n_sites << " seed=" << seed;
  check_nsite_rates(merged, split, t, seed, /*step=*/-1);

  std::uniform_real_distribution<double> cap_dist(0.5, 200.0);
  std::uniform_real_distribution<double> flow_cap_dist(0.1, 100.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const int steps = static_cast<int>(rng() % 6);
  for (int step = 0; step < steps; ++step) {
    const std::size_t f = rng() % t.flows.size();
    switch (rng() % 5) {
      case 0: {
        const Duration window = Duration::millis(1 + rng() % 100);
        merged.sim.run_for(window);
        split.sim.run_for(window);
        break;
      }
      case 1: {
        const double cap = unit(rng) < 0.3 ? kUncappedRate : flow_cap_dist(rng);
        merged.flows[f]->set_max_rate(cap);
        split.flows[f]->set_max_rate(cap);
        break;
      }
      case 2:
        merged.flows[f]->suspend();
        split.flows[f]->suspend();
        break;
      case 3:
        merged.flows[f]->resume();
        split.flows[f]->resume();
        break;
      case 4: {
        const std::size_t r = rng() % t.capacity.size();
        const double cap = cap_dist(rng);
        merged.res[r]->set_capacity(cap);
        split.res[r]->set_capacity(cap);
        break;
      }
    }
    check_nsite_rates(merged, split, t, seed, step);
  }
  EXPECT_EQ(split.net.unconverged_exchange_count(), 0u)
      << "sites=" << n_sites << " seed=" << seed;
}

TEST(WanGolden, NSiteFullMeshMatchesMergedAndReference) {
  for (const std::size_t n_sites : {3u, 4u, 5u}) {
    for (std::uint32_t seed = 1; seed <= 40; ++seed) {
      run_nsite_golden(seed, n_sites);
      if (::testing::Test::HasFailure()) {
        return;  // first failing (sites, seed) is enough to debug
      }
    }
  }
}

// --- Model semantics, hand-checkable ----------------------------------------

// rtt 1 s, loss 0.375, mss 10 B => mathis = 10 * sqrt(1.5/0.375) / 1 = 20.
WanLinkConfig tiny_mathis_link() {
  WanLinkConfig cfg;
  cfg.line_rate = Bandwidth::bytes_per_sec(1000.0);
  cfg.rtt = Duration::seconds(1.0);
  cfg.loss = 0.375;
  cfg.mss_bytes = 10.0;
  return cfg;
}

TEST(WanModel, MathisCeilingBindsPerConnection) {
  Simulation sim;
  FluidNet net(sim);
  auto& a = net.add_domain("a");
  auto& b = net.add_domain("b");
  WanLink wan(sim, a.scheduler(), b.scheduler(), "w", tiny_mathis_link());
  EXPECT_NEAR(wan.mathis_rate(), 20.0, 1e-9);
  EXPECT_NEAR(wan.effective_rate(), 20.0, 1e-9);

  auto one = net.start(FlowSpec{.work = 1e15}.over(wan.a()).over(wan.b()));
  // Mathis models a single TCP connection: the fair share of the 1000 B/s
  // line would be the whole line, but the published cap folds to 20.
  EXPECT_NEAR(one->current_rate(), 20.0, 1e-9);

  // A second connection gets its own Mathis ceiling — the line rate, not
  // the ceiling, is the shared-medium sum constraint (2 * 20 << 1000).
  auto two = net.start(FlowSpec{.work = 1e15}.over(wan.a()).over(wan.b()));
  EXPECT_NEAR(one->current_rate(), 20.0, 1e-9);
  EXPECT_NEAR(two->current_rate(), 20.0, 1e-9);
  EXPECT_EQ(net.unconverged_exchange_count(), 0u);
}

TEST(WanModel, WeightedFlowConvertsWireRateToFlowRate) {
  Simulation sim;
  FluidNet net(sim);
  auto& a = net.add_domain("a");
  auto& b = net.add_domain("b");
  WanLink wan(sim, a.scheduler(), b.scheduler(), "w", tiny_mathis_link());
  // Weight 2 on the wire: each flow unit costs 2 wire bytes, so the flow
  // rate ceiling is mathis / 2 = 10.
  auto flow = net.start(FlowSpec{.work = 1e15}.over(wan.a(), 2.0).over(wan.b(), 2.0));
  EXPECT_NEAR(flow->current_rate(), 10.0, 1e-9);
}

Task watch(FlowPtr flow, Simulation& sim, std::int64_t& out) {
  co_await flow->completion().wait();
  out = sim.now().count_nanos();
}

TEST(WanModel, PartitionFreezesCrossingFlowsUntilHeal) {
  Simulation sim;
  FluidNet net(sim);
  auto& a = net.add_domain("a");
  auto& b = net.add_domain("b");
  WanLinkConfig cfg;
  cfg.line_rate = Bandwidth::bytes_per_sec(10.0);
  std::vector<WanLinkPhase> schedule;
  schedule.push_back({.at = Duration::seconds(2.0), .capacity_factor = 0.0});
  schedule.push_back({.at = Duration::seconds(5.0), .capacity_factor = 1.0});
  cfg.schedule = std::move(schedule);
  WanLink wan(sim, a.scheduler(), b.scheduler(), "w", cfg);

  // 30 units at 10/s: 20 delivered by the cut at t=2, frozen for 3 s,
  // the last 10 delivered over t=5..6 — done at exactly t=6.
  auto flow = net.start(FlowSpec{.work = 30.0}.over(wan.a()).over(wan.b()));
  std::int64_t done = -1;
  sim.spawn(watch(flow, sim, done));
  sim.run_for(Duration::seconds(3.0));
  EXPECT_NEAR(flow->current_rate(), 0.0, 1e-12);  // mid-partition
  EXPECT_NEAR(wan.current_factor(), 0.0, 1e-12);
  sim.run();
  EXPECT_TRUE(flow->finished());
  EXPECT_EQ(done, 6'000'000'000);
  EXPECT_EQ(net.unconverged_exchange_count(), 0u);
}

TEST(WanModel, RttOnlyPhaseRefoldsPublishedCaps) {
  Simulation sim;
  FluidNet net(sim);
  auto& a = net.add_domain("a");
  auto& b = net.add_domain("b");
  WanLinkConfig cfg = tiny_mathis_link();
  // Same capacity factor, doubled RTT: the numeric endpoint capacity does
  // not change, but the Mathis ceiling halves — the phase must still mark
  // the crossing components dirty and re-fold.
  cfg.schedule.push_back({.at = Duration::seconds(2.0), .capacity_factor = 1.0,
                          .rtt = Duration::seconds(2.0)});
  WanLink wan(sim, a.scheduler(), b.scheduler(), "w", cfg);
  auto flow = net.start(FlowSpec{.work = 1e15}.over(wan.a()).over(wan.b()));
  EXPECT_NEAR(flow->current_rate(), 20.0, 1e-9);
  sim.run_for(Duration::seconds(3.0));
  EXPECT_NEAR(wan.current_rtt().to_seconds(), 2.0, 1e-12);
  EXPECT_NEAR(flow->current_rate(), 10.0, 1e-9);
}

// --- Timeline pinned by value, with a lossy, time-varying link --------------

struct Timeline {
  std::int64_t final_ns = 0;
  std::vector<std::int64_t> done_ns;
};

// Byte-scale calibration: capacities ~5e5..2e8 B/s so a 20 ms / 0.2 % link
// (Mathis ceiling ~9e7 B/s) genuinely binds some flows, with congestion
// phases that drop, heal and re-impair the link mid-run.
WanLinkConfig lossy_schedule_link() {
  WanLinkConfig cfg;
  cfg.rtt = Duration::millis(20);
  cfg.loss = 0.002;
  std::vector<WanLinkPhase> schedule;
  schedule.push_back({.at = Duration::millis(100), .capacity_factor = 0.3});
  schedule.push_back({.at = Duration::millis(400), .capacity_factor = 1.0,
                      .rtt = Duration::millis(100)});
  schedule.push_back({.at = Duration::millis(900), .capacity_factor = 0.7,
                      .rtt = Duration::millis(10)});
  cfg.schedule = std::move(schedule);
  return cfg;
}

Timeline run_wan_timeline(const WanTopo& t) {
  FederatedTopo split(t, lossy_schedule_link());
  Timeline tl;
  tl.done_ns.assign(t.flows.size(), -1);
  for (std::size_t f = 0; f < split.flows.size(); ++f) {
    split.sim.spawn(watch(split.flows[f], split.sim, tl.done_ns[f]));
  }
  tl.final_ns = split.sim.run().count_nanos();
  EXPECT_EQ(split.net.boundary_flow_count(), 0u);
  EXPECT_EQ(split.net.unconverged_exchange_count(), 0u);
  EXPECT_LT(split.net.max_exchange_rounds_per_settle(), 256u);
  return tl;
}

// The name predates the removal of the solve worker threads.
TEST(WanTimeline, BitIdenticalAcrossWorkerCountsWithLossyTimeVaryingLink) {
  // Every seed's drain instant and per-flow completion stamps, as text; one
  // FNV-1a digest pins all 20 timelines to the nanosecond.
  std::string trace;
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    const WanTopo t =
        random_wan_topo(rng, /*finite_work=*/true, /*cap_scale=*/1e6, /*work_scale=*/2e5);
    const Timeline tl = run_wan_timeline(t);
    trace += std::to_string(tl.final_ns);
    for (const std::int64_t ns : tl.done_ns) {
      trace += ' ' + std::to_string(ns);
    }
    trace += '\n';
  }
  EXPECT_EQ(fnv1a(trace), 15125839730417327425ull) << trace;
}

}  // namespace
}  // namespace nm::sim

// --- Full-stack Federation coupling -----------------------------------------

namespace nm::core {
namespace {

sim::Task migrate_and_stamp(sim::Simulation& sim, vmm::Host& src, vmm::Vm& vm, vmm::Host& dst,
                            vmm::MigrationStats& stats, std::int64_t& done_ns) {
  co_await src.migrate(vm, dst, &stats);
  done_ns = sim.now().count_nanos();
}

FederationConfig small_federation() {
  FederationConfig cfg;
  cfg.site_a.ib_nodes = 0;
  cfg.site_a.eth_nodes = 2;
  cfg.site_b.ib_nodes = 0;
  cfg.site_b.eth_nodes = 2;
  return cfg;
}

struct FederatedRun {
  std::int64_t done_ns = -1;
  std::int64_t final_ns = -1;
  Duration downtime = Duration::zero();
};

FederatedRun run_cross_site_migration() {
  Federation fed(small_federation());
  auto& src = fed.site_a().eth_host(0);
  vmm::Host* dst = fed.find_host("b:eth0");
  EXPECT_NE(dst, nullptr);
  vmm::VmSpec spec;
  spec.name = "vm0";
  spec.memory = Bytes::gib(2);
  spec.base_os_footprint = Bytes::mib(256);
  auto vm = fed.site_a().boot_vm(src, spec, /*with_hca=*/false);
  fed.settle();

  FederatedRun out;
  vmm::MigrationStats stats;
  fed.sim().spawn(migrate_and_stamp(fed.sim(), src, *vm, *dst, stats, out.done_ns));
  out.final_ns = fed.sim().run().count_nanos();
  out.downtime = stats.downtime;

  EXPECT_TRUE(dst->resident(*vm));
  EXPECT_FALSE(src.resident(*vm));
  EXPECT_EQ(&vm->host(), dst);
  EXPECT_GT(out.done_ns, 0);
  EXPECT_EQ(fed.unconverged_exchange_count(), 0u);
  EXPECT_GT(fed.net().exchange_round_count(), 0u);
  EXPECT_LT(fed.net().max_exchange_rounds_per_settle(), 256u);
  return out;
}

TEST(WanFederation, HostsResolveAcrossSitesAndDomainsAreDistinct) {
  Federation fed(small_federation());
  EXPECT_EQ(fed.find_host("a:eth0"), &fed.site_a().eth_host(0));
  EXPECT_EQ(fed.find_host("b:eth1"), &fed.site_b().eth_host(1));
  EXPECT_EQ(fed.find_host("c:eth0"), nullptr);
  // The WAN endpoints live one per site zone, in different domains.
  sim::FluidDomain* da = fed.domain_of(fed.wan().a());
  sim::FluidDomain* db = fed.domain_of(fed.wan().b());
  ASSERT_NE(da, nullptr);
  ASSERT_NE(db, nullptr);
  EXPECT_NE(da, db);
  // Both sites' resolvers reach both sites through the federation.
  EXPECT_EQ(fed.resolver()("a:eth1"), &fed.site_a().eth_host(1));
  EXPECT_EQ(fed.resolver()("b:eth0"), &fed.site_b().eth_host(0));
}

// The name predates the removal of the solve worker threads.
TEST(WanFederation, CrossSiteMigrationLandsAtSameInstantForEveryWorkerCount) {
  const FederatedRun run = run_cross_site_migration();
  EXPECT_EQ(run.done_ns, 37'230'902'384);
  EXPECT_EQ(run.final_ns, 37'230'902'384);
  EXPECT_EQ(run.downtime.count_nanos(), 0);
}

// Regression: the eth address-base dedup and per-edge uplink peering used
// to assume exactly two testbeds. With three sites on default configs
// (every address_base = 0), every site must land on its own 2^16 block and
// every host address must stay globally unique — otherwise a routed
// destination could shadow a local one and traffic lands on the wrong
// site.
TEST(WanFederation, ThreeSiteFederationDoesNotAliasEthAddresses) {
  FederationConfig cfg;
  FederationSiteConfig site;
  site.testbed.ib_nodes = 0;
  site.testbed.eth_nodes = 2;
  site.name = "a";
  cfg.sites.push_back(site);
  site.name = "b";
  cfg.sites.push_back(site);
  site.name = "c";
  cfg.sites.push_back(site);
  cfg.edges = {{0, 1, {}}, {0, 2, {}}, {1, 2, {}}};
  Federation fed(cfg);

  // Dedup re-based the colliding defaults onto distinct 2^16 blocks.
  std::set<net::FabricAddress> bases;
  for (const FederationSiteConfig& s : fed.config().sites) {
    EXPECT_TRUE(bases.insert(s.testbed.eth.address_base).second)
        << "site " << s.name << " shares an address base";
    EXPECT_EQ(s.testbed.eth.address_base % (1u << 16), 0u) << "site " << s.name;
  }
  // Every host attachment address is globally unique across the mesh.
  std::set<net::FabricAddress> addresses;
  for (std::size_t s = 0; s < fed.site_count(); ++s) {
    for (vmm::Host* host : fed.site(s).all_hosts()) {
      EXPECT_TRUE(addresses.insert(host->eth_attachment()->address()).second)
          << host->name() << " aliases another host's address";
    }
  }
  // And cross-site resolution reaches the intended host on every pair.
  EXPECT_EQ(fed.find_host("c:eth1"), &fed.site(2).eth_host(1));
  EXPECT_EQ(fed.route(0, 2).size(), 1u);
  EXPECT_EQ(fed.route(1, 2).size(), 1u);
}

// --- N-site evacuation timelines, pinned by value ---------------------------

FederationConfig evac_mesh() {
  FederationConfig cfg;
  TestbedConfig source;
  source.ib_nodes = 0;
  source.eth_nodes = 2;
  TestbedConfig refuge;
  refuge.ib_nodes = 0;
  refuge.eth_nodes = 1;
  cfg.sites = {{"a", source}, {"b", refuge}, {"c", refuge}};
  // Lossy, time-varying links: the congestion phases land mid-evacuation,
  // so wave grants read different live rates than the nominal plan.
  sim::WanLinkConfig wan;
  wan.line_rate = Bandwidth::gbps(1);
  wan.rtt = Duration::millis(20);
  wan.loss = 0.002;
  wan.schedule.push_back({.at = Duration::seconds(2.0), .capacity_factor = 0.4});
  wan.schedule.push_back({.at = Duration::seconds(10.0), .capacity_factor = 1.0,
                          .rtt = Duration::millis(60)});
  sim::WanLinkConfig calm;
  calm.line_rate = Bandwidth::gbps(1);
  calm.rtt = Duration::millis(20);
  calm.loss = 0.002;
  cfg.edges = {{0, 1, wan}, {0, 2, calm}, {1, 2, calm}};
  return cfg;
}

struct EvacTimeline {
  std::int64_t final_ns = -1;
  std::int64_t makespan_ns = -1;
  int waves = -1;
  std::size_t evacuated = 0;
  std::vector<std::int64_t> stamps;  // per VM: start, done, downtime
  std::vector<std::string> hosts;
};

EvacTimeline run_mesh_evacuation(bool sequential) {
  Federation fed(evac_mesh());
  EvacuationConfig ecfg;
  ecfg.sequential = sequential;
  scenarios::Drain drain(
      fed, {.vms_per_host = 3, .memory = Bytes::gib(1), .data = Bytes::mib(96)}, std::move(ecfg));
  EvacTimeline tl;
  tl.final_ns = fed.sim().run().count_nanos();
  const EvacuationReport& report = drain.report();
  tl.makespan_ns = report.makespan().count_nanos();
  tl.waves = report.waves;
  tl.evacuated = report.evacuated;
  for (const VmOutcome& vm : report.vms) {
    tl.stamps.push_back(vm.start_ns);
    tl.stamps.push_back(vm.done_ns);
    tl.stamps.push_back(vm.downtime.count_nanos());
    tl.hosts.push_back(vm.dst_host);
  }
  EXPECT_EQ(report.evacuated, report.vms.size()) << "sequential=" << sequential;
  EXPECT_EQ(drain.counters().at("net.unconverged"), 0u) << "sequential=" << sequential;
  return tl;
}

// The name predates the removal of the solve worker threads.
TEST(WanFederation, MeshEvacuationTimelineBitIdenticalAcrossWorkerCounts) {
  const EvacTimeline base = run_mesh_evacuation(/*sequential=*/false);
  EXPECT_EQ(base.evacuated, 6u);
  EXPECT_EQ(base.final_ns, 48'621'370'300);
  EXPECT_EQ(base.makespan_ns, 16'701'370'300);
  EXPECT_EQ(base.waves, 2);
  // Every VM's (start, done, downtime) stamps and destination host, as
  // text; one FNV-1a digest pins them.
  std::string trace;
  for (std::size_t v = 0; v < base.hosts.size(); ++v) {
    trace += base.hosts[v];
    for (std::size_t i = 3 * v; i < 3 * v + 3; ++i) {
      trace += ' ' + std::to_string(base.stamps[i]);
    }
    trace += '\n';
  }
  EXPECT_EQ(fnv1a(trace), 17006206085128159725ull) << trace;
  // The planner's concurrent waves beat the one-at-a-time baseline on the
  // same mesh (the full-size gate lives in examples/mass_evacuation and
  // bench_gate's sweep9 row; this pins the miniature version).
  const EvacTimeline naive = run_mesh_evacuation(/*sequential=*/true);
  EXPECT_EQ(naive.evacuated, 6u);
  EXPECT_LT(base.makespan_ns, naive.makespan_ns);
}

}  // namespace
}  // namespace nm::core
