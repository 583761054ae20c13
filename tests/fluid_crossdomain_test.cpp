// Cross-domain property test: a FluidNet partitioned into several domains,
// with flows whose resources span domains admitted as boundary flows, must
// produce the same max-min fair rates as (a) the identical topology merged
// onto one FluidScheduler and (b) a brute-force global reference solver —
// within 1e-9 — across random topologies and cap/suspend/capacity
// mutations. Separately, the event timeline of a finite-work cross-domain
// program is pinned by value: the ghost-capacity exchange iterates to a
// deterministic fixed point and commits in canonical (domain, component)
// order, so the timeline must reproduce to the nanosecond.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "max_min_oracle.h"
#include "sim/fluid.h"
#include "sim/fluid_net.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/wan_link.h"
#include "util/rng.h"

namespace nm::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using oracle::reference_rates;
using oracle::RefFlow;

// --- Topology description shared by the merged and split builds -------------

struct FlowDesc {
  std::vector<std::size_t> res;
  std::vector<double> weight;
  double cap = kInf;
  double work = 1e15;
};

struct TopoDesc {
  std::vector<double> capacity;
  std::vector<FlowDesc> flows;
};

TopoDesc random_topo(std::mt19937& rng, bool finite_work) {
  std::uniform_real_distribution<double> cap_dist(0.5, 200.0);
  std::uniform_real_distribution<double> weight_dist(0.01, 2.0);
  std::uniform_real_distribution<double> flow_cap_dist(0.1, 100.0);
  std::uniform_real_distribution<double> work_dist(0.1, 50.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  TopoDesc t;
  const std::size_t r_count = 2 + rng() % 7;
  for (std::size_t r = 0; r < r_count; ++r) {
    t.capacity.push_back(cap_dist(rng));
  }
  const std::size_t f_count = 1 + rng() % 24;
  for (std::size_t f = 0; f < f_count; ++f) {
    const std::size_t cross = 1 + rng() % std::min<std::size_t>(4, r_count);
    FlowDesc fd;
    while (fd.res.size() < cross) {
      const std::size_t r = rng() % r_count;
      if (std::find(fd.res.begin(), fd.res.end(), r) == fd.res.end()) {
        fd.res.push_back(r);
        fd.weight.push_back(weight_dist(rng));
      }
    }
    fd.cap = unit(rng) < 0.4 ? flow_cap_dist(rng) : kUncappedRate;
    // Finite work completes within seconds at these capacities, so the
    // timeline runs never hit the completion-timer clamp; 1e15 never
    // completes inside the mutation window.
    fd.work = finite_work ? work_dist(rng) : 1e15;
    t.flows.push_back(std::move(fd));
  }
  // Resources are partitioned round-robin (resource r -> domain r % D), so
  // a flow over resources 0 and 1 is a boundary flow for every D >= 2.
  // Force one so each seed genuinely exercises the exchange.
  t.flows[0].res = {0, 1};
  t.flows[0].weight = {1.0, 1.0};
  return t;
}

struct MergedTopo {
  Simulation sim;
  FluidScheduler sched{sim};
  std::vector<std::unique_ptr<FluidResource>> res;
  std::vector<FlowPtr> flows;

  explicit MergedTopo(const TopoDesc& t) {
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

struct SplitTopo {
  Simulation sim;
  FluidNet net;
  std::vector<std::unique_ptr<FluidResource>> res;
  std::vector<FlowPtr> flows;

  SplitTopo(const TopoDesc& t, int domains) : net(sim) {
    for (int d = 0; d < domains; ++d) {
      std::string name = "d";
      name += std::to_string(d);
      net.add_domain(std::move(name));
    }
    for (std::size_t r = 0; r < t.capacity.size(); ++r) {
      auto& dom = net.domain(r % static_cast<std::size_t>(domains));
      std::string name = "r";
      name += std::to_string(r);
      res.push_back(
          std::make_unique<FluidResource>(dom.scheduler(), std::move(name), t.capacity[r]));
    }
    for (const auto& fd : t.flows) {
      FlowSpec spec{fd.work, {}, fd.cap, {}};
      for (std::size_t s = 0; s < fd.res.size(); ++s) {
        spec.over(*res[fd.res[s]], fd.weight[s]);
      }
      flows.push_back(net.start(std::move(spec)));
    }
  }
};

// The reference solver's inputs, read back from the live merged topology so
// mutations (caps, suspensions, capacities) are reflected.
std::vector<double> expected_rates(const MergedTopo& m, const TopoDesc& t) {
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

void check_rates(MergedTopo& merged, SplitTopo& split, const TopoDesc& t,
                 std::uint32_t seed, int domains, int step) {
  const auto want = expected_rates(merged, t);
  for (std::size_t f = 0; f < t.flows.size(); ++f) {
    const double m = merged.flows[f]->current_rate();
    const double s = split.flows[f]->current_rate();
    const double tol = 1e-9 * std::max({1.0, std::abs(m), std::abs(s), std::abs(want[f])});
    EXPECT_NEAR(m, want[f], tol) << "merged vs reference: seed=" << seed
                                 << " domains=" << domains << " step=" << step
                                 << " flow=" << f;
    EXPECT_NEAR(s, want[f], tol) << "split vs reference: seed=" << seed
                                 << " domains=" << domains << " step=" << step
                                 << " flow=" << f;
  }
}

void run_rate_equivalence(std::uint32_t seed, int domains) {
  std::mt19937 rng(seed);
  const TopoDesc t = random_topo(rng, /*finite_work=*/false);
  MergedTopo merged(t);
  SplitTopo split(t, domains);
  EXPECT_GT(split.net.boundary_flow_count(), 0u) << "seed=" << seed;
  check_rates(merged, split, t, seed, domains, /*step=*/-1);

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
    check_rates(merged, split, t, seed, domains, step);
  }
  EXPECT_EQ(split.net.unconverged_exchange_count(), 0u) << "seed=" << seed;
}

// --- Hand-checkable fixtures -------------------------------------------------

Task watch(FlowPtr flow, Simulation& sim, std::int64_t& out) {
  co_await flow->completion().wait();
  out = sim.now().count_nanos();
}

TEST(CrossDomain, TwoDomainBottleneckSharedFairly) {
  Simulation sim;
  FluidNet net(sim);
  auto& a = net.add_domain("a");
  auto& b = net.add_domain("b");
  FluidResource ra(a.scheduler(), "ra", 10.0);
  FluidResource rb(b.scheduler(), "rb", 1.0);
  auto cross = net.start(FlowSpec{.work = 1e15}.over(ra).over(rb));
  auto local = net.start(FlowSpec{.work = 1e15}.over(rb));
  EXPECT_EQ(net.boundary_flow_count(), 1u);
  // rb is the bottleneck: the boundary flow's ghost competes there with the
  // local flow, so both settle at the fair half.
  EXPECT_NEAR(cross->current_rate(), 0.5, 1e-9);
  EXPECT_NEAR(local->current_rate(), 0.5, 1e-9);
  EXPECT_EQ(net.unconverged_exchange_count(), 0u);
}

TEST(CrossDomain, ThreeDomainChainTakesMinCapacity) {
  Simulation sim;
  FluidNet net(sim);
  auto& a = net.add_domain("a");
  auto& b = net.add_domain("b");
  auto& c = net.add_domain("c");
  FluidResource ra(a.scheduler(), "ra", 10.0);
  FluidResource rb(b.scheduler(), "rb", 1.0);
  FluidResource rc(c.scheduler(), "rc", 2.0);
  auto flow = net.start(FlowSpec{.work = 1e15}.over(ra).over(rb).over(rc));
  EXPECT_EQ(net.boundary_flow_count(), 1u);
  EXPECT_NEAR(flow->current_rate(), 1.0, 1e-9);
}

TEST(CrossDomain, BoundaryFlowCompletesOnTimeAndReleasesForeignCapacity) {
  Simulation sim;
  FluidNet net(sim);
  auto& a = net.add_domain("a");
  auto& b = net.add_domain("b");
  FluidResource ra(a.scheduler(), "ra", 10.0);
  FluidResource rb(b.scheduler(), "rb", 1.0);
  // Both at 0.5 until the cross flow drains 1.0 unit at t=2s; its ghost
  // must retire in that same settle so the local flow finishes its
  // remaining 2.0 units at the full 1.0 — done at t=4s exactly. (Completion
  // instants come from watchers: run() itself ends later, when the
  // superseded completion timer armed before the speed-up pops as a no-op.)
  auto cross = net.start(FlowSpec{.work = 1.0}.over(ra).over(rb));
  auto local = net.start(FlowSpec{.work = 3.0}.over(rb));
  std::int64_t cross_done = -1;
  std::int64_t local_done = -1;
  sim.spawn(watch(cross, sim, cross_done));
  sim.spawn(watch(local, sim, local_done));
  sim.run();
  EXPECT_TRUE(cross->finished());
  EXPECT_TRUE(local->finished());
  EXPECT_EQ(cross_done, 2'000'000'000);
  EXPECT_EQ(local_done, 4'000'000'000);
  EXPECT_EQ(net.boundary_flow_count(), 0u);
  EXPECT_EQ(net.unconverged_exchange_count(), 0u);
}

// --- Randomized equivalence --------------------------------------------------

TEST(CrossDomain, SplitMatchesMergedOn2WayPartitions) {
  for (std::uint32_t seed = 1; seed <= 150; ++seed) {
    run_rate_equivalence(seed, /*domains=*/2);
    if (::testing::Test::HasFailure()) {
      break;  // first failing seed is enough to debug
    }
  }
}

TEST(CrossDomain, SplitMatchesMergedOn4WayPartitions) {
  for (std::uint32_t seed = 1000; seed <= 1150; ++seed) {
    run_rate_equivalence(seed, /*domains=*/4);
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
}

// --- Exchange-round visibility with a WAN cap policy active ------------------

TEST(CrossDomain, WanPolicyScenariosConvergeWellUnderRoundCap) {
  // Paper-style disaster-recovery shape: two sites with local contention,
  // coupled by a lossy, congestion-scheduled WanLink whose CapPolicy folds
  // into every boundary offer. The per-settle exchange-round counters
  // (surfaced through FluidNet for Testbed/Federation stats) must show the
  // settles converging — never hitting the 256-round safety valve.
  Simulation sim;
  FluidNet net(sim);
  auto& a = net.add_domain("site-a");
  auto& b = net.add_domain("site-b");
  WanLinkConfig cfg;
  cfg.line_rate = Bandwidth::bytes_per_sec(100.0);
  cfg.rtt = Duration::millis(50);
  cfg.loss = 0.001;
  cfg.mss_bytes = 0.1;  // Mathis ceiling ~77.5: binds below the line rate
  cfg.schedule.push_back({.at = Duration::seconds(1.0), .capacity_factor = 0.4});
  cfg.schedule.push_back({.at = Duration::seconds(2.0), .capacity_factor = 1.0,
                          .rtt = Duration::millis(200)});
  WanLink wan(sim, a.scheduler(), b.scheduler(), "w", cfg);
  FluidResource tx(a.scheduler(), "tx", 120.0);
  FluidResource rx(b.scheduler(), "rx", 90.0);
  FluidResource disk(b.scheduler(), "disk", 60.0);
  std::vector<FlowPtr> flows;
  for (int i = 0; i < 4; ++i) {  // evacuation streams crossing the link
    flows.push_back(
        net.start(FlowSpec{.work = 150.0}.over(tx).over(wan.a()).over(wan.b()).over(rx)));
  }
  flows.push_back(net.start(FlowSpec{.work = 80.0}.over(rx).over(disk)));  // local load
  flows.push_back(net.start(FlowSpec{.work = 50.0}.over(tx)));
  sim.run();
  for (const auto& f : flows) {
    EXPECT_TRUE(f->finished());
  }
  EXPECT_GT(net.exchange_round_count(), 0u);
  EXPECT_EQ(net.unconverged_exchange_count(), 0u);
  EXPECT_LT(net.max_exchange_rounds_per_settle(), 256u);
  EXPECT_GE(net.max_exchange_rounds_per_settle(), net.last_settle_exchange_rounds());
}

// --- Exchange-aware batching on a deep domain chain --------------------------

TEST(CrossDomain, DeepChainExchangeSkipsSlackDomains) {
  // A 16-domain chain with one tight resource at the head and pure-slack
  // middle resources. Head-capacity perturbations move every middle
  // domain's capacity offer (their headroom shifts with the boundary
  // flow's rate), but those offers stay far above the achieved rate: the
  // exchange must store them and *skip* the home re-solve, so settles
  // converge in a couple of rounds instead of rippling across the chain.
  Simulation sim;
  FluidNet net(sim);
  constexpr int kDepth = 16;
  std::vector<std::unique_ptr<FluidResource>> res;
  for (int d = 0; d < kDepth; ++d) {
    std::string dom_name = "d";
    dom_name += std::to_string(d);
    auto& dom = net.add_domain(std::move(dom_name));
    std::string res_name = "r";
    res_name += std::to_string(d);
    res.push_back(std::make_unique<FluidResource>(dom.scheduler(), std::move(res_name),
                                                  d == 0 ? 1e9 : 1e12));
  }
  FlowSpec spec{.work = 1e15};
  for (auto& r : res) {
    spec.over(*r);
  }
  auto flow = net.start(std::move(spec));
  EXPECT_EQ(net.boundary_flow_count(), 1u);
  // Local competition soaks up each middle resource, so its offer tracks
  // the ghost's rate (capacity minus the local share) instead of sitting
  // at the constant full capacity — the offers genuinely move with every
  // head toggle, yet stay ~1000x above the achieved boundary rate.
  std::vector<FlowPtr> locals;
  for (int d = 1; d < kDepth; ++d) {
    locals.push_back(net.start(FlowSpec{.work = 1e15}.over(*res[d])));
  }
  EXPECT_NEAR(flow->current_rate(), 1e9, 1.0);

  const std::size_t skips_before = net.exchange_skip_count();
  std::size_t max_rounds = 0;
  for (int i = 0; i < 8; ++i) {
    res[0]->set_capacity(i % 2 == 0 ? 1.1e9 : 1e9);
    sim.run_for(Duration::millis(10));
    max_rounds = std::max(max_rounds, net.last_settle_exchange_rounds());
  }
  EXPECT_NEAR(flow->current_rate(), 1e9, 1.0);
  EXPECT_EQ(net.unconverged_exchange_count(), 0u);
  // Slack-offer moves became skips, not re-solve rounds: well below the
  // chain depth, independent of it in fact (publish + foreign re-solve).
  EXPECT_GT(net.exchange_skip_count(), skips_before);
  EXPECT_LE(max_rounds, 4u);
}

// --- Timeline pinned by value ----------------------------------------------------

struct Timeline {
  std::int64_t final_ns = 0;
  std::vector<std::int64_t> done_ns;
};

Timeline run_split_timeline(const TopoDesc& t, int domains) {
  SplitTopo split(t, domains);
  Timeline tl;
  tl.done_ns.assign(t.flows.size(), -1);
  for (std::size_t f = 0; f < split.flows.size(); ++f) {
    split.sim.spawn(watch(split.flows[f], split.sim, tl.done_ns[f]));
  }
  tl.final_ns = split.sim.run().count_nanos();
  EXPECT_EQ(split.net.boundary_flow_count(), 0u);
  EXPECT_EQ(split.net.unconverged_exchange_count(), 0u);
  return tl;
}

// The name predates the removal of the solve worker threads.
TEST(CrossDomain, TimelineBitIdenticalAcrossWorkerCounts) {
  // Every seed's drain instant and per-flow completion stamps, as text; one
  // FNV-1a digest pins all 30 timelines to the nanosecond.
  std::string trace;
  for (std::uint32_t seed = 1; seed <= 30; ++seed) {
    std::mt19937 rng(seed);
    const TopoDesc t = random_topo(rng, /*finite_work=*/true);
    const int domains = 2 + static_cast<int>(seed % 3);
    const Timeline tl = run_split_timeline(t, domains);
    trace += std::to_string(tl.final_ns);
    for (const std::int64_t ns : tl.done_ns) {
      trace += ' ' + std::to_string(ns);
    }
    trace += '\n';
  }
  EXPECT_EQ(fnv1a(trace), 15348456510316616853ull) << trace;
}

}  // namespace
}  // namespace nm::sim
