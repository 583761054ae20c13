// Randomized property tests for plan::EvacuationPlanner (the planner is
// pure arithmetic, so hundreds of random site graphs sweep in
// milliseconds). Pinned properties, per DESIGN.md §9:
//
//   1. Shape: every input VM appears exactly once in the plan,
//      index-aligned; `unscheduled` counts exactly the wave < 0 entries.
//   2. Feasibility: within every wave, the planned rates crossing any
//      edge sum to at most that edge's phase-scheduled capacity at the
//      wave's grant time; every route edge is alive at grant time and the
//      route actually connects source to destination; per-stream rates
//      respect stream_rate_cap; batched waves respect the per-edge and
//      per-source-host stream limits.
//   3. plan() is never worse than plan_sequential() — on scheduled-VM
//      count first, then makespan.
//   4. Completeness: on a static mesh with enough reachable slots, every
//      VM is scheduled.
//   5. Replanning after an edge partition schedules every VM that still
//      has a reachable destination, and never routes over the dead edge.
//   6. Leaf layer (Clos sites): per-wave rates crossing a leaf uplink or
//      downlink never exceed its capacity; destination leaves respect
//      their VM slots; leaf-aware admission (uplink stream slots, incast
//      limit) holds for plans produced by the leaf-aware batching (not
//      for re-costed blind shapes, which ignore it by construction);
//      plan() on a leafy graph is never worse than executing the
//      topology-blind plan (evaluate() of a without_leaves() plan).
//
// wave_rates() is additionally pinned max-min: feasible, capped, and
// maximal (no stream below its cap has headroom on every edge it uses).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "plan/evacuation_planner.h"

namespace nm::plan {
namespace {

constexpr double kRateEps = 1e-3;  // bytes/s; capacities are O(1e8)

struct Case {
  SiteGraph graph;
  std::vector<VmToMove> vms;
  std::size_t src = 0;
  PlannerConfig config;
};

Case random_case(std::mt19937& rng, bool with_schedules, bool with_leaves = false) {
  Case c;
  std::uniform_real_distribution<double> rate_dist(8e6, 4e8);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  const std::size_t n_sites = 2 + rng() % 6;
  for (std::size_t s = 0; s < n_sites; ++s) {
    SiteSpec site;
    site.name = std::to_string(s);  // plain index; GCC 12 -Wrestrict chokes on "s" +
    site.free_vm_slots = s == c.src ? 0 : static_cast<int>(rng() % 51);
    c.graph.sites.push_back(site);
  }
  // Connected at factor 1: spanning tree + a few extra edges.
  for (std::size_t s = 1; s < n_sites; ++s) {
    EdgeSpec e;
    e.a = rng() % s;
    e.b = s;
    e.rate = rate_dist(rng);
    c.graph.edges.push_back(e);
  }
  for (std::size_t k = rng() % n_sites; k > 0; --k) {
    EdgeSpec e;
    e.a = rng() % n_sites;
    e.b = rng() % n_sites;
    if (e.a == e.b) {
      continue;
    }
    e.rate = rate_dist(rng);
    c.graph.edges.push_back(e);
  }
  if (with_schedules) {
    const double factors[] = {0.0, 0.25, 0.5, 1.0};
    for (EdgeSpec& e : c.graph.edges) {
      if (unit(rng) < 0.5) {
        continue;
      }
      double at = 0.0;
      for (std::size_t p = 1 + rng() % 3; p > 0; --p) {
        at += unit(rng) * 120.0;
        e.schedule.push_back(EdgePhase{at, factors[rng() % 4]});
      }
    }
  }

  if (with_leaves) {
    // Give a random subset of sites a leaf layer (the source included so
    // src_leaf constraints are exercised). ~1 in 12 leaves is dead on one
    // side, covering the replan-around-dead-rack paths.
    for (std::size_t s = 0; s < n_sites; ++s) {
      if (unit(rng) < 0.35) {
        continue;
      }
      const std::size_t n_leaves = 1 + rng() % 4;
      for (std::size_t l = 0; l < n_leaves; ++l) {
        LeafSpec leaf;
        leaf.name = std::to_string(s) + "." + std::to_string(l);
        leaf.site = s;
        leaf.uplink_rate = unit(rng) < 0.08 ? 0.0 : rate_dist(rng);
        leaf.downlink_rate = unit(rng) < 0.08 ? 0.0 : rate_dist(rng);
        leaf.free_vm_slots = s == c.src ? 0 : static_cast<int>(rng() % 26);
        c.graph.leaves.push_back(leaf);
      }
    }
  }

  std::vector<std::size_t> src_leaves;
  for (std::size_t l = 0; l < c.graph.leaves.size(); ++l) {
    if (c.graph.leaves[l].site == c.src) {
      src_leaves.push_back(l);
    }
  }

  const std::size_t n_vms = 1 + rng() % 80;
  for (std::size_t i = 0; i < n_vms; ++i) {
    VmToMove vm;
    vm.name = std::to_string(i);
    vm.bytes = 64e6 + unit(rng) * 2e9;
    vm.scan_bytes = vm.bytes * 2.0;
    vm.src_host = rng() % 8;
    if (!src_leaves.empty()) {
      vm.src_leaf = src_leaves[rng() % src_leaves.size()];
    }
    c.vms.push_back(vm);
  }

  c.config.max_streams_per_edge = 1 + static_cast<int>(rng() % 8);
  c.config.max_streams_per_src_host = 1 + static_cast<int>(rng() % 4);
  c.config.swap_pass = rng() % 2 == 0;
  c.config.stream_rate_cap = rng() % 2 == 0 ? 162.5e6 : 40e6;
  return c;
}

// Slots summed over sites reachable from the source at time `t`. A site
// with leaves intakes only through leaves that are alive on both sides.
int reachable_slots(const SiteGraph& graph, std::size_t src, double t) {
  int slots = 0;
  for (std::size_t s = 0; s < graph.sites.size(); ++s) {
    if (s == src || graph.route(src, s, t).empty()) {
      continue;
    }
    bool leafy = false;
    int leaf_slots = 0;
    for (const LeafSpec& leaf : graph.leaves) {
      if (leaf.site != s) {
        continue;
      }
      leafy = true;
      if (leaf.uplink_rate > 0.0 && leaf.downlink_rate > 0.0) {
        leaf_slots += std::max(0, leaf.free_vm_slots);
      }
    }
    slots += leafy ? leaf_slots : std::max(0, graph.sites[s].free_vm_slots);
  }
  return slots;
}

// True when every source VM drains through a leaf with a live uplink (or
// the source is flat) — a dead source rack legitimately strands its VMs.
bool source_racks_alive(const Case& c) {
  for (const VmToMove& vm : c.vms) {
    if (vm.src_leaf != kNoLeaf && c.graph.leaves[vm.src_leaf].uplink_rate <= 0.0) {
      return false;
    }
  }
  return true;
}

// Checks properties 1 and 2 on any plan (batched or sequential).
void check_shape_and_feasibility(const Case& c, const Plan& plan, const char* label) {
  ASSERT_EQ(plan.assignments.size(), c.vms.size()) << label;
  std::size_t unscheduled = 0;
  std::map<int, std::vector<const Assignment*>> waves;
  for (std::size_t i = 0; i < plan.assignments.size(); ++i) {
    const Assignment& a = plan.assignments[i];
    EXPECT_EQ(a.vm, i) << label << ": plan must stay index-aligned";
    if (a.wave < 0) {
      ++unscheduled;
      continue;
    }
    EXPECT_LT(a.wave, plan.wave_count) << label;
    EXPECT_NE(a.dst_site, c.src) << label;
    EXPECT_LE(a.planned_rate, c.config.stream_rate_cap + kRateEps) << label;
    EXPECT_GT(a.planned_rate, 0.0) << label;
    EXPECT_GE(a.start, 0.0) << label;
    // The route must be a walk from src to dst over edges alive at grant.
    ASSERT_FALSE(a.route_edges.empty()) << label;
    std::size_t at = c.src;
    for (std::size_t e : a.route_edges) {
      ASSERT_LT(e, c.graph.edges.size()) << label;
      const EdgeSpec& edge = c.graph.edges[e];
      EXPECT_GT(edge.capacity_at(a.start), 0.0)
          << label << ": route uses an edge dead at its own grant time";
      ASSERT_TRUE(edge.a == at || edge.b == at) << label << ": route is not a walk";
      at = edge.a == at ? edge.b : edge.a;
    }
    EXPECT_EQ(at, a.dst_site) << label << ": route does not end at the destination";
    // Destination-leaf validity: a scheduled VM landing on a leafy site
    // names one of that site's leaves; flat sites leave it kNoLeaf.
    bool dst_leafy = false;
    for (const LeafSpec& leaf : c.graph.leaves) {
      dst_leafy = dst_leafy || leaf.site == a.dst_site;
    }
    if (dst_leafy) {
      ASSERT_NE(a.dst_leaf, kNoLeaf) << label;
      ASSERT_LT(a.dst_leaf, c.graph.leaves.size()) << label;
      EXPECT_EQ(c.graph.leaves[a.dst_leaf].site, a.dst_site) << label;
    } else {
      EXPECT_EQ(a.dst_leaf, kNoLeaf) << label;
    }
    waves[a.wave].push_back(&a);
  }
  EXPECT_EQ(unscheduled, plan.unscheduled) << label;

  // Destination-leaf slots are plan-wide, not per-wave.
  std::vector<int> leaf_used(c.graph.leaves.size(), 0);
  for (const Assignment& a : plan.assignments) {
    if (a.wave >= 0 && a.dst_leaf != kNoLeaf) {
      ++leaf_used[a.dst_leaf];
    }
  }
  for (std::size_t l = 0; l < c.graph.leaves.size(); ++l) {
    EXPECT_LE(leaf_used[l], std::max(0, c.graph.leaves[l].free_vm_slots))
        << label << ": leaf " << l << " over its VM slots";
  }

  for (const auto& [wave, members] : waves) {
    // One grant instant per wave; all rate math is pinned to it.
    const double grant = members.front()->start;
    std::vector<double> edge_load(c.graph.edges.size(), 0.0);
    std::vector<int> edge_streams(c.graph.edges.size(), 0);
    std::map<std::size_t, int> host_streams;
    for (const Assignment* a : members) {
      EXPECT_DOUBLE_EQ(a->start, grant) << label << " wave " << wave;
      for (std::size_t e : a->route_edges) {
        edge_load[e] += a->planned_rate;
        ++edge_streams[e];
      }
      ++host_streams[c.vms[a->vm].src_host];
    }
    for (std::size_t e = 0; e < c.graph.edges.size(); ++e) {
      EXPECT_LE(edge_load[e], c.graph.edges[e].capacity_at(grant) + kRateEps)
          << label << ": wave " << wave << " oversubscribes edge " << e;
    }
    // Leaf rate feasibility holds for every plan shape — evaluate() runs
    // even blind shapes through the leaf-aware max-min allocation.
    std::vector<double> up_load(c.graph.leaves.size(), 0.0);
    std::vector<double> down_load(c.graph.leaves.size(), 0.0);
    std::vector<int> up_streams(c.graph.leaves.size(), 0);
    std::vector<int> down_streams(c.graph.leaves.size(), 0);
    for (const Assignment* a : members) {
      const std::size_t sl = c.vms[a->vm].src_leaf;
      if (sl != kNoLeaf) {
        up_load[sl] += a->planned_rate;
        ++up_streams[sl];
      }
      if (a->dst_leaf != kNoLeaf) {
        down_load[a->dst_leaf] += a->planned_rate;
        ++down_streams[a->dst_leaf];
      }
    }
    for (std::size_t l = 0; l < c.graph.leaves.size(); ++l) {
      EXPECT_LE(up_load[l], std::max(0.0, c.graph.leaves[l].uplink_rate) + kRateEps)
          << label << ": wave " << wave << " oversubscribes leaf " << l << " uplink";
      EXPECT_LE(down_load[l], std::max(0.0, c.graph.leaves[l].downlink_rate) + kRateEps)
          << label << ": wave " << wave << " oversubscribes leaf " << l << " downlink";
    }
    if (!plan.sequential_fallback && !plan.topology_blind) {
      // Admission limits bind only plans the leaf-aware batching built
      // itself. Re-costed blind shapes (topology_blind) fixed their wave
      // membership on the flat view — evaluate() re-routes them at
      // different grant times, so a wave may cross an edge more often
      // than the slot policy would admit; its *rates* above still
      // respect every capacity.
      for (std::size_t e = 0; e < c.graph.edges.size(); ++e) {
        EXPECT_LE(edge_streams[e], c.config.max_streams_per_edge) << label;
      }
      for (const auto& [host, streams] : host_streams) {
        EXPECT_LE(streams, c.config.max_streams_per_src_host)
            << label << ": source host " << host;
      }
      // Leaf-aware admission: uplink stream slots and the incast limit.
      for (std::size_t l = 0; l < c.graph.leaves.size(); ++l) {
        const double up = c.graph.leaves[l].uplink_rate;
        const double down = c.graph.leaves[l].downlink_rate;
        const int up_slots =
            up <= 0.0 ? 0 : std::max(1, static_cast<int>(up / c.config.stream_rate_cap));
        const int in_slots =
            down <= 0.0 ? 0
                        : std::min(c.config.max_streams_per_dst_leaf,
                                   std::max(1, static_cast<int>(down / c.config.stream_rate_cap)));
        EXPECT_LE(up_streams[l], up_slots) << label << ": wave " << wave << " leaf " << l;
        EXPECT_LE(down_streams[l], in_slots) << label << ": wave " << wave << " leaf " << l;
      }
    }
  }
}

TEST(EvacuationPlannerProperty, RandomGraphsAreFeasibleAndBeatSequential) {
  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 200; ++iter) {
    const Case c = random_case(rng, /*with_schedules=*/iter % 2 == 1);
    EvacuationPlanner planner(c.graph, c.config);
    const Plan batched = planner.plan(c.src, c.vms);
    const Plan sequential = planner.plan_sequential(c.src, c.vms);
    ASSERT_NO_FATAL_FAILURE(check_shape_and_feasibility(c, batched, "plan"));
    ASSERT_NO_FATAL_FAILURE(check_shape_and_feasibility(c, sequential, "sequential"));

    // plan() never loses to the naive baseline.
    EXPECT_LE(batched.unscheduled, sequential.unscheduled) << "iter " << iter;
    if (batched.unscheduled == sequential.unscheduled) {
      EXPECT_LE(batched.makespan, sequential.makespan + 1e-9) << "iter " << iter;
    }

    // Static mesh with room for everyone: nobody is left behind.
    const bool static_mesh = iter % 2 == 0;
    if (static_mesh &&
        reachable_slots(c.graph, c.src, 0.0) >= static_cast<int>(c.vms.size())) {
      EXPECT_EQ(batched.unscheduled, 0u) << "iter " << iter;
      EXPECT_EQ(sequential.unscheduled, 0u) << "iter " << iter;
    }
  }
}

TEST(EvacuationPlannerProperty, ReplanAfterPartitionCoversEveryReachableVm) {
  std::mt19937 rng(977);
  int partitions_with_full_coverage = 0;
  for (int iter = 0; iter < 200; ++iter) {
    Case c = random_case(rng, /*with_schedules=*/false);
    // Partition one random edge from t=0 — the shape a driver sees when it
    // replans deferred VMs against the live mesh after a WAN failure.
    EdgeSpec& dead = c.graph.edges[rng() % c.graph.edges.size()];
    dead.schedule = {EdgePhase{0.0, 0.0}};
    const std::size_t dead_index = static_cast<std::size_t>(&dead - c.graph.edges.data());

    EvacuationPlanner planner(c.graph, c.config);
    const Plan plan = planner.plan(c.src, c.vms);
    ASSERT_NO_FATAL_FAILURE(check_shape_and_feasibility(c, plan, "replan"));
    for (const Assignment& a : plan.assignments) {
      if (a.wave >= 0) {
        EXPECT_EQ(std::count(a.route_edges.begin(), a.route_edges.end(), dead_index), 0)
            << "iter " << iter << ": plan routed over the partitioned edge";
      }
    }
    if (reachable_slots(c.graph, c.src, 0.0) >= static_cast<int>(c.vms.size())) {
      EXPECT_EQ(plan.unscheduled, 0u) << "iter " << iter;
      ++partitions_with_full_coverage;
    }
  }
  // The generator must actually exercise the interesting regime.
  EXPECT_GT(partitions_with_full_coverage, 20);
}

TEST(EvacuationPlannerProperty, LeafyGraphsAreFeasibleAndComplete) {
  std::mt19937 rng(20260809);
  int complete_cases = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Case c = random_case(rng, /*with_schedules=*/iter % 4 == 3, /*with_leaves=*/true);
    EvacuationPlanner planner(c.graph, c.config);
    const Plan plan = planner.plan(c.src, c.vms);
    const Plan sequential = planner.plan_sequential(c.src, c.vms);
    ASSERT_NO_FATAL_FAILURE(check_shape_and_feasibility(c, plan, "leafy-plan"));
    ASSERT_NO_FATAL_FAILURE(check_shape_and_feasibility(c, sequential, "leafy-sequential"));

    EXPECT_LE(plan.unscheduled, sequential.unscheduled) << "iter " << iter;
    if (plan.unscheduled == sequential.unscheduled) {
      EXPECT_LE(plan.makespan, sequential.makespan + 1e-9) << "iter " << iter;
    }

    // Completeness: static mesh, every source rack alive, enough slots on
    // live leaves — nobody is left behind.
    if (iter % 4 != 3 && source_racks_alive(c) &&
        reachable_slots(c.graph, c.src, 0.0) >= static_cast<int>(c.vms.size())) {
      EXPECT_EQ(plan.unscheduled, 0u) << "iter " << iter;
      ++complete_cases;
    }
  }
  EXPECT_GT(complete_cases, 20);
}

TEST(EvacuationPlannerProperty, TopologyAwareNeverWorseThanBlind) {
  std::mt19937 rng(31337);
  int leafy_cases = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Case c = random_case(rng, /*with_schedules=*/false, /*with_leaves=*/true);
    if (c.graph.leaves.empty()) {
      continue;
    }
    ++leafy_cases;
    EvacuationPlanner aware(c.graph, c.config);
    EvacuationPlanner blind(c.graph.without_leaves(), c.config);
    const Plan aware_plan = aware.plan(c.src, c.vms);
    // What the blind plan actually costs when executed on the real
    // topology: plan() folds this exact candidate into its best-of, so
    // aware can never lose.
    const Plan blind_cost = aware.evaluate(c.src, c.vms, blind.plan(c.src, c.vms));
    EXPECT_LE(aware_plan.unscheduled, blind_cost.unscheduled) << "iter " << iter;
    if (aware_plan.unscheduled == blind_cost.unscheduled) {
      EXPECT_LE(aware_plan.makespan, blind_cost.makespan + 1e-9) << "iter " << iter;
    }
  }
  EXPECT_GT(leafy_cases, 100);
}

TEST(EvacuationPlannerProperty, WaveRatesAreMaxMin) {
  std::mt19937 rng(4242);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n_edges = 1 + rng() % 6;
    std::vector<double> capacity(n_edges);
    for (double& cap : capacity) {
      cap = 5e6 + unit(rng) * 3e8;
    }
    const std::size_t n_streams = 1 + rng() % 24;
    std::vector<std::vector<std::size_t>> routes(n_streams);
    for (auto& route : routes) {
      for (std::size_t e = 0; e < n_edges; ++e) {
        if (unit(rng) < 0.4) {
          route.push_back(e);
        }
      }
      if (route.empty()) {
        route.push_back(rng() % n_edges);
      }
    }
    PlannerConfig config;
    config.stream_rate_cap = 20e6 + unit(rng) * 2e8;
    SiteGraph graph;
    for (const double cap : capacity) {
      graph.edges.push_back({.rate = cap});
    }
    EvacuationPlanner planner(std::move(graph), config);
    std::vector<const std::vector<std::size_t>*> route_ptrs;
    for (const auto& route : routes) {
      route_ptrs.push_back(&route);
    }
    const std::vector<double> rates = planner.wave_rates(route_ptrs, {}, {}, 0.0);

    ASSERT_EQ(rates.size(), n_streams);
    std::vector<double> load(n_edges, 0.0);
    for (std::size_t s = 0; s < n_streams; ++s) {
      EXPECT_GE(rates[s], 0.0);
      EXPECT_LE(rates[s], config.stream_rate_cap + kRateEps);
      for (std::size_t e : routes[s]) {
        load[e] += rates[s];
      }
    }
    for (std::size_t e = 0; e < n_edges; ++e) {
      EXPECT_LE(load[e], capacity[e] + kRateEps) << "iter " << iter;
    }
    // Maximality: a stream below its cap must be pinned by some saturated
    // edge on its route — otherwise the allocation left free capacity.
    for (std::size_t s = 0; s < n_streams; ++s) {
      if (rates[s] >= config.stream_rate_cap - kRateEps) {
        continue;
      }
      bool pinned = false;
      for (std::size_t e : routes[s]) {
        if (load[e] >= capacity[e] - kRateEps) {
          pinned = true;
          break;
        }
      }
      EXPECT_TRUE(pinned) << "iter " << iter << " stream " << s
                          << " has headroom everywhere but was not raised";
    }
  }
}

}  // namespace
}  // namespace nm::plan
