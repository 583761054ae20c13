// Property tests for net::ClosFabric: across hundreds of random
// leaf-spine shapes the link counts and rates must match the closed forms,
// every leaf pair (and gateway attach) must be routed by a structurally
// valid candidate, the bisection bandwidth must satisfy the
// oversubscription identity, ECMP picks must be a pure function of
// (config, seed, sequence), and dead links must be filtered from the
// candidate set while alternatives survive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "hw/node.h"
#include "net/clos_fabric.h"
#include "net/port.h"
#include "sim/simulation.h"

namespace nm::net {
namespace {

struct TestBed {
  sim::Simulation sim;
  sim::FluidScheduler sched{sim};
};

ClosConfig random_config(std::mt19937_64& rng) {
  ClosConfig cfg;
  cfg.leaves = 1 + static_cast<int>(rng() % 8);
  cfg.spines = 1 + static_cast<int>(rng() % 4);
  cfg.hosts_per_leaf = 1 + static_cast<int>(rng() % 8);
  const double oversubs[] = {1.0, 2.0, 4.0};
  cfg.oversubscription = oversubs[rng() % 3];
  cfg.seed = rng();
  return cfg;
}

// Asserts that `path` is a structurally valid src_leaf -> dst_leaf
// candidate: correct hop count, correct up/down ordering, endpoints on
// the right leaves, and one spine for both legs.
void check_path(const ClosFabric& fab, int src, int dst, const std::vector<ClosHop>& path) {
  if (src == dst || (src == ClosFabric::kSpineAttach && dst == ClosFabric::kSpineAttach)) {
    EXPECT_TRUE(path.empty()) << "same-leaf pair must not cross the fabric";
    return;
  }
  ASSERT_FALSE(path.empty()) << "pair (" << src << ", " << dst << ") unrouted";
  for (const ClosHop& hop : path) {
    ASSERT_LT(hop.link, fab.link_count());
  }
  // Link l is uplink (l % spines) of leaf (l / spines).
  const auto spines = static_cast<std::size_t>(fab.uplinks_per_leaf());
  int spine = -1;
  std::size_t i = 0;
  if (src != ClosFabric::kSpineAttach) {
    EXPECT_TRUE(path[i].up);
    EXPECT_EQ(static_cast<int>(path[i].link / spines), src);
    spine = static_cast<int>(path[i].link % spines);
    ++i;
  }
  if (dst != ClosFabric::kSpineAttach) {
    ASSERT_LT(i, path.size());
    EXPECT_FALSE(path[i].up);
    EXPECT_EQ(static_cast<int>(path[i].link / spines), dst);
    if (spine >= 0) {
      EXPECT_EQ(static_cast<int>(path[i].link % spines), spine)
          << "both legs must use the same spine";
    }
    ++i;
  }
  EXPECT_EQ(i, path.size());
}

TEST(ClosFabric, RandomShapesMatchClosedForms) {
  std::mt19937_64 rng(20260808);
  for (int iter = 0; iter < 500; ++iter) {
    const ClosConfig cfg = random_config(rng);
    TestBed tb;
    ClosFabric fab(tb.sched, "clos" + std::to_string(iter), cfg);
    const double host_rate = cfg.host_rate.bytes_per_second();
    EXPECT_EQ(fab.leaf_count(), cfg.leaves);
    EXPECT_EQ(fab.uplinks_per_leaf(), cfg.spines);
    EXPECT_EQ(fab.link_count(), static_cast<std::size_t>(cfg.leaves) * cfg.spines);
    EXPECT_EQ(fab.host_ports(), cfg.leaves * cfg.hosts_per_leaf);
    EXPECT_DOUBLE_EQ(fab.uplink_rate(),
                     cfg.hosts_per_leaf * host_rate / (cfg.spines * cfg.oversubscription));
    EXPECT_DOUBLE_EQ(fab.bisection_bandwidth(),
                     static_cast<double>(cfg.leaves) * cfg.spines * fab.uplink_rate() / 2.0);
    // The oversubscription identity: host-tier half-bandwidth over the
    // bisection equals the realized leaf-tier oversubscription.
    const double half_host_bw = fab.host_ports() * host_rate / 2.0;
    EXPECT_NEAR(half_host_bw / fab.bisection_bandwidth(), fab.oversubscription(),
                1e-9 * fab.oversubscription());
    EXPECT_NEAR(fab.oversubscription(), cfg.oversubscription, 1e-9 * cfg.oversubscription);
    // Nominal leaf capacity is the sum of its uplinks.
    for (int leaf = 0; leaf < fab.leaf_count(); ++leaf) {
      EXPECT_DOUBLE_EQ(fab.leaf_capacity(leaf, /*nominal=*/true),
                       fab.uplinks_per_leaf() * fab.uplink_rate());
      EXPECT_DOUBLE_EQ(fab.leaf_capacity(leaf, /*nominal=*/false),
                       fab.leaf_capacity(leaf, /*nominal=*/true));
    }
    // Link names are unique (the layout math never aliases two links).
    std::vector<std::string> names;
    names.reserve(fab.link_count());
    for (std::size_t l = 0; l < fab.link_count(); ++l) {
      names.push_back(fab.link_name(l));
      EXPECT_GT(fab.link_rate(l), 0.0);
      EXPECT_DOUBLE_EQ(fab.link_factor(l), 1.0);
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  }
}

TEST(ClosFabric, EveryLeafPairHasValidPaths) {
  std::mt19937_64 rng(987654321);
  for (int iter = 0; iter < 60; ++iter) {
    const ClosConfig cfg = random_config(rng);
    TestBed tb;
    ClosFabric fab(tb.sched, "paths" + std::to_string(iter), cfg);
    std::vector<int> endpoints{ClosFabric::kSpineAttach};
    for (int leaf = 0; leaf < fab.leaf_count(); ++leaf) {
      endpoints.push_back(leaf);
    }
    for (int src : endpoints) {
      for (int dst : endpoints) {
        for (std::uint64_t key : {std::uint64_t{0}, std::uint64_t{1}, rng()}) {
          check_path(fab, src, dst, fab.path_for_key(src, dst, key));
        }
        const double rate = fab.path_rate(src, dst);
        if (src == dst ||
            (src == ClosFabric::kSpineAttach && dst == ClosFabric::kSpineAttach)) {
          EXPECT_TRUE(std::isinf(rate)) << "no fabric crossing means no fabric bottleneck";
        } else {
          EXPECT_DOUBLE_EQ(rate, fab.uplink_rate());
        }
        // pick_path consumes sequence numbers but must keep structure.
        check_path(fab, src, dst, fab.pick_path(src, dst));
      }
    }
  }
}

TEST(ClosFabric, PicksAreDeterministicPerSeed) {
  ClosConfig cfg;
  cfg.leaves = 6;
  cfg.spines = 4;
  cfg.hosts_per_leaf = 4;
  cfg.oversubscription = 2.0;
  cfg.seed = 42;

  TestBed tb;
  ClosFabric a(tb.sched, "det", cfg);
  ClosFabric b(tb.sched, "det", cfg);
  ClosConfig other = cfg;
  other.seed = 43;
  ClosFabric c(tb.sched, "det", other);

  std::mt19937_64 pairs(7);
  int diverged = 0;
  for (int i = 0; i < 200; ++i) {
    const int src = static_cast<int>(pairs() % cfg.leaves);
    int dst = static_cast<int>(pairs() % cfg.leaves);
    if (dst == src) {
      dst = (dst + 1) % cfg.leaves;
    }
    const auto pa = a.pick_path(src, dst);
    const auto pb = b.pick_path(src, dst);
    const auto pc = c.pick_path(src, dst);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t h = 0; h < pa.size(); ++h) {
      EXPECT_EQ(pa[h].link, pb[h].link) << "same config+seed must replay identical picks";
      EXPECT_EQ(pa[h].up, pb[h].up);
    }
    if (pa.size() != pc.size() || pa[0].link != pc[0].link) {
      ++diverged;
    }
    // path_for_key is a pure function: same key, same pick.
    const auto k1 = a.path_for_key(src, dst, 0xdeadbeefULL + i);
    const auto k2 = a.path_for_key(src, dst, 0xdeadbeefULL + i);
    ASSERT_EQ(k1.size(), k2.size());
    for (std::size_t h = 0; h < k1.size(); ++h) {
      EXPECT_EQ(k1[h].link, k2[h].link);
    }
  }
  // A different seed draws a different salt; with 4 spines and 200 flows
  // an identical sequence is astronomically unlikely.
  EXPECT_GT(diverged, 0);
}

TEST(ClosFabric, DeadLinksAreAvoidedWhileAlternativesLive) {
  ClosConfig cfg;
  cfg.leaves = 4;
  cfg.spines = 3;
  cfg.hosts_per_leaf = 2;
  cfg.seed = 9;
  TestBed tb;
  ClosFabric fab(tb.sched, "dead", cfg);

  const std::size_t victim = fab.uplink_index(0, 1);
  fab.set_link_factor(victim, 0.0);
  EXPECT_TRUE(fab.has_dead_link());
  EXPECT_DOUBLE_EQ(fab.leaf_capacity(0, /*nominal=*/false),
                   (cfg.spines - 1) * fab.uplink_rate());
  EXPECT_DOUBLE_EQ(fab.leaf_capacity(0, /*nominal=*/true), cfg.spines * fab.uplink_rate());

  for (std::uint64_t key = 0; key < 200; ++key) {
    const auto path = fab.path_for_key(0, 2, key);
    ASSERT_FALSE(path.empty());
    for (const ClosHop& hop : path) {
      EXPECT_NE(hop.link, victim) << "ECMP must filter the dead uplink while spines survive";
    }
    check_path(fab, 0, 2, path);
  }
  EXPECT_DOUBLE_EQ(fab.path_rate(0, 2), fab.uplink_rate());

  // Kill the remaining uplinks of leaf 0: no alive candidate is left, so
  // the nominal pick is kept (the flow freezes on the dead resource).
  fab.set_link_factor(fab.uplink_index(0, 0), 0.0);
  fab.set_link_factor(fab.uplink_index(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(fab.path_rate(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(fab.leaf_capacity(0, /*nominal=*/false), 0.0);
  for (std::uint64_t key = 0; key < 8; ++key) {
    const auto path = fab.path_for_key(0, 2, key);
    ASSERT_FALSE(path.empty()) << "all-dead pairs still get a nominal path to freeze on";
    check_path(fab, 0, 2, path);
  }

  // Healing restores the full candidate set and capacity.
  for (int s = 0; s < cfg.spines; ++s) {
    fab.set_link_factor(fab.uplink_index(0, s), 1.0);
  }
  EXPECT_FALSE(fab.has_dead_link());
  EXPECT_DOUBLE_EQ(fab.path_rate(0, 2), fab.uplink_rate());
  EXPECT_DOUBLE_EQ(fab.leaf_capacity(0, /*nominal=*/false), cfg.spines * fab.uplink_rate());
}

TEST(ClosFabric, PortToLeafMapping) {
  ClosConfig cfg;
  cfg.leaves = 2;
  cfg.spines = 1;
  cfg.hosts_per_leaf = 2;
  TestBed tb;
  ClosFabric fab(tb.sched, "ports", cfg);

  hw::NodeSpec spec;
  spec.name = "n0";
  spec.cores = 4.0;
  hw::Node node(tb.sched, spec);
  NicPort p0(node, "n0-eth0", cfg.host_rate);
  NicPort p1(node, "n0-eth1", cfg.host_rate);

  EXPECT_EQ(fab.leaf_of(p0), ClosFabric::kSpineAttach);
  fab.assign_port(p0, 0);
  fab.assign_port(p1, 1);
  EXPECT_EQ(fab.leaf_of(p0), 0);
  EXPECT_EQ(fab.leaf_of(p1), 1);
  // Same-leaf pairs never cross the fabric; cross-leaf pairs do.
  EXPECT_TRUE(fab.path_for_key(fab.leaf_of(p0), fab.leaf_of(p0), 1).empty());
  EXPECT_FALSE(fab.path_for_key(fab.leaf_of(p0), fab.leaf_of(p1), 1).empty());
}

}  // namespace
}  // namespace nm::net
