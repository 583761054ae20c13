// Sharding invariance: a testbed built over N FluidDomain shards must
// produce a timeline *bit-identical* to the 1-shard build. Domains solve
// independently and their timers merge through the one deterministic
// (time, sequence) event queue, so any topology-valid partitioning — one
// where no flow ever crosses domains — is exact, not approximate. These
// tests pin that invariant for (a) the full fallback+recovery Ninja
// episode at shard counts 1/2/4 (the ninja_integration_test invariants
// re-checked per count), (b) hand-built disjoint zones split across two
// domains vs merged onto one scheduler, with and without the SolvePool's
// end-of-instant batch, and (c) blade domains bridged by boundary flows
// vs the merged enclosure. The 1-shard episode itself is pinned by value.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/job.h"
#include "core/ninja.h"
#include "core/testbed.h"
#include "hw/cluster.h"
#include "net/port.h"
#include "sim/fluid.h"
#include "sim/solve_pool.h"

namespace nm::core {
namespace {

/// Everything observable about one fallback+recovery run, recorded exactly
/// (raw doubles / nanosecond counts — compared with EXPECT_EQ, not NEAR).
struct EpisodeTrace {
  std::vector<double> iter_seconds;
  std::int64_t fallback_detach_ns = 0;
  std::int64_t fallback_migration_ns = 0;
  std::int64_t fallback_total_ns = 0;
  std::int64_t recovery_attach_ns = 0;
  std::int64_t recovery_linkup_ns = 0;
  std::int64_t recovery_total_ns = 0;
  std::int64_t final_time_ns = 0;
  double ib_cpu_consumed = 0.0;
  std::string transport;
  bool back_on_ib = false;
  bool hca_in_use = false;
};

EpisodeTrace run_fallback_recovery(int fluid_shards, bool blade_domains = false) {
  TestbedConfig tcfg;
  tcfg.fluid_shards = fluid_shards;
  tcfg.blade_domains = blade_domains;
  Testbed tb(tcfg);
  JobConfig cfg;
  cfg.vm_count = 2;
  cfg.ranks_per_vm = 1;
  cfg.vm_template.memory = Bytes::gib(8);
  cfg.vm_template.base_os_footprint = Bytes::gib(1);
  MpiJob job(tb, cfg);
  job.init();

  EpisodeTrace trace;
  auto& sim = tb.sim();
  job.launch([&](mpi::RankId me) -> sim::Task {
    for (int i = 0; i < 16; ++i) {
      const TimePoint t0 = sim.now();
      co_await job.world().bcast(me, 0, Bytes::mib(128));
      co_await job.world().reduce(me, 0, Bytes::mib(128), 2e-10);
      co_await job.world().barrier(me);
      if (me == 0) {
        trace.iter_seconds.push_back((sim.now() - t0).to_seconds());
      }
    }
  });

  NinjaStats fallback;
  NinjaStats recovery;
  sim.spawn([](Testbed& t, MpiJob& j, NinjaStats& fb, NinjaStats& rc) -> sim::Task {
    co_await t.sim().delay(Duration::seconds(2.0));
    co_await j.fallback_migration(2, &fb);
    co_await t.sim().delay(Duration::seconds(2.0));
    co_await j.recovery_migration(2, &rc);
  }(tb, job, fallback, recovery));
  sim.run();

  trace.fallback_detach_ns = fallback.detach.count_nanos();
  trace.fallback_migration_ns = fallback.migration.count_nanos();
  trace.fallback_total_ns = fallback.total.count_nanos();
  trace.recovery_attach_ns = recovery.attach.count_nanos();
  trace.recovery_linkup_ns = recovery.linkup.count_nanos();
  trace.recovery_total_ns = recovery.total.count_nanos();
  trace.final_time_ns = (sim.now() - TimePoint::origin()).count_nanos();
  trace.ib_cpu_consumed = tb.ib_host(0).node().cpu().consumed();
  trace.transport = job.current_transport();
  trace.back_on_ib = tb.ib_host(0).resident(*job.vms()[0]) &&
                     tb.ib_host(1).resident(*job.vms()[1]);
  trace.hca_in_use = !tb.ib_host(0).hca_available(Testbed::kHcaPciAddr);
  return trace;
}

TEST(Sharding, FallbackRecoveryTimelineBitIdenticalAcrossShardCounts) {
  const EpisodeTrace base = run_fallback_recovery(1);

  // The 1-shard run itself must satisfy the integration invariants.
  ASSERT_EQ(base.iter_seconds.size(), 16u);
  EXPECT_EQ(base.transport, "openib");
  EXPECT_TRUE(base.back_on_ib);
  EXPECT_TRUE(base.hca_in_use);

  for (const int shards : {2, 4}) {
    const EpisodeTrace t = run_fallback_recovery(shards);
    // Integration invariants re-hold at this shard count...
    EXPECT_EQ(t.transport, "openib") << "shards=" << shards;
    EXPECT_TRUE(t.back_on_ib) << "shards=" << shards;
    EXPECT_TRUE(t.hca_in_use) << "shards=" << shards;
    // ...and the timeline is bit-identical to the 1-shard build: exact
    // integer nanoseconds and exact doubles, no tolerance.
    ASSERT_EQ(t.iter_seconds.size(), base.iter_seconds.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < base.iter_seconds.size(); ++i) {
      EXPECT_EQ(t.iter_seconds[i], base.iter_seconds[i])
          << "shards=" << shards << " iteration=" << i;
    }
    EXPECT_EQ(t.fallback_detach_ns, base.fallback_detach_ns) << "shards=" << shards;
    EXPECT_EQ(t.fallback_migration_ns, base.fallback_migration_ns) << "shards=" << shards;
    EXPECT_EQ(t.fallback_total_ns, base.fallback_total_ns) << "shards=" << shards;
    EXPECT_EQ(t.recovery_attach_ns, base.recovery_attach_ns) << "shards=" << shards;
    EXPECT_EQ(t.recovery_linkup_ns, base.recovery_linkup_ns) << "shards=" << shards;
    EXPECT_EQ(t.recovery_total_ns, base.recovery_total_ns) << "shards=" << shards;
    EXPECT_EQ(t.final_time_ns, base.final_time_ns) << "shards=" << shards;
    EXPECT_EQ(t.ib_cpu_consumed, base.ib_cpu_consumed) << "shards=" << shards;
  }
}

// --- The 1-shard episode, pinned by value ------------------------------------

void expect_traces_identical(const EpisodeTrace& t, const EpisodeTrace& base,
                             const std::string& label) {
  ASSERT_EQ(t.iter_seconds.size(), base.iter_seconds.size()) << label;
  for (std::size_t i = 0; i < base.iter_seconds.size(); ++i) {
    EXPECT_EQ(t.iter_seconds[i], base.iter_seconds[i]) << label << " iteration=" << i;
  }
  EXPECT_EQ(t.fallback_detach_ns, base.fallback_detach_ns) << label;
  EXPECT_EQ(t.fallback_migration_ns, base.fallback_migration_ns) << label;
  EXPECT_EQ(t.fallback_total_ns, base.fallback_total_ns) << label;
  EXPECT_EQ(t.recovery_attach_ns, base.recovery_attach_ns) << label;
  EXPECT_EQ(t.recovery_linkup_ns, base.recovery_linkup_ns) << label;
  EXPECT_EQ(t.recovery_total_ns, base.recovery_total_ns) << label;
  EXPECT_EQ(t.final_time_ns, base.final_time_ns) << label;
  EXPECT_EQ(t.ib_cpu_consumed, base.ib_cpu_consumed) << label;
  EXPECT_EQ(t.transport, base.transport) << label;
  EXPECT_EQ(t.back_on_ib, base.back_on_ib) << label;
  EXPECT_EQ(t.hca_in_use, base.hca_in_use) << label;
}

/// The 1-shard fallback+recovery episode, to the nanosecond and the last
/// bit of every double.
EpisodeTrace pinned_fallback_recovery() {
  EpisodeTrace t;
  // The first iteration runs 1 ns shorter than the other fifteen.
  t.iter_seconds.assign(16, 0.093956411000000004);
  t.iter_seconds.front() = 0.093956410000000004;
  // The job's 16 iterations end near t = 1.5 s, before the 2 s trigger:
  // the fallback episode never completes, the recovery never starts, and
  // both stats stay zero.
  t.fallback_detach_ns = 0;
  t.fallback_migration_ns = 0;
  t.fallback_total_ns = 0;
  t.recovery_attach_ns = 0;
  t.recovery_linkup_ns = 0;
  t.recovery_total_ns = 0;
  t.final_time_ns = 33'920'000'000;
  t.ib_cpu_consumed = 0.42949673599999999;
  t.transport = "openib";
  t.back_on_ib = true;
  t.hca_in_use = true;
  return t;
}

// The name predates the removal of the solve worker threads; the shard
// counts are covered by FallbackRecoveryTimelineBitIdenticalAcrossShardCounts.
TEST(Sharding, ParallelSolveMatrixBitIdenticalToSingleThread) {
  expect_traces_identical(run_fallback_recovery(1), pinned_fallback_recovery(), "1 shard");
}

// --- Disjoint zones genuinely split across domains ---------------------------

struct Zone {
  std::unique_ptr<hw::Cluster> cluster;
  std::vector<std::unique_ptr<net::NicPort>> ports;
};

constexpr int kZoneNodes = 6;

/// Builds one isolated zone (nodes + NIC ports) on `sched`.
Zone build_zone(sim::FluidScheduler& sched, int z) {
  Zone zone;
  zone.cluster = std::make_unique<hw::Cluster>("zone" + std::to_string(z));
  zone.ports.reserve(kZoneNodes);
  for (int n = 0; n < kZoneNodes; ++n) {
    hw::NodeSpec spec;
    spec.name = "z" + std::to_string(z) + ":n" + std::to_string(n);
    auto& node = zone.cluster->add_node(sched, spec);
    zone.ports.push_back(std::make_unique<net::NicPort>(
        node, spec.name + ":eth", Bandwidth::gib_per_sec(10.0), sched));
  }
  return zone;
}

/// Starts an intra-zone flow program (CPU flows + a NIC ring) and drains
/// the merged timeline, recording every flow's completion stamp.
std::vector<std::int64_t> run_zone_flows(sim::Simulation& sim,
                                         std::vector<Zone>& zones,
                                         const std::vector<sim::FluidScheduler*>& zone_sched) {
  std::vector<sim::FlowPtr> flows;
  for (std::size_t z = 0; z < zones.size(); ++z) {
    auto& sched = *zone_sched[z];
    for (int n = 0; n < kZoneNodes; ++n) {
      auto& node = zones[z].cluster->node(static_cast<std::size_t>(n));
      flows.push_back(
          sched.start(sim::FlowSpec{.work = (n + 1) * 0.25, .max_rate = 1.0}.over(node.cpu())));
      flows.push_back(sched.start(
          sim::FlowSpec{.work = 1e9 * (n + 1)}
              .over(zones[z].ports[static_cast<std::size_t>(n)]->tx())
              .over(zones[z].ports[static_cast<std::size_t>((n + 1) % kZoneNodes)]->rx())));
    }
  }
  std::vector<std::int64_t> stamps(flows.size(), -1);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    sim.spawn([](sim::Simulation& s, sim::FlowPtr flow, std::int64_t& out) -> sim::Task {
      co_await flow->completion().wait();
      out = (s.now() - TimePoint::origin()).count_nanos();
    }(sim, flows[f], stamps[f]));
  }
  sim.run();
  for (const auto& flow : flows) {
    EXPECT_TRUE(flow->finished());
  }
  return stamps;
}

TEST(Sharding, DisjointZonesOnSeparateDomainsMatchSingleScheduler) {
  // Merged build: both zones on one scheduler (one domain).
  std::vector<std::int64_t> merged;
  {
    sim::Simulation sim;
    sim::FluidDomain domain(sim, "all-zones");
    std::vector<Zone> zones;
    std::vector<sim::FluidScheduler*> zone_sched;
    for (int z = 0; z < 2; ++z) {
      zones.push_back(build_zone(domain.scheduler(), z));
      zone_sched.push_back(&domain.scheduler());
    }
    merged = run_zone_flows(sim, zones, zone_sched);
  }

  // Sharded build: each zone on its own FluidDomain over one shared clock.
  std::vector<std::int64_t> sharded;
  double consumed_z0 = 0.0;
  {
    sim::Simulation sim;
    std::vector<std::unique_ptr<sim::FluidDomain>> domains;
    std::vector<Zone> zones;
    std::vector<sim::FluidScheduler*> zone_sched;
    for (int z = 0; z < 2; ++z) {
      domains.push_back(
          std::make_unique<sim::FluidDomain>(sim, "zone" + std::to_string(z)));
      zones.push_back(build_zone(domains.back()->scheduler(), z));
      zone_sched.push_back(&domains.back()->scheduler());
    }
    sharded = run_zone_flows(sim, zones, zone_sched);
    consumed_z0 = zones[0].cluster->node(0).cpu().consumed();
  }

  // Every flow completes at the identical instant, bit for bit.
  ASSERT_EQ(merged.size(), sharded.size());
  for (std::size_t f = 0; f < merged.size(); ++f) {
    EXPECT_EQ(merged[f], sharded[f]) << "flow " << f;
  }
  // Node 0 ran one 0.25 core-second flow at rate 1: consumption accounting
  // holds across the domain split.
  EXPECT_NEAR(consumed_z0, 0.25, 1e-9);
}

// The name predates the removal of the solve worker threads.
TEST(Sharding, ParallelSolvePoolMatchesSerialOnDisjointZones) {
  // Reference: two zones on separate domains, each settled by its own
  // scheduler's zero-delay post (no pool).
  std::vector<std::int64_t> serial;
  {
    sim::Simulation sim;
    std::vector<std::unique_ptr<sim::FluidDomain>> domains;
    std::vector<Zone> zones;
    std::vector<sim::FluidScheduler*> zone_sched;
    for (int z = 0; z < 2; ++z) {
      domains.push_back(std::make_unique<sim::FluidDomain>(sim, "zone" + std::to_string(z)));
      zones.push_back(build_zone(domains.back()->scheduler(), z));
      zone_sched.push_back(&domains.back()->scheduler());
    }
    serial = run_zone_flows(sim, zones, zone_sched);
  }

  // Same topology settled through a SolvePool. The zones admit flows at
  // the same instant, so the pool genuinely batches components of both
  // domains — and the timeline must still replay the no-pool run exactly.
  std::vector<std::int64_t> pooled;
  std::size_t max_batch = 0;
  {
    sim::Simulation sim;
    sim::SolvePool pool(sim);
    std::vector<std::unique_ptr<sim::FluidDomain>> domains;
    std::vector<Zone> zones;
    std::vector<sim::FluidScheduler*> zone_sched;
    for (int z = 0; z < 2; ++z) {
      domains.push_back(std::make_unique<sim::FluidDomain>(sim, "zone" + std::to_string(z)));
      pool.attach(domains.back()->scheduler());
      zones.push_back(build_zone(domains.back()->scheduler(), z));
      zone_sched.push_back(&domains.back()->scheduler());
    }
    pooled = run_zone_flows(sim, zones, zone_sched);
    max_batch = pool.max_batch_size();
    EXPECT_GT(pool.settle_count(), 0u);
  }

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t f = 0; f < serial.size(); ++f) {
    EXPECT_EQ(serial[f], pooled[f]) << "flow " << f;
  }
  // The admission instant dirties both domains at once, so at least one
  // settle must actually have run a multi-component batch (otherwise this
  // test would be vacuous).
  EXPECT_GT(max_batch, 1u);
}

TEST(Sharding, TestbedExposesRequestedDomains) {
  TestbedConfig tcfg;
  tcfg.fluid_shards = 3;
  Testbed tb(tcfg);
  EXPECT_EQ(tb.domain_count(), 3u);
  // The enclosure's shared resources (and, without blade_domains, the
  // blades) all live on domain 0 — the routing façade agrees.
  EXPECT_EQ(tb.domain_of(tb.storage().throughput()), &tb.domain(0));
  EXPECT_EQ(tb.domain_of(tb.ib_host(0).node().cpu()), &tb.domain(0));
  // Spare shards are real, independently usable schedulers on the same clock.
  EXPECT_EQ(&tb.domain(1).simulation(), &tb.sim());
  EXPECT_NE(&tb.domain(1).scheduler(), &tb.domain(0).scheduler());
}

// --- Boundary flows on the real topology -------------------------------------

// The name predates the removal of the solve worker threads.
TEST(Sharding, BladeDomainEpisodeBitIdenticalAcrossWorkerCounts) {
  // Carving every blade into its own domain turns each transfer (src tx on
  // one blade domain, dst rx on another, NFS + vhost on the shared zone)
  // into a boundary flow solved by the ghost-capacity exchange. The
  // exchange converges to the merged max-min rates, so the whole episode
  // must replay the merged 1-shard enclosure bit for bit.
  const EpisodeTrace blades = run_fallback_recovery(/*fluid_shards=*/1, /*blade_domains=*/true);
  // The blade-domain run is a real episode in its own right.
  ASSERT_EQ(blades.iter_seconds.size(), 16u);
  EXPECT_EQ(blades.transport, "openib");
  EXPECT_TRUE(blades.back_on_ib);
  EXPECT_TRUE(blades.hca_in_use);
  expect_traces_identical(blades, run_fallback_recovery(/*fluid_shards=*/1),
                          "blade domains vs merged");
}

TEST(Sharding, BladeDomainTestbedRegistersBoundaryFlows) {
  TestbedConfig tcfg;
  tcfg.blade_domains = true;
  tcfg.ib_nodes = 2;
  tcfg.eth_nodes = 0;
  Testbed tb(tcfg);
  // fluid_shards=1 zone domain + one domain per blade.
  EXPECT_EQ(tb.domain_count(), 3u);
  EXPECT_EQ(tb.domain_of(tb.ib_host(0).node().cpu()), &tb.domain(1));
  EXPECT_EQ(tb.domain_of(tb.ib_host(1).node().cpu()), &tb.domain(2));
  ASSERT_NE(tb.net().pool(), nullptr);

  auto vm0 = tb.boot_vm(tb.ib_host(0), [] {
    vmm::VmSpec s;
    s.name = "vm0";
    s.memory = Bytes::gib(4);
    return s;
  }(), /*with_hca=*/false);
  auto vm1 = tb.boot_vm(tb.ib_host(1), [] {
    vmm::VmSpec s;
    s.name = "vm1";
    s.memory = Bytes::gib(4);
    return s;
  }(), /*with_hca=*/false);
  tb.settle();

  // An Ethernet transfer between the two blades crosses three domains; the
  // net must register it as a boundary flow and still complete it.
  bool done = false;
  tb.sim().spawn([](Testbed& t, bool& flag) -> sim::Task {
    auto src = t.ib_host(0).eth_attachment();
    auto dst = t.ib_host(1).eth_attachment();
    co_await t.eth_fabric().transfer(src, dst->address(), Bytes::mib(64));
    flag = true;
  }(tb, done));
  tb.sim().run_for(Duration::seconds(0.001));
  EXPECT_GT(tb.net().boundary_flow_count(), 0u);
  tb.sim().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(tb.net().boundary_flow_count(), 0u);
  EXPECT_GT(tb.net().exchange_round_count(), 0u);
  EXPECT_EQ(tb.net().unconverged_exchange_count(), 0u);
}

}  // namespace
}  // namespace nm::core
