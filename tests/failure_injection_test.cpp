// Failure injection: what happens when the world misbehaves mid-protocol.
// These pin down the library's error contract:
//   - modelled (in-world) failures surface as OperationError from the
//     operation that hit them;
//   - an episode that cannot proceed leaves the system inspectable (VMs
//     parked, not corrupted);
//   - API misuse surfaces as LogicError.
#include <gtest/gtest.h>

#include <memory>

#include "core/evacuation_driver.h"
#include "core/federation.h"
#include "core/job.h"
#include "core/ninja.h"
#include "core/testbed.h"
#include "mpi/cr.h"
#include "workloads/bcast_reduce.h"

namespace nm::core {
namespace {

JobConfig small_cfg(int vms, std::size_t rpv) {
  JobConfig cfg;
  cfg.vm_count = vms;
  cfg.ranks_per_vm = rpv;
  cfg.vm_template.memory = Bytes::gib(4);
  cfg.vm_template.base_os_footprint = Bytes::mib(512);
  return cfg;
}

std::shared_ptr<workloads::BcastReduceBench> start_workload(Testbed& tb, MpiJob& job,
                                                            int iters) {
  workloads::BcastReduceConfig wcfg;
  wcfg.per_node_bytes = Bytes::mib(256);
  wcfg.iterations = iters;
  auto bench = std::make_shared<workloads::BcastReduceBench>(job, wcfg);
  job.launch([bench](mpi::RankId me) -> sim::Task { co_await bench->run_rank(me); });
  (void)tb;
  return bench;
}

TEST(FailureInjection, UnknownDestinationHostAbortsEpisode) {
  Testbed tb;
  MpiJob job(tb, small_cfg(2, 1));
  job.init();
  auto bench = start_workload(tb, job, 30);

  MigrationPlan plan = job.scheduler().fallback_plan(job.vms(), 2, 1);
  plan.destinations = {"no-such-host", "eth1"};
  tb.sim().spawn([](MpiJob& j, std::shared_ptr<workloads::BcastReduceBench> b,
                    MigrationPlan p) -> sim::Task {
    co_await b->wait_step(2);
    co_await j.ninja().execute(std::move(p));
  }(job, bench, plan));
  // The failing agent's exception surfaces from the simulation run.
  EXPECT_THROW(tb.sim().run(), OperationError);
}

TEST(FailureInjection, MigrationToHostWithoutSharedStorageRefused) {
  // Hand-build a 17th host on separate storage: live migration must refuse.
  Testbed tb;
  vmm::SharedStorage other_storage(tb.domain(0).scheduler(), "other-site");
  hw::Cluster other_cluster("other");
  auto& node = other_cluster.add_node(tb.domain(0), [] {
    hw::NodeSpec spec;
    spec.name = "alien0";
    return spec;
  }());
  vmm::Host alien(tb.sim(), tb.net(), node, other_storage);
  net::NicPort alien_eth(node, "alien0:eth", Bandwidth::gbps(10));
  alien.connect_eth(tb.eth_fabric(), alien_eth);

  vmm::VmSpec spec;
  spec.name = "vm0";
  spec.memory = Bytes::gib(2);
  spec.base_os_footprint = Bytes::mib(256);
  auto vm = tb.boot_vm(tb.ib_host(0), spec, false);
  tb.settle();
  bool refused = false;
  std::string msg;
  tb.sim().spawn([](Testbed& t, vmm::Host& dst, vmm::Vm& v, bool& r,
                    std::string& m) -> sim::Task {
    try {
      co_await t.ib_host(0).migrate(v, dst);
    } catch (const OperationError& e) {
      r = true;
      m = e.what();
    }
  }(tb, alien, *vm, refused, msg));
  tb.sim().run();
  EXPECT_TRUE(refused);
  EXPECT_NE(msg.find("share storage"), std::string::npos);
  EXPECT_TRUE(tb.ib_host(0).resident(*vm));  // nothing moved
}

TEST(FailureInjection, SecondCheckpointRequestWhilePendingRejected) {
  Testbed tb;
  MpiJob job(tb, small_cfg(2, 1));
  job.init();
  (void)start_workload(tb, job, 30);
  (void)job.runtime().cr().request();
  EXPECT_THROW((void)job.runtime().cr().request(), LogicError);
}

TEST(FailureInjection, LinkThatNeverTrainsLeavesJobParkedNotCorrupted) {
  TestbedConfig tcfg;
  tcfg.ib.linkup_time = Duration::minutes(60 * 24);  // "broken" port
  Testbed tb(tcfg);
  // Job starts on the Ethernet cluster (no dependence on the broken IB
  // training at boot) and attempts a recovery migration to InfiniBand.
  JobConfig cfg = small_cfg(2, 1);
  cfg.on_ib_cluster = false;
  cfg.with_hca = false;
  MpiJob job(tb, cfg);
  job.init();
  auto bench = start_workload(tb, job, 30);
  tb.sim().spawn([](MpiJob& j, std::shared_ptr<workloads::BcastReduceBench> b) -> sim::Task {
    co_await b->wait_step(2);
    co_await j.recovery_migration(2);
  }(job, bench));
  tb.sim().run_for(Duration::minutes(30));
  // The guests sit in the continue callback waiting for a link that never
  // comes; no crash, no progress, state still inspectable.
  EXPECT_LT(bench->completed_steps(), 30);
  EXPECT_TRUE(tb.ib_host(0).resident(*job.vms()[0]));  // migration happened
  EXPECT_GT(tb.sim().live_task_count(), 0u);           // parked, not dead
}

TEST(FailureInjection, HcaStolenBeforeRecoveryAttachFailsLoudly) {
  // Another tenant grabs the destination HCA between planning and window C.
  Testbed tb;
  JobConfig cfg = small_cfg(2, 1);
  cfg.on_ib_cluster = false;
  cfg.with_hca = false;
  MpiJob job(tb, cfg);
  job.init();
  auto bench = start_workload(tb, job, 40);

  // The squatter VM takes ib0's HCA.
  vmm::VmSpec squatter_spec;
  squatter_spec.name = "squatter";
  squatter_spec.memory = Bytes::gib(2);
  squatter_spec.base_os_footprint = Bytes::mib(256);
  auto squatter = tb.boot_vm(tb.ib_host(0), squatter_spec, /*with_hca=*/true);

  tb.sim().spawn([](MpiJob& j, std::shared_ptr<workloads::BcastReduceBench> b) -> sim::Task {
    co_await b->wait_step(2);
    co_await j.recovery_migration(2);
  }(job, bench));
  EXPECT_THROW(tb.sim().run(), OperationError);
  EXPECT_FALSE(tb.ib_host(0).hca_available(Testbed::kHcaPciAddr));
}

// Property: a checkpoint requested at a random iteration boundary always
// completes, regardless of where in the collective the ranks are.
class RandomTriggerProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomTriggerProperty, EpisodeCompletesFromAnyTriggerPoint) {
  Testbed tb;
  MpiJob job(tb, small_cfg(4, 2));
  job.init();
  auto bench = start_workload(tb, job, 16);
  const int trigger_step = GetParam();
  NinjaStats stats;
  tb.sim().spawn([](MpiJob& j, std::shared_ptr<workloads::BcastReduceBench> b, int step,
                    NinjaStats& st) -> sim::Task {
    co_await b->wait_step(step);
    co_await j.fallback_migration(4, &st);
  }(job, bench, trigger_step, stats));
  tb.sim().run();
  EXPECT_EQ(bench->completed_steps(), 16);
  EXPECT_EQ(job.current_transport(), "tcp");
  EXPECT_GT(stats.total.to_seconds(), 0.0);
  EXPECT_EQ(job.runtime().unexpected_count(), 0u);
  EXPECT_EQ(job.runtime().in_flight(), 0u);
}

INSTANTIATE_TEST_SUITE_P(TriggerSteps, RandomTriggerProperty,
                         ::testing::Values(1, 2, 3, 5, 7, 9, 11, 13));

// --- WAN failures mid-protocol ----------------------------------------------

// Sites "a" and "b", two Ethernet hosts each, on one 1 Gbps edge.
FederationConfig eth_only_federation() {
  TestbedConfig site;
  site.ib_nodes = 0;
  site.eth_nodes = 2;
  FederationConfig cfg;
  cfg.sites = {{"a", site}, {"b", site}};
  cfg.edges = {{0, 1, {}}};
  return cfg;
}

// When Federation::settle() returns — WAN schedule phases that must land
// mid-migration are placed relative to this.
Duration settle_window(const FederationConfig& cfg) {
  const TestbedConfig& site = cfg.sites[0].testbed;
  return site.ib.linkup_time + site.hotplug.attach_ib + Duration::seconds(1.0);
}

TEST(FailureInjection, WanPartitionMidMigrationStallsThenCompletesOnHeal) {
  // The inter-datacenter link partitions (capacity factor 0) while a
  // cross-site pre-copy is in flight: the transfer must freeze — not
  // error — with MigrationStats still live for an `info migrate` reader,
  // and the same migration must complete once a later phase heals the
  // link.
  FederationConfig fcfg = eth_only_federation();
  const Duration t0 = settle_window(fcfg);
  fcfg.edges[0].wan.schedule = {{.at = t0 + Duration::seconds(7.0), .capacity_factor = 0.0},
                                {.at = t0 + Duration::seconds(37.0), .capacity_factor = 1.0}};
  Federation fed(fcfg);

  vmm::VmSpec spec;
  spec.name = "vm0";
  spec.memory = Bytes::gib(4);
  spec.base_os_footprint = Bytes::mib(512);
  auto vm = fed.site(0).boot_vm(fed.site(0).eth_host(0), spec, false);
  vm->memory().write_data(Bytes::zero(), Bytes::gib(2) + Bytes::mib(512));
  fed.settle();

  // ~3 GiB on the wire at 125 MB/s: round 1 is mid-flight at the +7 s cut
  // and cannot finish before the +37 s heal.
  vmm::MigrationStats stats;
  fed.sim().spawn([](Federation& f, vmm::Vm& v, vmm::MigrationStats& st) -> sim::Task {
    co_await f.site(0).eth_host(0).migrate(v, *f.find_host("b:eth0"), &st);
  }(fed, *vm, stats));

  bool checked_mid_partition = false;
  fed.sim().spawn([](Federation& f, vmm::Vm& v, vmm::MigrationStats& st,
                     bool& checked) -> sim::Task {
    co_await f.sim().delay(Duration::seconds(22.0));  // inside the partition
    EXPECT_NEAR(f.wan_link(0).current_factor(), 0.0, 1e-12);
    EXPECT_TRUE(st.in_progress);                     // stalled, not aborted
    EXPECT_TRUE(f.site(0).eth_host(0).resident(v));  // still on the source
    EXPECT_GE(st.wire_bytes, Bytes::mib(256));       // progress before cut
    EXPECT_EQ(st.pause_at, TimePoint::origin());     // not in stop-and-copy
    checked = true;
  }(fed, *vm, stats, checked_mid_partition));

  fed.sim().run();
  EXPECT_TRUE(checked_mid_partition);
  EXPECT_FALSE(stats.in_progress);
  EXPECT_TRUE(fed.find_host("b:eth0")->resident(*vm));
  EXPECT_FALSE(fed.site(0).eth_host(0).resident(*vm));
  // Finished only after the heal.
  EXPECT_GT(fed.sim().now().to_seconds(), (t0 + Duration::seconds(37.0)).to_seconds());
  EXPECT_EQ(fed.unconverged_exchange_count(), 0u);
}

TEST(FailureInjection, WanRttSpikeDuringMigrationKeepsDowntimeBounded) {
  // Cross-site cousin of Migration.SlowUplinkDowntimeStaysBounded: an RTT
  // spike mid-migration drops the Mathis-effective WAN rate to ~32 MB/s
  // while the thread could push 162.5 MB/s. The stop-and-copy estimate
  // reads the path rate through Fabric::path_rate — which folds the WAN's
  // *current* effective rate — so the loop pre-copies one more round
  // instead of entering the blackout with ~98 ms of dirty data against the
  // 30 ms cap. A model-blind estimate (line rate, 125 MB/s) would have
  // called 3 MiB converged at 24 ms and busted the cap.
  FederationConfig fcfg = eth_only_federation();
  const Duration t0 = settle_window(fcfg);
  sim::WanLinkConfig& wan = fcfg.edges[0].wan;
  wan.rtt = Duration::millis(10);
  wan.loss = 0.0001;
  // Same capacity factor; only the RTT moves (250 ms => Mathis ~32 MB/s).
  wan.schedule.push_back({.at = t0 + Duration::seconds(9.0), .capacity_factor = 1.0,
                          .rtt = Duration::millis(250)});
  Federation fed(fcfg);

  vmm::VmSpec spec;
  spec.name = "vm0";
  spec.memory = Bytes::gib(4);
  spec.base_os_footprint = Bytes::mib(512);
  auto vm = fed.site(0).boot_vm(fed.site(0).eth_host(0), spec, false);
  vm->memory().write_data(Bytes::zero(), Bytes::gib(2) + Bytes::mib(512));
  fed.settle();

  // One mid-round write after the spike: it becomes round 2's work, and
  // draining it at the spiked rate busts the cap unless the estimator sees
  // the spike.
  fed.sim().spawn([](Federation& f, vmm::Vm& v) -> sim::Task {
    co_await f.sim().delay(Duration::seconds(17.0));  // post-spike, round 1
    v.memory().write_data(Bytes::zero(), Bytes::mib(3));
  }(fed, *vm));

  vmm::MigrationStats stats;
  fed.sim().spawn([](Federation& f, vmm::Vm& v, vmm::MigrationStats& st) -> sim::Task {
    co_await f.site(0).eth_host(0).migrate(v, *f.find_host("b:eth0"), &st);
  }(fed, *vm, stats));
  fed.sim().run();

  EXPECT_EQ(stats.rounds, 2);
  EXPECT_LE(stats.downtime,
            fed.site(0).eth_host(0).migration_engine().config().max_downtime);
  EXPECT_TRUE(fed.find_host("b:eth0")->resident(*vm));
  EXPECT_FALSE(stats.in_progress);
  EXPECT_EQ(fed.unconverged_exchange_count(), 0u);
}

// --- Mesh failures mid-evacuation -------------------------------------------

FederationConfig evac_triangle() {
  FederationConfig cfg;
  FederationSiteConfig site;
  site.testbed.ib_nodes = 0;
  site.testbed.eth_nodes = 2;
  site.name = "a";
  cfg.sites.push_back(site);
  site.testbed.eth_nodes = 1;
  site.name = "b";
  cfg.sites.push_back(site);
  site.name = "c";
  cfg.sites.push_back(site);
  cfg.edges = {{0, 1, {}}, {0, 2, {}}, {1, 2, {}}};  // 1 Gbps, no impairments
  return cfg;
}

// Boots `per_host` VMs on each source host with ~0.6 GiB of wire payload.
std::vector<std::shared_ptr<vmm::Vm>> boot_evac_fleet(Federation& fed, int per_host) {
  std::vector<std::shared_ptr<vmm::Vm>> vms;
  for (int h = 0; h < fed.site(0).eth_host_count(); ++h) {
    for (int v = 0; v < per_host; ++v) {
      vmm::VmSpec spec;
      spec.name = "vm-" + std::to_string(h) + "-" + std::to_string(v);
      spec.memory = Bytes::gib(1);
      spec.base_os_footprint = Bytes::mib(128);
      auto vm = fed.site(0).boot_vm(fed.site(0).eth_host(h), spec, /*with_hca=*/false);
      vm->memory().write_data(Bytes::mib(128), Bytes::mib(512));
      vms.push_back(std::move(vm));
    }
  }
  fed.settle();
  return vms;
}

TEST(FailureInjection, MeshEdgePartitionMidEvacuationStallsWithoutDowntimeThenCompletes) {
  // Edge a-b is cut 2 s into the evacuation — while wave-1 pre-copies to
  // site b are mid-chunk — and heals at +200 s. The affected migrations
  // must freeze (pre-copy stall adds nothing to downtime: the VMs keep
  // running on the source), and the whole evacuation must finish after
  // the heal with every blackout still inside max_downtime.
  Federation fed(evac_triangle());
  auto vms = boot_evac_fleet(fed, 3);

  MassEvacuation evac(fed, {});
  EvacuationReport report;
  fed.sim().spawn(evac.run(&report), "evacuation");
  const Duration heal_after = Duration::seconds(200.0);
  fed.sim().spawn([](Federation& f, Duration heal) -> sim::Task {
    co_await f.sim().delay(Duration::seconds(2.0));
    f.wan_link(0).inject_phase(0.0);  // partition a-b mid-wave
    co_await f.sim().delay(heal - Duration::seconds(2.0));
    f.wan_link(0).inject_phase(1.0);
  }(fed, heal_after));

  const TimePoint t0 = fed.sim().now();
  fed.sim().run();

  EXPECT_EQ(report.evacuated, vms.size());
  // The stall happened: nothing could drain the frozen chunk before the
  // heal, so the evacuation outlives it.
  EXPECT_GT(report.makespan(), heal_after);
  // No spurious downtime from the stall — blackouts stay planned-size.
  const Duration bound = fed.site(0).eth_host(0).migration_engine().config().max_downtime;
  for (const VmOutcome& vm : report.vms) {
    EXPECT_LE(vm.downtime, bound) << vm.vm;
    EXPECT_GE(vm.done_ns, t0.count_nanos()) << vm.vm;
  }
  EXPECT_EQ(fed.unconverged_exchange_count(), 0u);
}

TEST(FailureInjection, PartitionedEdgeWithDetourReroutesEvacuationThroughThirdSite) {
  // Edge a-b dies before the first wave grants and never heals. The
  // drivers' grant-time recompute_routes must steer both the plan and the
  // fabric onto the a-c-b detour, so site b still absorbs VMs and the
  // evacuation completes while the direct edge is down.
  Federation fed(evac_triangle());
  auto vms = boot_evac_fleet(fed, 3);

  MassEvacuation evac(fed, {});
  EvacuationReport report;
  fed.sim().spawn([](Federation& f, MassEvacuation& e, EvacuationReport& r) -> sim::Task {
    f.wan_link(0).inject_phase(0.0);  // cut a-b before any grant
    co_await f.sim().delay(Duration::millis(10));
    co_await e.run(&r);
  }(fed, evac, report), "evacuation");
  fed.sim().run();

  EXPECT_EQ(report.evacuated, vms.size());
  // The mesh routes follow the detour...
  EXPECT_EQ(fed.route(0, 1).size(), 2u);
  EXPECT_TRUE(fed.wan_link(0).partitioned());
  // ...and it was actually used: site b received VMs over it.
  int landed_on_b = 0;
  for (const VmOutcome& vm : report.vms) {
    landed_on_b += vm.dst_host.rfind("b:", 0) == 0 ? 1 : 0;
  }
  EXPECT_GT(landed_on_b, 0);
  const Duration bound = fed.site(0).eth_host(0).migration_engine().config().max_downtime;
  for (const VmOutcome& vm : report.vms) {
    EXPECT_LE(vm.downtime, bound) << vm.vm;
  }
  EXPECT_EQ(fed.unconverged_exchange_count(), 0u);
}

TEST(FailureInjection, PartitionedOnlyEdgeDefersEvacuationUntilHeal) {
  // Two sites share one edge, cut before the first wave grants and healed
  // at +60 s. With no detour, recompute_routes() keeps the dead route, so
  // every VM is deferred and re-planned on the retry poll, and the fleet
  // drains only after the heal.
  Federation fed(eth_only_federation());
  auto vms = boot_evac_fleet(fed, 3);

  MassEvacuation evac(fed, {});
  EvacuationReport report;
  fed.sim().spawn([](Federation& f, MassEvacuation& e, EvacuationReport& r) -> sim::Task {
    f.wan_link(0).inject_phase(0.0);  // cut a-b before any grant
    co_await f.sim().delay(Duration::millis(10));
    co_await e.run(&r);
  }(fed, evac, report), "evacuation");
  const TimePoint heal_at = fed.sim().now() + Duration::seconds(60.0);
  bool checked_mid_partition = false;
  fed.sim().spawn([](Federation& f, TimePoint heal, bool& checked) -> sim::Task {
    co_await f.sim().delay(Duration::seconds(30.0));
    f.recompute_routes();
    EXPECT_EQ(f.route(0, 1), std::vector<std::size_t>{0});  // dead, but the only one
    EXPECT_EQ(f.route(1, 0), std::vector<std::size_t>{0});
    checked = true;
    co_await f.sim().delay(heal - f.sim().now());
    f.wan_link(0).inject_phase(1.0);
  }(fed, heal_at, checked_mid_partition));
  fed.sim().run();

  EXPECT_TRUE(checked_mid_partition);
  EXPECT_EQ(report.evacuated, vms.size());
  // One re-plan placed the fleet after the heal; the polls before it
  // placed nothing.
  EXPECT_EQ(report.replans, 1);
  const Duration bound = fed.site(0).eth_host(0).migration_engine().config().max_downtime;
  for (const VmOutcome& vm : report.vms) {
    EXPECT_GT(vm.deferrals, 0) << vm.vm;
    EXPECT_GT(vm.start_ns, heal_at.count_nanos()) << vm.vm;
    EXPECT_LE(vm.downtime, bound) << vm.vm;
  }
  EXPECT_EQ(fed.unconverged_exchange_count(), 0u);
}

// --- Intra-site fabric failures mid-evacuation ------------------------------

// Triangle mesh whose source site sits behind a 2-leaf Clos fabric. The
// leaf tier is non-blocking (oversubscription 1) so the 1 Gbps WAN edges
// stay the planned bottleneck and dead-link behaviour is isolated from
// rate effects.
FederationConfig clos_triangle(int spines) {
  FederationConfig cfg;
  FederationSiteConfig site;
  site.testbed.ib_nodes = 0;
  site.testbed.eth_nodes = 4;
  site.testbed.clos.leaves = 2;
  site.testbed.clos.spines = spines;
  site.testbed.clos.hosts_per_leaf = 2;
  site.testbed.clos.oversubscription = 1.0;
  site.name = "a";
  cfg.sites.push_back(site);
  site.testbed.eth_nodes = 2;
  site.testbed.clos = {};
  site.name = "b";
  cfg.sites.push_back(site);
  site.name = "c";
  cfg.sites.push_back(site);
  cfg.edges = {{0, 1, {}}, {0, 2, {}}, {1, 2, {}}};
  return cfg;
}

TEST(FailureInjection, ClosUplinkCutMidEvacuationStallsWithoutDowntimeThenCompletes) {
  // The single uplink of source leaf 0 dies 2 s into the evacuation —
  // pre-copies out of that rack freeze in place (capacity 0), the VMs
  // keep running, and everything drains after the +200 s heal with every
  // blackout still inside max_downtime.
  Federation fed(clos_triangle(/*spines=*/1));
  auto vms = boot_evac_fleet(fed, 2);

  MassEvacuation evac(fed, {});
  EvacuationReport report;
  fed.sim().spawn(evac.run(&report), "evacuation");
  const Duration heal_after = Duration::seconds(200.0);
  fed.sim().spawn([](Federation& f, Duration heal) -> sim::Task {
    net::ClosFabric& clos = *f.site(0).clos();
    co_await f.sim().delay(Duration::seconds(2.0));
    clos.set_link_factor(clos.uplink_index(0, 0), 0.0);
    co_await f.sim().delay(heal - Duration::seconds(2.0));
    clos.set_link_factor(clos.uplink_index(0, 0), 1.0);
  }(fed, heal_after));

  fed.sim().run();

  EXPECT_EQ(report.evacuated, vms.size());
  // Rack 0's migrations could not finish while its only uplink was dead,
  // so the evacuation outlives the heal.
  EXPECT_GT(report.makespan(), heal_after);
  const Duration bound = fed.site(0).eth_host(0).migration_engine().config().max_downtime;
  for (const VmOutcome& vm : report.vms) {
    EXPECT_LE(vm.downtime, bound) << vm.vm;
  }
  EXPECT_FALSE(fed.site(0).clos()->has_dead_link());
  EXPECT_EQ(fed.unconverged_exchange_count(), 0u);
}

TEST(FailureInjection, ClosSpineLinkCutWithEcmpAlternativeCompletesWithoutHeal) {
  // Two spines, one uplink of leaf 0 dead before the first grant and never
  // healed: the deterministic ECMP pick filters the dead candidate, leaf
  // capacity stays positive, and the evacuation must complete while the
  // link is still down — no stall, no deferral.
  Federation fed(clos_triangle(/*spines=*/2));
  auto vms = boot_evac_fleet(fed, 2);
  net::ClosFabric& clos = *fed.site(0).clos();
  clos.set_link_factor(clos.uplink_index(0, 1), 0.0);

  MassEvacuation evac(fed, {});
  EvacuationReport report;
  fed.sim().spawn(evac.run(&report), "evacuation");
  fed.sim().run();

  EXPECT_EQ(report.evacuated, vms.size());
  EXPECT_TRUE(clos.has_dead_link());  // never healed
  const Duration bound = fed.site(0).eth_host(0).migration_engine().config().max_downtime;
  for (const VmOutcome& vm : report.vms) {
    EXPECT_LE(vm.downtime, bound) << vm.vm;
  }
  EXPECT_EQ(fed.unconverged_exchange_count(), 0u);
}

TEST(FailureInjection, ClosDeadSourceLeafAtPlanTimeDefersThenDrainsAfterHeal) {
  // Rack 0's only uplink is already dead when the evacuation plans: the
  // planner sees a zero-capacity source leaf, so its VMs are deferred
  // while rack 1 evacuates. After the +120 s heal the driver replans and
  // drains the deferred rack; nothing is lost and no blackout grows.
  Federation fed(clos_triangle(/*spines=*/1));
  auto vms = boot_evac_fleet(fed, 2);
  net::ClosFabric& clos = *fed.site(0).clos();
  clos.set_link_factor(clos.uplink_index(0, 0), 0.0);

  MassEvacuation evac(fed, {});
  EvacuationReport report;
  fed.sim().spawn(evac.run(&report), "evacuation");
  const Duration heal_after = Duration::seconds(120.0);
  fed.sim().spawn([](Federation& f, net::ClosFabric& c, Duration heal) -> sim::Task {
    co_await f.sim().delay(heal);
    c.set_link_factor(c.uplink_index(0, 0), 1.0);
  }(fed, clos, heal_after));
  fed.sim().run();

  EXPECT_EQ(report.evacuated, vms.size());
  EXPECT_GT(report.makespan(), heal_after);
  const Duration bound = fed.site(0).eth_host(0).migration_engine().config().max_downtime;
  for (const VmOutcome& vm : report.vms) {
    EXPECT_LE(vm.downtime, bound) << vm.vm;
  }
  EXPECT_EQ(fed.unconverged_exchange_count(), 0u);
}

}  // namespace
}  // namespace nm::core
