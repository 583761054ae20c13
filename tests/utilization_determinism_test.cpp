// Tests for resource-utilization accounting (the paper's §V observation
// that migration saturates exactly one core), the extension NPB kernels,
// and bit-level determinism of full scenarios.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/job.h"
#include "core/testbed.h"
#include "scenarios/evacuation.h"
#include "scenarios/paper.h"
#include "scenarios/pins.h"
#include "sim/fluid.h"
#include "workloads/bcast_reduce.h"
#include "workloads/npb.h"

namespace nm::core {
namespace {

TEST(Utilization, FluidResourceIntegratesConsumption) {
  sim::Simulation sim;
  sim::FluidScheduler sched(sim);
  sim::FluidResource cpu("cpu", 8.0);
  // One 1-core job for 4 seconds: 4 core-seconds consumed, 12.5% mean util.
  auto flow = sched.start(sim::FlowSpec{.work = 4.0, .max_rate = 1.0}.over(cpu));
  sim.run();
  EXPECT_TRUE(flow->finished());
  EXPECT_NEAR(cpu.consumed(), 4.0, 1e-6);
  EXPECT_NEAR(cpu.utilization_over(0.0, Duration::seconds(4.0)), 0.125, 1e-6);
}

TEST(Utilization, MigrationSaturatesAboutOneCore) {
  // Paper §V: "During the migration, the utilization of one CPU core is
  // saturated at 100 %." Measure the source node's CPU over the migration
  // of an idle VM full of incompressible data.
  Testbed tb;
  vmm::VmSpec spec;
  spec.name = "vm0";
  spec.memory = Bytes::gib(4);
  spec.base_os_footprint = Bytes::zero();
  auto vm = tb.boot_vm(tb.ib_host(0), spec, false);
  vm->memory().write_data(Bytes::zero(), Bytes::gib(3));
  tb.settle();

  auto& cpu = tb.ib_host(0).node().cpu();
  const double consumed_before = cpu.consumed();
  vmm::MigrationStats stats;
  tb.sim().spawn([](Testbed& t, vmm::Vm& v, vmm::MigrationStats& st) -> sim::Task {
    co_await t.ib_host(0).migrate(v, t.eth_host(0), &st);
  }(tb, *vm, stats));
  tb.sim().run();

  // scan + send are sequential phases of one thread: the whole migration
  // keeps ~1 of the 8 cores busy (i.e. ~12.5 % node utilization).
  const double cores_busy =
      (cpu.consumed() - consumed_before) / stats.total.to_seconds();
  EXPECT_GT(cores_busy, 0.85);
  EXPECT_LT(cores_busy, 1.15);
}

TEST(Utilization, RdmaMigrationUsesFarLessCpu) {
  double tcp_cores = 0;
  double rdma_cores = 0;
  for (const bool rdma : {false, true}) {
    TestbedConfig tcfg;
    tcfg.migration.use_rdma = rdma;
    Testbed tb(tcfg);
    vmm::VmSpec spec;
    spec.name = "vm0";
    spec.memory = Bytes::gib(4);
    spec.base_os_footprint = Bytes::zero();
    auto vm = tb.boot_vm(tb.ib_host(0), spec, false);
    vm->memory().write_data(Bytes::zero(), Bytes::gib(3));
    tb.settle();
    auto& cpu = tb.ib_host(0).node().cpu();
    const double before = cpu.consumed();
    vmm::MigrationStats stats;
    tb.sim().spawn([](Testbed& t, vmm::Vm& v, vmm::MigrationStats& st) -> sim::Task {
      co_await t.ib_host(0).migrate(v, t.eth_host(0), &st);
    }(tb, *vm, stats));
    tb.sim().run();
    (rdma ? rdma_cores : tcp_cores) = cpu.consumed() - before;
  }
  // RDMA still pays the page scan, but not the per-byte TCP send cost.
  EXPECT_LT(rdma_cores, tcp_cores * 0.55);
}

TEST(NpbExtended, EpMgIsKernelsComplete) {
  for (const auto& base : {workloads::npb_ep_class_d(), workloads::npb_mg_class_d(),
                           workloads::npb_is_class_d()}) {
    workloads::NpbSpec spec = base;
    spec.iterations = 2;
    spec.compute_per_iter = 0.2;
    spec.footprint_per_vm = Bytes::gib(1);
    Testbed tb;
    JobConfig cfg;
    cfg.vm_count = 4;
    cfg.ranks_per_vm = 2;
    cfg.vm_template.memory = Bytes::gib(4);
    cfg.vm_template.base_os_footprint = Bytes::mib(512);
    MpiJob job(tb, cfg);
    job.init();
    workloads::NpbResult r0;
    job.launch([&job, spec, &r0](mpi::RankId me) -> sim::Task {
      co_await workloads::run_npb_rank(job, me, spec, me == 0 ? &r0 : nullptr);
    });
    tb.sim().run();
    EXPECT_EQ(r0.iterations_done, 2) << spec.name;
    EXPECT_EQ(job.runtime().unexpected_count(), 0u) << spec.name;
  }
  EXPECT_EQ(workloads::npb_extended_suite().size(), 7u);
}

std::vector<double> run_deterministic_scenario() {
  Testbed tb;
  JobConfig cfg;
  cfg.vm_count = 4;
  cfg.ranks_per_vm = 2;
  cfg.vm_template.memory = Bytes::gib(4);
  cfg.vm_template.base_os_footprint = Bytes::mib(512);
  MpiJob job(tb, cfg);
  job.init();
  workloads::BcastReduceConfig wcfg;
  wcfg.per_node_bytes = Bytes::mib(512);
  wcfg.iterations = 12;
  auto bench = std::make_shared<workloads::BcastReduceBench>(job, wcfg);
  job.launch([bench](mpi::RankId me) -> sim::Task { co_await bench->run_rank(me); });
  tb.sim().spawn([](MpiJob& j, std::shared_ptr<workloads::BcastReduceBench> b) -> sim::Task {
    co_await b->wait_step(3);
    co_await j.fallback_migration(4);
  }(job, bench));
  tb.sim().run();
  return bench->iteration_seconds();
}

TEST(Determinism, IdenticalRunsProduceIdenticalTimings) {
  // The whole point of the DES substrate: two runs of the same scenario
  // are *bit-identical*, down to every iteration time.
  const auto run1 = run_deterministic_scenario();
  const auto run2 = run_deterministic_scenario();
  ASSERT_EQ(run1.size(), run2.size());
  for (std::size_t i = 0; i < run1.size(); ++i) {
    EXPECT_EQ(run1[i], run2[i]) << "iteration " << i;  // exact, not NEAR
  }
}

TEST(Utilization, ConsumedReadsDoNotPerturbTimeline) {
  // consumed() is a pure O(1) read: it extrapolates over the constant-rate
  // window since the last solve without settling or integrating anything.
  // Interleaving aggressive reads at arbitrary instants therefore must not
  // move a single event — the timeline stays bit-identical to an unread run.
  auto run_scenario = [](bool sample_reads, double* final_consumed) {
    Testbed tb;
    JobConfig cfg;
    cfg.vm_count = 4;
    cfg.ranks_per_vm = 2;
    cfg.vm_template.memory = Bytes::gib(4);
    cfg.vm_template.base_os_footprint = Bytes::mib(512);
    MpiJob job(tb, cfg);
    job.init();
    workloads::BcastReduceConfig wcfg;
    wcfg.per_node_bytes = Bytes::mib(512);
    wcfg.iterations = 12;
    auto bench = std::make_shared<workloads::BcastReduceBench>(job, wcfg);
    job.launch([bench](mpi::RankId me) -> sim::Task { co_await bench->run_rank(me); });
    tb.sim().spawn([](MpiJob& j, std::shared_ptr<workloads::BcastReduceBench> b) -> sim::Task {
      co_await b->wait_step(3);
      co_await j.fallback_migration(4);
    }(job, bench));
    if (sample_reads) {
      double sink = 0.0;
      for (int k = 1; k <= 400; ++k) {
        tb.sim().run_until(TimePoint::origin() + Duration::millis(250 * k));
        for (int h = 0; h < 4; ++h) {
          sink += tb.ib_host(h).node().cpu().consumed();
          sink += tb.ib_host(h).eth_uplink().tx().consumed();
        }
      }
      EXPECT_GT(sink, 0.0);
    }
    tb.sim().run();
    *final_consumed = tb.ib_host(0).node().cpu().consumed();
    return bench->iteration_seconds();
  };

  double consumed_unread = 0.0;
  double consumed_sampled = 0.0;
  const auto unread = run_scenario(false, &consumed_unread);
  const auto sampled = run_scenario(true, &consumed_sampled);
  ASSERT_EQ(unread.size(), sampled.size());
  for (std::size_t i = 0; i < unread.size(); ++i) {
    EXPECT_EQ(unread[i], sampled[i]) << "iteration " << i;  // exact
  }
  EXPECT_EQ(consumed_unread, consumed_sampled);  // bit-equal accounting
}

// --- Bit-identity digests pinned against the seed ----------------------------
// These run the catalogue's paper scenarios (the ones bench_table2_hotplug,
// bench_fig6_memtest and bench_fig7_npb print) and the planner mode of
// examples/mass_evacuation, and compare their outputs with bench/pins.json
// to the exact nanosecond. Any change that moves them by even a bit —
// event reordering, float summation order, timer jitter — fails here inside
// ctest, without running the bench binaries.

std::int64_t pinned(const std::string& key) { return scenarios::pin<std::int64_t>(NM_PINS, key); }

TEST(Determinism, Table2HotplugDigestPinnedToSeed) {
  struct Case {
    bool src_ib, dst_ib;
    const char* key;
  };
  const Case cases[] = {
      {true, true, "table2.ib_ib"},
      {true, false, "table2.ib_eth"},
      {false, true, "table2.eth_ib"},
      {false, false, "table2.eth_eth"},
  };
  for (const auto& c : cases) {
    scenarios::PaperRun run(scenarios::Table2{c.src_ib, c.dst_ib});
    run.testbed().sim().run_for(Duration::minutes(5));
    const std::string key = c.key;
    EXPECT_EQ(run.hotplug().count_nanos(), pinned(key + ".hotplug_ns"))
        << "Table II hotplug drifted from the seed: " << key;
    EXPECT_EQ(run.linkup().count_nanos(), pinned(key + ".linkup_ns"))
        << "Table II link-up drifted from the seed: " << key;
  }
}

TEST(Determinism, Fig6MemtestDigestPinnedToSeed) {
  // Migration is dominated by traversing all 20 GiB of (compressible)
  // guest memory, so the digest is identical across array sizes — itself a
  // pinned property of the model.
  for (const int gib : {2, 16}) {
    scenarios::PaperRun run(scenarios::Fig6{Bytes::gib(gib)});
    run.testbed().sim().run_for(Duration::minutes(10));
    const std::string key = "fig6." + std::to_string(gib) + "gib";
    EXPECT_EQ(run.ninja().migration.count_nanos(), pinned(key + ".migration_ns"))
        << "Fig 6 migration drifted from the seed: " << key;
    EXPECT_EQ(run.hotplug().count_nanos(), pinned(key + ".hotplug_ns"))
        << "Fig 6 hotplug drifted from the seed: " << key;
    EXPECT_EQ(run.linkup().count_nanos(), pinned(key + ".linkup_ns"))
        << "Fig 6 link-up drifted from the seed: " << key;
  }
}

// bench_fig7_npb's "proposed" run, to quiescence. The bench prints two
// decimals; this pins rank 0's elapsed time and the Ninja episode total to
// the nanosecond, at the values perfbench's npb_ninja_episode workload
// checks at seed 1.
TEST(Determinism, Fig7NpbPinnedToSeed) {
  for (const workloads::NpbSpec& spec : workloads::npb_class_d_suite()) {
    scenarios::PaperRun run(scenarios::Fig7{spec, /*with_migration=*/true});
    run.testbed().sim().run();
    const std::string key = "npb.seed1." + spec.name;
    EXPECT_EQ(run.npb().elapsed.count_nanos(), pinned(key + ".elapsed_ns"))
        << "Fig 7 rank-0 elapsed drifted from the seed: " << spec.name;
    EXPECT_EQ(run.ninja().total.count_nanos(), pinned(key + ".episode_ns"))
        << "Fig 7 Ninja total drifted from the seed: " << spec.name;
  }
}

// examples/mass_evacuation's planner mode: 1000 VMs off dc0 of the metro
// mesh, every VM dirtying its hot regions. Federation seed, stagger and
// hot-region rotation are those of perfbench's mesh_evacuation at seed 1.
TEST(Determinism, MeshEvacuationPinnedToSeed) {
  Federation fed(scenarios::metro_mesh(50, 16));
  scenarios::Drain drain(fed,
                         {.vms_per_host = 20,
                          .memory = Bytes::gib(2),
                          .data = Bytes::mib(256),
                          .hot_regions = true},
                         EvacuationConfig{});
  fed.sim().run();
  const EvacuationReport& report = drain.report();
  ASSERT_TRUE(drain.done());
  EXPECT_EQ(static_cast<std::int64_t>(report.evacuated), pinned("evac.seed1.evacuated"));
  EXPECT_EQ(report.waves, pinned("evac.seed1.waves"));
  EXPECT_EQ(report.makespan().count_nanos(), pinned("evac.seed1.makespan_ns"));
  EXPECT_EQ(drain.counters().at("net.unconverged"), 0u);
}

}  // namespace
}  // namespace nm::core
