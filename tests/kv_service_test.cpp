// KvService: open-loop load conservation, deterministic arrivals,
// settle-path bit-identity, and blackout-visible tail latency.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/service_episode.h"
#include "core/testbed.h"
#include "workloads/kv_service.h"

namespace nm {
namespace {

struct RunOutcome {
  std::uint64_t digest = 0;
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t misses = 0;
  std::int64_t final_ns = 0;
  std::int64_t episode_end_ns = 0;
  Duration blackout = Duration::zero();
  bool downtime_ok = false;
  workloads::PhaseSlo phases[vmm::kMigrationPhases];
};

constexpr int kServers = 2;
constexpr double kRate = 400.0;  // per fleet; 2 fleets
constexpr Duration kWindow = Duration::seconds(3);
constexpr Duration kMigrateAt = Duration::millis(500);

RunOutcome run_scenario(bool migrate, int fluid_shards = 1) {
  core::TestbedConfig config;
  config.fluid_shards = fluid_shards;
  core::Testbed testbed(config);

  workloads::KvServiceConfig svc;
  svc.replicas = 2;
  svc.zipf_s = 0.7;
  svc.service_core_seconds = 1.0e-3;
  svc.worker_threads = 4;
  svc.deadline = Duration::millis(15);
  svc.write_fraction = 0.25;
  svc.value_bytes = Bytes::kib(8);
  workloads::KvService service(testbed, svc);

  std::vector<std::shared_ptr<vmm::Vm>> vms;
  for (int i = 0; i < kServers; ++i) {
    vmm::VmSpec spec;
    spec.name = "kv" + std::to_string(i);
    spec.memory = Bytes::mib(192);
    spec.base_os_footprint = Bytes::mib(64);
    vms.push_back(testbed.boot_vm(testbed.eth_host(i), spec, /*with_hca=*/false));
    service.add_server(vms.back());
  }
  for (int i = 0; i < 2; ++i) {
    workloads::ClientFleetConfig fleet;
    fleet.name = "fleet" + std::to_string(i);
    fleet.rate_per_sec = kRate;
    fleet.window = kWindow;
    service.add_fleet(testbed.ib_host(i), fleet);
  }
  testbed.settle();

  core::ServiceEpisode episode(testbed.sim());
  if (migrate) {
    service.observe_migration(&episode.live());
  }
  service.start();
  if (migrate) {
    (void)episode.start(
        core::EpisodeSpec(vms[0], testbed.eth_host(kServers)).after(kMigrateAt));
  }

  const TimePoint end = testbed.sim().run_for(kWindow + Duration::seconds(20));

  RunOutcome out;
  out.digest = service.digest();
  out.generated = service.generated();
  out.completed = service.completed();
  out.in_flight = service.in_flight();
  out.misses = service.deadline_misses();
  out.final_ns = end.count_nanos();
  if (migrate && episode.done()) {
    const auto report = episode.report();
    out.episode_end_ns = report.end_at.count_nanos();
    out.blackout = report.blackout;
    out.downtime_ok = episode.downtime_within(
        testbed.eth_host(0).migration_engine().config().max_downtime);
  }
  for (int p = 0; p < vmm::kMigrationPhases; ++p) {
    out.phases[p] = service.phase(static_cast<vmm::MigrationPhase>(p));
  }
  return out;
}

TEST(KvService, OfferedLoadIsConserved) {
  const RunOutcome out = run_scenario(/*migrate=*/false);
  EXPECT_GT(out.generated, 0u);
  EXPECT_EQ(out.completed, out.generated);
  EXPECT_EQ(out.in_flight, 0u);
  // Poisson arrivals: 2 fleets x 400/s x 3s = 2400 expected; allow 6 sigma.
  EXPECT_NEAR(static_cast<double>(out.generated), 2400.0, 300.0);
  // No migration observed: every request classifies as steady.
  const auto& steady = out.phases[static_cast<int>(vmm::MigrationPhase::kSteady)];
  EXPECT_EQ(steady.requests, out.generated);
  EXPECT_EQ(steady.latency.count(), out.generated);
}

TEST(KvService, ArrivalsAreDeterministicAcrossReruns) {
  const RunOutcome a = run_scenario(/*migrate=*/false);
  const RunOutcome b = run_scenario(/*migrate=*/false);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.final_ns, b.final_ns);
}

// The name predates the removal of the solve worker threads.
TEST(KvService, TimelineBitIdenticalAcrossSolveWorkers) {
  // One shard settles through the scheduler's zero-delay post; a second
  // (empty) shard routes every settle through the SolvePool's
  // end-of-instant batch. This scenario replays identically on both paths.
  const RunOutcome base = run_scenario(/*migrate=*/true);
  ASSERT_GT(base.episode_end_ns, 0);
  const RunOutcome pooled = run_scenario(/*migrate=*/true, /*fluid_shards=*/2);
  EXPECT_EQ(pooled.digest, base.digest);
  EXPECT_EQ(pooled.generated, base.generated);
  EXPECT_EQ(pooled.misses, base.misses);
  EXPECT_EQ(pooled.final_ns, base.final_ns);
  EXPECT_EQ(pooled.episode_end_ns, base.episode_end_ns);
}

TEST(KvService, BlackoutInflatesTailOnMigratingServer) {
  const RunOutcome out = run_scenario(/*migrate=*/true);
  ASSERT_GT(out.episode_end_ns, 0) << "migration episode did not complete";
  EXPECT_EQ(out.completed, out.generated);
  EXPECT_TRUE(out.downtime_ok) << "blackout " << out.blackout << " exceeded max_downtime";
  EXPECT_GT(out.blackout, Duration::zero());

  const auto& steady = out.phases[static_cast<int>(vmm::MigrationPhase::kSteady)];
  const auto& blackout = out.phases[static_cast<int>(vmm::MigrationPhase::kBlackout)];
  ASSERT_GT(steady.requests, 0u);
  ASSERT_GT(blackout.requests, 0u) << "no request overlapped the stop-and-copy pause";
  // A request that overlaps the pause waits out the frozen guest, so the
  // blackout cohort's p99 must sit above steady-state p99.
  EXPECT_GE(blackout.latency.percentile(0.99), steady.latency.percentile(0.99));
  // And the pause itself is a lower bound on the worst blackout request.
  EXPECT_GE(blackout.latency.max(), out.blackout);
}

}  // namespace
}  // namespace nm
