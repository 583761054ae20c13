// KvService: open-loop load conservation, deterministic arrivals,
// settle-path bit-identity, and blackout-visible tail latency.
#include <gtest/gtest.h>

#include <cstdint>

#include "scenarios/kv.h"

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

RunOutcome run_scenario(bool migrate, int fluid_shards = 1) {
  scenarios::KvScenario kv({.servers = 2,
                            .profile = scenarios::KvProfile::kLight,
                            .rate_per_fleet = 400.0,
                            .window = Duration::seconds(3),
                            .migrate_at = Duration::millis(500),
                            .fluid_shards = fluid_shards});
  if (migrate) {
    kv.start(kv.episode_spec());
  } else {
    kv.service().start();
  }
  const TimePoint end = kv.testbed().sim().run_for(Duration::seconds(23));

  const workloads::KvService& service = kv.service();
  RunOutcome out;
  out.digest = service.digest();
  out.generated = service.generated();
  out.completed = service.completed();
  out.in_flight = service.in_flight();
  out.misses = service.deadline_misses();
  out.final_ns = end.count_nanos();
  if (migrate && kv.episode().done()) {
    const auto report = kv.episode().report();
    out.episode_end_ns = report.end_at.count_nanos();
    out.blackout = report.blackout;
    out.downtime_ok = kv.downtime_ok();
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
