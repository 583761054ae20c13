// policy:: — the decision-plug-in framework's guarantees:
//   * StaticPolicy is bit-identical to the pre-refactor hardcoded behavior
//     (pinned against golden digests captured before the policy hooks
//     landed — same scenario, old ServiceEpisode::start signature).
//   * Every shipped policy's timeline is pinned by value (decisions fire at
//     clocked instants, so a run reproduces to the nanosecond).
//   * SloThrottlePolicy keeps the downtime promise while not worsening the
//     pre-copy tail under heavy load.
//   * ServiceEpisode objects are reusable after done() and fail loudly on
//     a mid-flight double start.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/service_episode.h"
#include "core/testbed.h"
#include "policy/policies.h"
#include "scenarios/kv.h"
#include "scenarios/pins.h"
#include "util/error.h"

namespace nm {
namespace {

// ---------------------------------------------------------------------------
// Unit tests: pure decide() calls, no simulation.
// ---------------------------------------------------------------------------

TEST(PolicyUnit, StaticPolicyReturnsTheDefaultActionEverywhere) {
  policy::StaticPolicy p;
  policy::Observation obs;
  for (int h = 0; h < policy::kHooks; ++h) {
    const policy::Action a = p.decide(static_cast<policy::Hook>(h), obs);
    EXPECT_FALSE(a.defer);
    EXPECT_TRUE(a.assignment.empty());
    EXPECT_TRUE(std::isinf(a.bandwidth_cap));
    EXPECT_FALSE(a.force_stop_and_copy);
    EXPECT_FALSE(a.defer_pause);
    EXPECT_FALSE(a.reject);
  }
}

TEST(PolicyUnit, ResolveAssignmentExpandsLegacyRoundRobinWhenEmpty) {
  const std::vector<int> resolved =
      policy::resolve_assignment(policy::Action{}, /*vm_count=*/5,
                                 /*candidate_count=*/2, "test");
  ASSERT_EQ(resolved.size(), 5u);
  for (std::size_t i = 0; i < resolved.size(); ++i) {
    EXPECT_EQ(resolved[i], static_cast<int>(i % 2));
  }
}

TEST(PolicyUnit, ResolveAssignmentRejectsMalformedAssignments) {
  policy::Action wrong_size;
  wrong_size.assignment = {0, 1};
  EXPECT_THROW((void)policy::resolve_assignment(wrong_size, 3, 2, "test"), LogicError);
  policy::Action out_of_range;
  out_of_range.assignment = {0, 2};
  EXPECT_THROW((void)policy::resolve_assignment(out_of_range, 2, 2, "test"), LogicError);
}

TEST(PolicyUnit, DestinationSwapBalancesLoadAndMaximizesRetention) {
  policy::DestinationSwapPolicy p;
  policy::Observation obs;
  obs.vm_count = 4;
  // Candidate 0 already carries 4 residents; 1 and 2 are empty.
  obs.candidates.push_back({.name = "a", .resident_vms = 4, .free_slots = -1});
  obs.candidates.push_back({.name = "b", .resident_vms = 0, .free_slots = -1});
  obs.candidates.push_back({.name = "c", .resident_vms = 0, .free_slots = -1});
  const policy::Action a = p.decide(policy::Hook::kEpisodeStart, obs);
  ASSERT_EQ(a.assignment.size(), 4u);
  // Balanced counts: the 4 incoming VMs split 0/2/2 (loads end 4/2/2), and
  // retention keeps VMs 1 and 2 on their legacy picks (1 and 2).
  int counts[3] = {0, 0, 0};
  for (const int c : a.assignment) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 3);
    ++counts[c];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 2);
  EXPECT_EQ(a.assignment[1], 1);  // legacy 1 % 3 == 1, retained
  EXPECT_EQ(a.assignment[2], 2);  // legacy 2 % 3 == 2, retained
}

TEST(PolicyUnit, DestinationSwapRespectsTrackedCapacity) {
  policy::DestinationSwapPolicy p;
  policy::Observation obs;
  obs.vm_count = 3;
  obs.candidates.push_back({.name = "a", .resident_vms = 0, .free_slots = 1});
  obs.candidates.push_back({.name = "b", .resident_vms = 0, .free_slots = 2});
  const policy::Action a = p.decide(policy::Hook::kWaveGrant, obs);
  ASSERT_EQ(a.assignment.size(), 3u);
  int counts[2] = {0, 0};
  for (const int c : a.assignment) {
    ++counts[c];
  }
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
  // Nowhere with capacity -> defers to the legacy path instead of failing.
  obs.vm_count = 4;
  EXPECT_TRUE(p.decide(policy::Hook::kWaveGrant, obs).assignment.empty());
}

TEST(PolicyUnit, QuietPauseDefersUntilQuietOrBudgetExhausted) {
  policy::QuietPauseConfig cfg;
  cfg.quiet_in_flight = 0;
  cfg.max_extra_rounds = 2;
  policy::QuietPausePolicy p(cfg);
  vmm::MigrationStats live;
  live.start_at = TimePoint::origin() + Duration::seconds(1);
  policy::Observation obs;
  obs.migration = &live;
  obs.slo.valid = true;
  obs.slo.in_flight = 3;
  // Busy: defers twice, then the budget runs out.
  EXPECT_TRUE(p.decide(policy::Hook::kPauseDecision, obs).defer_pause);
  EXPECT_TRUE(p.decide(policy::Hook::kPauseDecision, obs).defer_pause);
  EXPECT_FALSE(p.decide(policy::Hook::kPauseDecision, obs).defer_pause);
  // A new episode (new start instant) resets the budget; a quiet instant
  // pauses immediately.
  live.start_at = live.start_at + Duration::seconds(5);
  obs.slo.in_flight = 0;
  EXPECT_FALSE(p.decide(policy::Hook::kPauseDecision, obs).defer_pause);
  obs.slo.in_flight = 1;
  EXPECT_TRUE(p.decide(policy::Hook::kPauseDecision, obs).defer_pause);
}

TEST(PolicyUnit, PolicySetRoutesPerHookAndDescribes) {
  policy::PolicySet set;
  EXPECT_EQ(set.at(policy::Hook::kEpisodeStart).name(), "static");
  set.use(policy::Hook::kPreCopyRound, std::make_shared<policy::SloThrottlePolicy>());
  EXPECT_EQ(set.at(policy::Hook::kPreCopyRound).name(), "slo-throttle");
  EXPECT_EQ(set.at(policy::Hook::kPauseDecision).name(), "static");
  EXPECT_NE(set.describe().find("slo-throttle"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Scenario harness: the pre-refactor golden-probe scenario, run through the
// new EpisodeSpec API under each shipped policy.
// ---------------------------------------------------------------------------

enum class Variant {
  kDefault,        // PolicySet{} (implicit static)
  kStatic,         // explicit StaticPolicy at every hook
  kSloThrottle,    // SloThrottlePolicy at kPreCopyRound
  kQuietPause,     // QuietPausePolicy at kPauseDecision
  kDestSwap,       // DestinationSwapPolicy at kEpisodeStart (+ alternate)
  kBlackoutShed,   // BlackoutShedPolicy at kAdmission (service-side)
};

struct RunOutcome {
  std::uint64_t digest = 0;
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t misses = 0;
  std::int64_t episode_end_ns = 0;
  std::int64_t blackout_ns = 0;
  std::int64_t precopy_ns = 0;
};

RunOutcome run_scenario(Variant variant) {
  scenarios::KvScenario kv({.servers = 2,
                            .profile = scenarios::KvProfile::kLight,
                            .rate_per_fleet = 500.0,
                            .window = Duration::seconds(2),
                            .migrate_at = Duration::millis(300)});
  const std::uint64_t seed = kv.testbed().config().seed;
  core::EpisodeSpec spec = kv.episode_spec();
  policy::PolicySet policies;
  switch (variant) {
    case Variant::kStatic:
      policies.use(std::make_shared<policy::StaticPolicy>());
      break;
    case Variant::kSloThrottle:
      policies.use(policy::Hook::kPreCopyRound,
                   std::make_shared<policy::SloThrottlePolicy>());
      break;
    case Variant::kQuietPause:
      policies.use(policy::Hook::kPauseDecision,
                   std::make_shared<policy::QuietPausePolicy>());
      break;
    case Variant::kDestSwap:
      spec.or_to(kv.testbed().eth_host(3));
      policies.use(policy::Hook::kEpisodeStart,
                   std::make_shared<policy::DestinationSwapPolicy>());
      break;
    case Variant::kBlackoutShed: {
      policy::PolicySet admission;
      admission.use(policy::Hook::kAdmission,
                    std::make_shared<policy::BlackoutShedPolicy>());
      kv.service().set_admission(std::move(admission), seed);
      break;
    }
    default:
      break;
  }
  spec.with(std::move(policies), seed);
  kv.start(std::move(spec));

  kv.testbed().sim().run_for(Duration::seconds(20));

  const workloads::KvService& service = kv.service();
  RunOutcome out;
  out.digest = service.digest();
  out.generated = service.generated();
  out.completed = service.completed();
  out.rejected = service.rejected();
  out.misses = service.deadline_misses();
  if (kv.episode().done()) {
    const auto report = kv.episode().report();
    out.episode_end_ns = report.end_at.count_nanos();
    out.blackout_ns = report.blackout.count_nanos();
    out.precopy_ns = report.precopy.count_nanos();
  }
  return out;
}

// Captured with the pre-refactor ServiceEpisode::start(vm, dst, delay) on
// the commit before the policy framework landed; pinned in bench/pins.json.
template <class T>
T golden(const std::string& output) {
  return scenarios::pin<T>(NM_PINS, "policy_golden." + output);
}

void expect_golden(const RunOutcome& out, const std::string& label) {
  EXPECT_EQ(out.digest, golden<std::uint64_t>("digest")) << label;
  EXPECT_EQ(out.episode_end_ns, golden<std::int64_t>("episode_end_ns")) << label;
  EXPECT_EQ(out.generated, golden<std::uint64_t>("generated")) << label;
  EXPECT_EQ(out.misses, golden<std::uint64_t>("misses")) << label;
  EXPECT_EQ(out.blackout_ns, golden<std::int64_t>("blackout_ns")) << label;
  EXPECT_EQ(out.precopy_ns, golden<std::int64_t>("precopy_ns")) << label;
}

TEST(PolicyGolden, DefaultPolicySetReproducesPreRefactorTimeline) {
  expect_golden(run_scenario(Variant::kDefault), "default PolicySet");
}

TEST(PolicyGolden, ExplicitStaticPolicyReproducesPreRefactorTimeline) {
  expect_golden(run_scenario(Variant::kStatic), "explicit StaticPolicy");
}

class PolicyDeterminism : public ::testing::TestWithParam<Variant> {};

// The name predates the removal of the solve worker threads. At this load
// the throttle, the pause and the swap leave every pinned output equal to
// the static run's; the shedding policy rejects a few requests, which moves
// the digest.
TEST_P(PolicyDeterminism, TimelineBitIdenticalAcrossSolveWorkers) {
  const Variant variant = GetParam();
  const RunOutcome out = run_scenario(variant);
  ASSERT_GT(out.episode_end_ns, 0) << "episode did not complete";
  EXPECT_EQ(out.completed + out.rejected, out.generated);
  const bool shed = variant == Variant::kBlackoutShed;
  EXPECT_EQ(out.digest, golden<std::uint64_t>(shed ? "blackout_shed_digest" : "digest"));
  EXPECT_EQ(out.episode_end_ns, golden<std::int64_t>("episode_end_ns"));
  EXPECT_EQ(out.generated, golden<std::uint64_t>("generated"));
  EXPECT_EQ(out.rejected, shed ? golden<std::uint64_t>("blackout_shed_rejected") : 0u);
  EXPECT_EQ(out.misses, golden<std::uint64_t>("misses"));
}

INSTANTIATE_TEST_SUITE_P(ShippedPolicies, PolicyDeterminism,
                         ::testing::Values(Variant::kStatic, Variant::kSloThrottle,
                                           Variant::kQuietPause, Variant::kDestSwap,
                                           Variant::kBlackoutShed),
                         [](const auto& info) {
                           switch (info.param) {
                             case Variant::kStatic: return std::string("Static");
                             case Variant::kSloThrottle: return std::string("SloThrottle");
                             case Variant::kQuietPause: return std::string("QuietPause");
                             case Variant::kDestSwap: return std::string("DestSwap");
                             case Variant::kBlackoutShed: return std::string("BlackoutShed");
                             default: return std::string("Other");
                           }
                         });

// ---------------------------------------------------------------------------
// SloThrottlePolicy property: under heavy load (the live_service regime:
// per-server utilisation ~0.9 so pre-copy interference shows up in the
// tail), throttling must not worsen the pre-copy p99 and must keep the
// engine's downtime promise — round caps never shape the stop-and-copy
// drain.
// ---------------------------------------------------------------------------

struct SloOutcome {
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  bool episode_done = false;
  bool downtime_ok = false;
  Duration precopy_p99 = Duration::zero();
  std::uint64_t precopy_requests = 0;
};

SloOutcome run_loaded(bool throttle) {
  scenarios::KvScenario kv({.servers = 2,
                            .profile = scenarios::KvProfile::kHeavy,
                            .rate_per_fleet = 2600.0,
                            .window = Duration::seconds(3),
                            .migrate_at = Duration::seconds(1)});
  core::EpisodeSpec spec = kv.episode_spec();
  if (throttle) {
    policy::PolicySet policies;
    policies.use(policy::Hook::kPreCopyRound,
                 std::make_shared<policy::SloThrottlePolicy>());
    spec.with(std::move(policies), kv.testbed().config().seed);
  }
  kv.start(std::move(spec));
  kv.testbed().sim().run_for(Duration::seconds(30));

  SloOutcome out;
  out.generated = kv.service().generated();
  out.completed = kv.service().completed();
  out.episode_done = kv.episode().done();
  out.downtime_ok = kv.downtime_ok();
  const auto& precopy = kv.service().phase(vmm::MigrationPhase::kPreCopy);
  out.precopy_requests = precopy.requests;
  if (precopy.latency.count() > 0) {
    out.precopy_p99 = precopy.latency.percentile(0.99);
  }
  return out;
}

TEST(SloThrottleProperty, NoWorsePrecopyTailAndDowntimePromiseHolds) {
  const SloOutcome plain = run_loaded(/*throttle=*/false);
  const SloOutcome throttled = run_loaded(/*throttle=*/true);
  ASSERT_TRUE(plain.episode_done);
  ASSERT_TRUE(throttled.episode_done);
  // Load conservation and the downtime promise survive throttling.
  EXPECT_EQ(throttled.completed, throttled.generated);
  EXPECT_TRUE(throttled.downtime_ok);
  ASSERT_GT(plain.precopy_requests, 0u);
  ASSERT_GT(throttled.precopy_requests, 0u);
  // The whole point: backing off the pre-copy bandwidth must not make the
  // users' pre-copy tail worse than the uncapped baseline.
  EXPECT_LE(throttled.precopy_p99, plain.precopy_p99);
}

// ---------------------------------------------------------------------------
// ServiceEpisode lifecycle: reusable after done(), loud mid-flight.
// ---------------------------------------------------------------------------

TEST(ServiceEpisodeLifecycle, ReusableAfterDoneAndLoudMidFlight) {
  core::TestbedConfig config;
  core::Testbed testbed(config);
  vmm::VmSpec spec;
  spec.name = "vm0";
  spec.memory = Bytes::mib(128);
  spec.base_os_footprint = Bytes::mib(64);
  auto vm = testbed.boot_vm(testbed.eth_host(0), spec, /*with_hca=*/false);
  testbed.settle();

  core::ServiceEpisode episode(testbed.sim());
  (void)episode.start(core::EpisodeSpec(vm, testbed.eth_host(1)));
  // Mid-flight double start fails loudly instead of silently clobbering
  // the live stats of the in-flight episode.
  EXPECT_THROW((void)episode.start(core::EpisodeSpec(vm, testbed.eth_host(2))), LogicError);
  testbed.sim().run_for(Duration::minutes(5));
  ASSERT_TRUE(episode.done());
  const std::int64_t first_end = episode.report().end_at.count_nanos();
  EXPECT_GT(first_end, 0);

  // Finished episodes are reusable: live() resets and the second report
  // describes the second migration only.
  (void)episode.start(core::EpisodeSpec(vm, testbed.eth_host(0)));
  testbed.sim().run_for(Duration::minutes(5));
  ASSERT_TRUE(episode.done());
  EXPECT_GT(episode.report().start_at.count_nanos(), first_end);
  EXPECT_GT(episode.report().end_at.count_nanos(), first_end);
}

}  // namespace
}  // namespace nm
