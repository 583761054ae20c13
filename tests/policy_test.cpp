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

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/service_episode.h"
#include "core/testbed.h"
#include "policy/policies.h"
#include "util/error.h"
#include "workloads/kv_service.h"

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
  core::TestbedConfig config;
  config.fluid_shards = 2;  // settle through the SolvePool (see DESIGN.md §10)
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
  for (int i = 0; i < 2; ++i) {
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
    fleet.rate_per_sec = 500.0;
    fleet.window = Duration::seconds(2);
    service.add_fleet(testbed.ib_host(i), fleet);
  }
  testbed.settle();

  core::ServiceEpisode episode(testbed.sim());
  service.observe_migration(&episode.live());
  service.start();

  core::EpisodeSpec spec(vms[0], testbed.eth_host(2));
  spec.after(Duration::millis(300)).observe(service.observation_source());
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
      spec.or_to(testbed.eth_host(3));
      policies.use(policy::Hook::kEpisodeStart,
                   std::make_shared<policy::DestinationSwapPolicy>());
      break;
    case Variant::kBlackoutShed: {
      policy::PolicySet admission;
      admission.use(policy::Hook::kAdmission,
                    std::make_shared<policy::BlackoutShedPolicy>());
      service.set_admission(std::move(admission), config.seed);
      break;
    }
    default:
      break;
  }
  spec.with(std::move(policies), config.seed);
  (void)episode.start(std::move(spec));

  testbed.sim().run_for(Duration::seconds(20));

  RunOutcome out;
  out.digest = service.digest();
  out.generated = service.generated();
  out.completed = service.completed();
  out.rejected = service.rejected();
  out.misses = service.deadline_misses();
  if (episode.done()) {
    const auto report = episode.report();
    out.episode_end_ns = report.end_at.count_nanos();
    out.blackout_ns = report.blackout.count_nanos();
    out.precopy_ns = report.precopy.count_nanos();
  }
  return out;
}

// Captured with the pre-refactor ServiceEpisode::start(vm, dst, delay) on
// the commit before the policy framework landed.
constexpr std::uint64_t kGoldenDigest = 6056993532529786261ull;
constexpr std::int64_t kGoldenEndNs = 33127233576;
constexpr std::uint64_t kGoldenGenerated = 2002;
constexpr std::uint64_t kGoldenMisses = 0;
constexpr std::int64_t kGoldenBlackoutNs = 11069196;
constexpr std::int64_t kGoldenPrecopyNs = 896164380;

void expect_golden(const RunOutcome& out, const std::string& label) {
  EXPECT_EQ(out.digest, kGoldenDigest) << label;
  EXPECT_EQ(out.episode_end_ns, kGoldenEndNs) << label;
  EXPECT_EQ(out.generated, kGoldenGenerated) << label;
  EXPECT_EQ(out.misses, kGoldenMisses) << label;
  EXPECT_EQ(out.blackout_ns, kGoldenBlackoutNs) << label;
  EXPECT_EQ(out.precopy_ns, kGoldenPrecopyNs) << label;
}

TEST(PolicyGolden, DefaultPolicySetReproducesPreRefactorTimeline) {
  expect_golden(run_scenario(Variant::kDefault), "default PolicySet");
}

TEST(PolicyGolden, ExplicitStaticPolicyReproducesPreRefactorTimeline) {
  expect_golden(run_scenario(Variant::kStatic), "explicit StaticPolicy");
}

/// One shipped policy's pinned timeline outputs.
struct PolicyPin {
  Variant variant;
  std::uint64_t digest;
  std::int64_t episode_end_ns;
  std::uint64_t generated;
  std::uint64_t rejected;
  std::uint64_t misses;
};

constexpr PolicyPin kPolicyPins[] = {
    {Variant::kStatic, kGoldenDigest, kGoldenEndNs, kGoldenGenerated, 0, kGoldenMisses},
    // At this load the throttle, the pause and the swap leave every pinned
    // output equal to the static run's.
    {Variant::kSloThrottle, kGoldenDigest, kGoldenEndNs, kGoldenGenerated, 0, kGoldenMisses},
    {Variant::kQuietPause, kGoldenDigest, kGoldenEndNs, kGoldenGenerated, 0, kGoldenMisses},
    {Variant::kDestSwap, kGoldenDigest, kGoldenEndNs, kGoldenGenerated, 0, kGoldenMisses},
    {Variant::kBlackoutShed, 377980942831353068ull, kGoldenEndNs, kGoldenGenerated, 7,
     kGoldenMisses},
};

class PolicyDeterminism : public ::testing::TestWithParam<Variant> {};

// The name predates the removal of the solve worker threads.
TEST_P(PolicyDeterminism, TimelineBitIdenticalAcrossSolveWorkers) {
  const Variant variant = GetParam();
  const RunOutcome out = run_scenario(variant);
  ASSERT_GT(out.episode_end_ns, 0) << "episode did not complete";
  EXPECT_EQ(out.completed + out.rejected, out.generated);
  const auto* pin = std::find_if(std::begin(kPolicyPins), std::end(kPolicyPins),
                                 [variant](const PolicyPin& p) { return p.variant == variant; });
  ASSERT_NE(pin, std::end(kPolicyPins));
  EXPECT_EQ(out.digest, pin->digest);
  EXPECT_EQ(out.episode_end_ns, pin->episode_end_ns);
  EXPECT_EQ(out.generated, pin->generated);
  EXPECT_EQ(out.rejected, pin->rejected);
  EXPECT_EQ(out.misses, pin->misses);
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
  core::TestbedConfig config;
  config.fluid_shards = 2;
  core::Testbed testbed(config);

  workloads::KvServiceConfig svc;
  svc.replicas = 2;
  svc.zipf_s = 0.7;
  svc.service_core_seconds = 1.38e-3;
  svc.worker_threads = 8;
  svc.deadline = Duration::millis(20);
  svc.write_fraction = 0.4;
  svc.value_bytes = Bytes::kib(8);
  workloads::KvService service(testbed, svc);

  std::vector<std::shared_ptr<vmm::Vm>> vms;
  for (int i = 0; i < 2; ++i) {
    vmm::VmSpec spec;
    spec.name = "kv" + std::to_string(i);
    spec.memory = Bytes::mib(256);
    spec.base_os_footprint = Bytes::mib(96);
    vms.push_back(testbed.boot_vm(testbed.eth_host(i), spec, /*with_hca=*/false));
    service.add_server(vms.back());
  }
  for (int i = 0; i < 2; ++i) {
    workloads::ClientFleetConfig fleet;
    fleet.name = "fleet" + std::to_string(i);
    fleet.rate_per_sec = 2600.0;  // ~0.9 per-server utilisation
    fleet.window = Duration::seconds(3);
    service.add_fleet(testbed.ib_host(i), fleet);
  }
  testbed.settle();

  core::ServiceEpisode episode(testbed.sim());
  service.observe_migration(&episode.live());
  service.start();
  core::EpisodeSpec spec(vms[0], testbed.eth_host(2));
  spec.after(Duration::seconds(1)).observe(service.observation_source());
  if (throttle) {
    policy::PolicySet policies;
    policies.use(policy::Hook::kPreCopyRound,
                 std::make_shared<policy::SloThrottlePolicy>());
    spec.with(std::move(policies), config.seed);
  }
  (void)episode.start(std::move(spec));
  testbed.sim().run_for(Duration::seconds(30));

  SloOutcome out;
  out.generated = service.generated();
  out.completed = service.completed();
  out.episode_done = episode.done();
  if (out.episode_done) {
    out.downtime_ok = episode.downtime_within(
        testbed.eth_host(0).migration_engine().config().max_downtime);
  }
  const auto& precopy = service.phase(vmm::MigrationPhase::kPreCopy);
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
