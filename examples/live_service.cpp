// A live, user-facing KV service experiencing a migration: four server VMs
// on the Ethernet cluster serve >10k req/s of open-loop zipfian traffic
// from four client fleets while one server is migrated off its (draining)
// host. The per-phase SLO table shows what "interconnect-transparent"
// costs the users: pre-copy steals CPU and NIC bandwidth from the loaded
// host (tail inflation from open-loop backlog), the stop-and-copy blackout
// freezes the guest outright (every overlapping request waits it out), and
// the post phase shows the recovered service on the new host.
//
// It exits non-zero unless the offered load is conserved, the pre-copy and
// blackout tails show, and the downtime stays within its bound.
//
//   $ ./examples/live_service
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "policy/policies.h"
#include "scenarios/kv.h"
#include "util/table.h"

using namespace nm;

namespace {

constexpr scenarios::KvShape kShape = scenarios::kLiveService;

struct RunResult {
  std::int64_t episode_end_ns = 0;
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  std::uint64_t misses = 0;
  workloads::PhaseSlo phases[vmm::kMigrationPhases];
  core::ServiceEpisodeReport report;
  bool downtime_ok = false;
};

// eth0 is draining: its loaded server kv0 moves to the spare blade eth4
// while the fleets keep hammering it. The default (static) PolicySet is the
// historical behavior; the A/B variant throttles each pre-copy round
// against the live pre-copy p99 fed back from the service.
RunResult run_once(bool slo_throttle = false) {
  scenarios::KvScenario kv(kShape);
  core::EpisodeSpec spec = kv.episode_spec();
  if (slo_throttle) {
    policy::PolicySet policies;
    policies.use(policy::Hook::kPreCopyRound,
                 std::make_shared<policy::SloThrottlePolicy>());
    spec.with(std::move(policies), kv.testbed().config().seed);
  }
  kv.start(std::move(spec));

  kv.testbed().sim().run_for(kShape.window + Duration::seconds(30));

  const workloads::KvService& service = kv.service();
  RunResult r;
  r.generated = service.generated();
  r.completed = service.completed();
  r.misses = service.deadline_misses();
  for (int p = 0; p < vmm::kMigrationPhases; ++p) {
    r.phases[p] = service.phase(static_cast<vmm::MigrationPhase>(p));
  }
  if (kv.episode().done()) {
    r.report = kv.episode().report();
    r.episode_end_ns = r.report.end_at.count_nanos();
    r.downtime_ok = kv.downtime_ok();
  }
  return r;
}

std::string ms(Duration d) { return TextTable::num(d.to_millis(), 2) + " ms"; }

}  // namespace

int main() {
  const RunResult base = run_once();

  if (base.completed != base.generated || base.generated == 0) {
    std::cerr << "FAIL: offered load not conserved (" << base.completed << "/"
              << base.generated << " completed)\n";
    return 1;
  }
  if (base.episode_end_ns == 0) {
    std::cerr << "FAIL: migration episode did not complete\n";
    return 1;
  }

  std::cout << "live_service: " << kShape.servers << " KV servers, "
            << static_cast<std::int64_t>(kShape.servers * kShape.rate_per_fleet)
            << " req/s offered open-loop for " << kShape.window << "; kv0 migrated off the\n"
            << "draining host eth0 at t=" << kShape.migrate_at << " (pre-copy "
            << ms(base.report.precopy) << ", blackout " << ms(base.report.blackout)
            << ", total " << ms(base.report.total) << ")\n\n";

  TextTable table({"phase", "requests", "p50", "p99", "p999", "max", "deadline misses"});
  for (int p = 0; p < vmm::kMigrationPhases; ++p) {
    const auto& slo = base.phases[p];
    if (slo.requests == 0) {
      table.add_row({std::string(to_string(static_cast<vmm::MigrationPhase>(p))), "0", "-",
                     "-", "-", "-", "-"});
      continue;
    }
    table.add_row({std::string(to_string(static_cast<vmm::MigrationPhase>(p))),
                   std::to_string(slo.requests), ms(slo.latency.percentile(0.5)),
                   ms(slo.latency.percentile(0.99)), ms(slo.latency.percentile(0.999)),
                   ms(slo.latency.max()), std::to_string(slo.deadline_misses)});
  }
  std::cout << table.to_string() << "\n";

  const auto& steady = base.phases[static_cast<int>(vmm::MigrationPhase::kSteady)];
  const auto& precopy = base.phases[static_cast<int>(vmm::MigrationPhase::kPreCopy)];
  const auto& blackout = base.phases[static_cast<int>(vmm::MigrationPhase::kBlackout)];

  bool ok = true;
  if (steady.requests == 0 || precopy.requests == 0 || blackout.requests == 0) {
    std::cerr << "FAIL: a phase saw no requests\n";
    ok = false;
  }
  if (ok && blackout.latency.percentile(0.99) <= steady.latency.percentile(0.99)) {
    std::cerr << "FAIL: blackout p99 not inflated over steady p99\n";
    ok = false;
  }
  if (ok && precopy.latency.percentile(0.99) <= steady.latency.percentile(0.99)) {
    std::cerr << "FAIL: pre-copy p99 not inflated over steady p99\n";
    ok = false;
  }
  if (!base.downtime_ok) {
    std::cerr << "FAIL: downtime " << base.report.blackout << " exceeds max_downtime\n";
    ok = false;
  }

  // A/B: the same scenario with SloThrottlePolicy on the pre-copy rounds —
  // the policy sees the live pre-copy p99 through the service's
  // ObservationSource and backs the migration's bandwidth off when users
  // hurt. The blackout must stay within the engine's promise (round caps
  // never apply to the stop-and-copy drain).
  const RunResult throttled = run_once(/*slo_throttle=*/true);
  const auto& throttled_precopy =
      throttled.phases[static_cast<int>(vmm::MigrationPhase::kPreCopy)];
  if (throttled.completed != throttled.generated || throttled.episode_end_ns == 0 ||
      !throttled.downtime_ok || throttled_precopy.requests == 0) {
    std::cerr << "FAIL: SLO-throttled episode broke load conservation or the "
                 "downtime promise\n";
    ok = false;
  } else if (ok) {
    const auto& tp = throttled_precopy;
    TextTable ab({"policy", "pre-copy p99", "pre-copy misses", "blackout", "total"});
    ab.add_row({"static", ms(precopy.latency.percentile(0.99)),
                std::to_string(precopy.deadline_misses), ms(base.report.blackout),
                ms(base.report.total)});
    ab.add_row({"slo-throttle", ms(tp.latency.percentile(0.99)),
                std::to_string(tp.deadline_misses), ms(throttled.report.blackout),
                ms(throttled.report.total)});
    std::cout << "\npolicy A/B (kv0 under load):\n" << ab.to_string();
  }

  if (ok) {
    std::cout << "\nerror budget: " << base.misses << "/" << base.generated
              << " requests missed the " << ms(Duration::millis(20))
              << " deadline\n";
  }
  return ok ? 0 : 1;
}
