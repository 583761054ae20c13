// Value-pinned determinism gates: one table, one row per gate. Each row
// runs its scenario once (plus an optional comparison run) and fails unless
//   - the row's invariants hold on every run;
//   - its values match the `<row>.` keys of bench/pins.json, key for key
//     and value for value. Values are compared as text, so 20-digit
//     digests stay exact.
// It takes no arguments. Each failure is printed with its row and the key
// or invariant that failed, and the exit status is then non-zero.
//
// Gate values are simulated quantities only (nanoseconds, counts,
// digests), never wall time, so a pin moves only when simulated behaviour
// does; README.md says how to re-pin one.
//
// Rows (CI-sized cousins of the examples):
//   sweep7    cross-domain boundary flows through a shared spine;
//   sweep8    federated evacuation over a calibrated WAN;
//   sweep9    planned mass evacuation over a 5-site mesh vs sequential;
//   sweep10   SLO-visible migration under open-loop service load;
//   sweep11   oversubscribed Clos evacuation, leaf-aware vs topology-blind;
//   policies  migration-decision policies under live service load.
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "core/federation.h"
#include "policy/policies.h"
#include "scenarios/evacuation.h"
#include "scenarios/kv.h"
#include "scenarios/pins.h"
#include "sim/fluid_net.h"
#include "sim/sync.h"
#include "util/table.h"

namespace {

using namespace nm;

/// Named outputs of one scenario run. Every gate value is a non-negative
/// integer: simulated nanoseconds, a count, or a digest.
using Metrics = std::map<std::string, std::uint64_t>;

// --- sweep7: cross-domain boundary flows through a shared spine ------------

// P pods, each its own FluidNet domain, plus a "core" domain holding one
// shared spine-switch resource. Every inter-pod transfer crosses three
// domains (source tx -> spine -> destination rx), so it is admitted as a
// boundary flow and settled through the ghost-capacity exchange. The local
// compute flows keep each pod's domain genuinely busy at the same instants,
// making the exchange batches span domains.
constexpr int kCrossPodNodes = 32;

Metrics cross_domain() {
  Metrics m;
  for (const int pods : {2, 4}) {
    sim::Simulation sim;
    sim::FluidNet net(sim);
    auto& core = net.add_domain("core");
    sim::FluidResource spine(core.scheduler(), "spine", 40e9);
    std::vector<sim::FluidDomain*> pod_domain;
    pod_domain.reserve(static_cast<std::size_t>(pods));
    for (int p = 0; p < pods; ++p) {
      pod_domain.push_back(&net.add_domain("pod" + std::to_string(p)));
    }
    std::vector<bench::Pod> built;
    built.reserve(static_cast<std::size_t>(pods));
    for (int p = 0; p < pods; ++p) {
      built.push_back(
          bench::build_pod(*pod_domain[static_cast<std::size_t>(p)], p, kCrossPodNodes));
    }

    for (int p = 0; p < pods; ++p) {
      auto& pod = built[static_cast<std::size_t>(p)];
      auto& next = built[static_cast<std::size_t>((p + 1) % pods)];
      for (int n = 0; n < kCrossPodNodes; ++n) {
        auto& node = pod.cluster->node(static_cast<std::size_t>(n));
        // Pod-local compute: stays inside the pod's own domain.
        net.start(sim::FlowSpec{.work = (n + 1) * 0.05, .max_rate = 1.0}.over(node.cpu()));
        if (n % 4 == 0) {
          // Inter-pod transfer to the neighbour pod through the spine: a
          // boundary flow spanning pod p, core, and pod p+1.
          net.start(sim::FlowSpec{.work = 1e8 * (n + 1)}
                        .over(pod.ports[static_cast<std::size_t>(n)]->tx())
                        .over(spine)
                        .over(next.ports[static_cast<std::size_t>(n)]->rx()));
        }
      }
    }
    m["pods" + std::to_string(pods) + "_final_ns"] = sim.run().count_nanos();
    m["unconverged"] += scenarios::counters(net).at("net.unconverged");
  }
  return m;
}

// --- sweep8: federated evacuation over a calibrated WAN --------------------

// Two sites coupled by a 50 ms / 1 Gbps / 0.1 % WanLink; four VMs are
// live-migrated cross-site onto two hosts, all sharing the Mathis-limited
// link.
sim::Task evacuate_vm(vmm::Vm& vm, vmm::Host& dst) {
  co_await vm.host().migrate(vm, dst);
}

Metrics federated_evacuation() {
  core::FederationConfig fcfg;
  fcfg.site_a.ib_nodes = 0;
  fcfg.site_a.eth_nodes = 4;
  fcfg.site_b.ib_nodes = 0;
  fcfg.site_b.eth_nodes = 2;
  fcfg.wan.line_rate = Bandwidth::gbps(1);    // the paper's continental target
  fcfg.wan.rtt = Duration::millis(50);
  fcfg.wan.loss = 0.001;
  core::Federation fed(fcfg);

  std::vector<std::shared_ptr<vmm::Vm>> vms;
  for (int i = 0; i < 4; ++i) {
    vmm::VmSpec spec;
    spec.name = "vm" + std::to_string(i);
    spec.memory = Bytes::gib(2);
    spec.base_os_footprint = Bytes::mib(256);
    auto vm = fed.site_a().boot_vm(fed.site_a().eth_host(i), spec, /*with_hca=*/false);
    vm->memory().write_data(Bytes::zero(), Bytes::mib(512));
    vms.push_back(std::move(vm));
  }
  fed.settle();

  Metrics m{{"evac_done_ns", 0}};  // stays 0 unless every migration lands
  std::vector<sim::TaskRef> refs;
  for (int i = 0; i < 4; ++i) {
    vmm::Host* dst = fed.find_host(i % 2 == 0 ? "b:eth0" : "b:eth1");
    refs.push_back(fed.sim().spawn(evacuate_vm(*vms[static_cast<std::size_t>(i)], *dst),
                                   "evac" + std::to_string(i)));
  }
  fed.sim().spawn([](core::Federation& f, std::vector<sim::TaskRef> r,
                     Metrics& out) -> sim::Task {
    co_await sim::join_all(std::move(r));
    out["evac_done_ns"] = f.sim().now().count_nanos();
  }(fed, std::move(refs), m));
  m["final_ns"] = fed.sim().run().count_nanos();
  m["unconverged"] = scenarios::counters(fed.net()).at("net.unconverged");
  return m;
}

// --- sweeps 9 and 11: site drains ---------------------------------------------

/// Drains site 0 of `fed`; the makespan is reported as `<mode>_makespan_ns`.
Metrics run_drain(core::Federation& fed, const scenarios::Fleet& fleet,
                  core::EvacuationConfig ecfg, const std::string& mode) {
  scenarios::Drain drain(fed, fleet, std::move(ecfg));
  Metrics m;
  m["final_ns"] = fed.sim().run().count_nanos();
  const core::EvacuationReport& report = drain.report();
  m["fleet"] = drain.fleet_size();
  m["evac_done_ns"] = report.done_ns;
  m[mode + "_makespan_ns"] = report.done_ns - report.started_ns;
  m["waves"] = report.waves;
  m["evacuated"] = report.evacuated;
  m["unconverged"] = drain.counters().at("net.unconverged");
  return m;
}

// sweep9: examples/mass_evacuation's metro mesh sized for CI, 8 source
// hosts x 4 VMs and 4 hosts per refuge.
Metrics mesh_evacuation(bool sequential) {
  core::Federation fed(scenarios::metro_mesh(8, 4));
  core::EvacuationConfig ecfg;
  ecfg.sequential = sequential;
  return run_drain(fed, {.vms_per_host = 4, .memory = Bytes::gib(1), .data = Bytes::mib(128)},
                   std::move(ecfg), sequential ? "sequential" : "planner");
}

// sweep11: examples/mass_evacuation's Clos mesh sized for CI, 4 hosts per
// leaf. Equal VM sizes make the blind big-first order equal the boot
// order, so a topology-blind first wave piles onto leaf 0's single
// 1.25 GB/s uplink while the leaf-aware planner spreads sources across
// racks and caps refuge-leaf incast.
Metrics clos_evacuation(bool topology_blind) {
  core::Federation fed(scenarios::clos_mesh(4));
  core::EvacuationConfig ecfg;
  ecfg.topology_blind = topology_blind;
  ecfg.planner.stream_rate_cap = scenarios::kClosStreamRate;
  return run_drain(fed, {.vms_per_host = 2, .memory = Bytes::gib(1), .data = Bytes::mib(768)},
                   std::move(ecfg), topology_blind ? "blind" : "aware");
}

// --- sweep10: SLO-visible migration under open-loop service load -----------

// CI-sized cousin of examples/live_service: 2 KV servers under 2 fleets of
// open-loop traffic, the loaded kv0 migrated onto a spare blade while its
// clients keep hammering it.
Metrics service_slo() {
  scenarios::KvScenario kv({.servers = 2,
                            .profile = scenarios::KvProfile::kLight,
                            .rate_per_fleet = 600.0,
                            .window = Duration::seconds(3),
                            .migrate_at = Duration::millis(500)});
  kv.start(kv.episode_spec());
  Metrics m;
  m["final_ns"] = kv.testbed().sim().run_for(Duration::seconds(23)).count_nanos();
  const workloads::KvService& service = kv.service();
  m["service_digest"] = service.digest();
  m["requests"] = service.generated();
  m["completed"] = service.completed();
  m["deadline_misses"] = service.deadline_misses();
  m["p999_ns"] = service.overall().percentile(0.999).count_nanos();
  m["blackout_ns"] = kv.episode().done() ? kv.episode().report().blackout.count_nanos() : 0;
  m["unconverged"] = kv.counters().at("net.unconverged");
  return m;
}

// --- policies: decision policies under live service load -------------------

// The examples/live_service scenario (per-server utilisation ~0.9) under
// `policies`. Outputs are prefixed with `name`.
void run_policy_episode(const std::string& name, policy::PolicySet policies, Metrics& m) {
  scenarios::KvScenario kv(scenarios::kLiveService);
  core::EpisodeSpec spec = kv.episode_spec();
  spec.with(std::move(policies), kv.testbed().config().seed);
  kv.start(std::move(spec));
  kv.testbed().sim().run_for(Duration::seconds(40));

  const workloads::KvService& service = kv.service();
  const core::ServiceEpisode& episode = kv.episode();
  const auto& precopy = service.phase(vmm::MigrationPhase::kPreCopy);
  m[name + "_digest"] = service.digest();
  m[name + "_generated"] = service.generated();
  m[name + "_completed"] = service.completed();
  m[name + "_done"] = episode.done() ? 1 : 0;
  m[name + "_precopy_p99_ns"] =
      precopy.latency.count() > 0 ? precopy.latency.percentile(0.99).count_nanos() : 0;
  m[name + "_precopy_misses"] = precopy.deadline_misses;
  m[name + "_blackout_ns"] = episode.done() ? episode.report().blackout.count_nanos() : 0;
  m[name + "_total_ns"] = episode.done() ? episode.report().total.count_nanos() : 0;
}

const char* const kPolicyRuns[] = {"static", "slo_throttle", "quiet_pause"};

Metrics policy_ablation() {
  Metrics m;
  run_policy_episode("static", {}, m);
  policy::PolicySet throttle;
  throttle.use(policy::Hook::kPreCopyRound, std::make_shared<policy::SloThrottlePolicy>());
  run_policy_episode("slo_throttle", std::move(throttle), m);
  policy::PolicySet quiet;
  quiet.use(policy::Hook::kPauseDecision, std::make_shared<policy::QuietPausePolicy>());
  run_policy_episode("quiet_pause", std::move(quiet), m);
  m["requests"] = m.at("static_generated");
  return m;
}

std::vector<std::string> policy_keys() {
  std::vector<std::string> keys = {"requests"};
  for (const char* run : kPolicyRuns) {
    for (const char* key :
         {"_digest", "_precopy_p99_ns", "_precopy_misses", "_blackout_ns", "_total_ns"}) {
      keys.push_back(run + std::string(key));
    }
  }
  return keys;
}

// --- The gate table ------------------------------------------------------------

/// An invariant over one run's outputs, named for the failure message.
struct Check {
  std::string what;
  std::function<bool(const Metrics&)> holds;
};

const Check kConverged = {"0 unconverged exchanges",
                          [](const Metrics& m) { return m.at("unconverged") == 0; }};
const Check kEveryVmLands = {"every VM lands", [](const Metrics& m) {
                               return m.at("evacuated") == m.at("fleet");
                             }};

struct Gate {
  /// Also the prefix of the row's keys in the pin file.
  std::string name;
  std::function<Metrics()> run;
  /// Hold on every run, the comparison run included.
  std::vector<Check> invariants;
  /// Optional comparison run (a naive-sequential or topology-blind
  /// baseline). Its outputs join the run's for `outcome` and `keys`; on a
  /// shared key the run's value wins.
  std::function<Metrics()> comparison;
  /// Hold on the joined outputs.
  std::vector<Check> outcome;
  /// Emitted in this order from the joined outputs.
  std::vector<std::string> keys;
};

// Overall p999 ceiling for sweep10: steady-state p999 in that scenario is
// ~6 ms and the blackout cohort tops out around the ~20 ms pause, so 50 ms
// of headroom only trips on a real queueing regression.
constexpr std::uint64_t kP999CeilingNs = 50'000'000;
// The SLO loop must actually close: throttling has to buy pre-copy tail
// latency, and never from the blackout (round caps do not apply to the
// stop-and-copy drain).
constexpr std::uint64_t kBlackoutCeilingNs = 30'000'000;

const Gate kGates[] = {
    {.name = "sweep7",
     .run = cross_domain,
     .invariants = {kConverged},
     .keys = {"pods2_final_ns", "pods4_final_ns"}},
    {.name = "sweep8",
     .run = federated_evacuation,
     .invariants = {kConverged},
     .keys = {"evac_done_ns", "final_ns"}},
    {.name = "sweep9",
     .run = [] { return mesh_evacuation(/*sequential=*/false); },
     .invariants = {kEveryVmLands, kConverged},
     .comparison = [] { return mesh_evacuation(/*sequential=*/true); },
     .outcome = {{"the plan strictly beats the sequential run",
                  [](const Metrics& m) {
                    return m.at("planner_makespan_ns") < m.at("sequential_makespan_ns");
                  }}},
     .keys = {"evac_done_ns", "final_ns", "waves", "planner_makespan_ns",
              "sequential_makespan_ns"}},
    {.name = "sweep10",
     .run = service_slo,
     .invariants = {{"every request completes",
                     [](const Metrics& m) { return m.at("completed") == m.at("requests"); }},
                    {"p999 <= 50 ms",
                     [](const Metrics& m) { return m.at("p999_ns") <= kP999CeilingNs; }},
                    {"blackout > 0", [](const Metrics& m) { return m.at("blackout_ns") > 0; }},
                    kConverged},
     .keys = {"final_ns", "service_digest", "requests", "deadline_misses", "p999_ns",
              "blackout_ns"}},
    {.name = "sweep11",
     .run = [] { return clos_evacuation(/*topology_blind=*/false); },
     .invariants = {kEveryVmLands, kConverged},
     .comparison = [] { return clos_evacuation(/*topology_blind=*/true); },
     .outcome = {{"the leaf-aware plan is no worse than the topology-blind run",
                  [](const Metrics& m) {
                    return m.at("aware_makespan_ns") <= m.at("blind_makespan_ns");
                  }}},
     .keys = {"evac_done_ns", "final_ns", "waves", "aware_makespan_ns", "blind_makespan_ns"}},
    {.name = "policies",
     .run = policy_ablation,
     .invariants = {{"every variant finishes its episode and its requests",
                     [](const Metrics& m) {
                       for (const std::string run : kPolicyRuns) {
                         if (m.at(run + "_done") == 0 ||
                             m.at(run + "_completed") != m.at(run + "_generated") ||
                             m.at(run + "_precopy_p99_ns") == 0) {
                           return false;
                         }
                       }
                       return true;
                     }},
                    {"slo-throttle beats static on pre-copy p99",
                     [](const Metrics& m) {
                       return m.at("slo_throttle_precopy_p99_ns") <
                              m.at("static_precopy_p99_ns");
                     }},
                    {"slo-throttle blackout <= 30 ms",
                     [](const Metrics& m) {
                       return m.at("slo_throttle_blackout_ns") <= kBlackoutCeilingNs;
                     }}},
     .keys = policy_keys()},
};

// --- The runner ------------------------------------------------------------------

/// Runs one row, compares its keys with the `<row>.` pins, prints its
/// failures and a summary line, and returns whether it passed.
bool run_gate(const Gate& g, const std::map<std::string, std::string>& pins) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::string> failures;
  const auto check = [&failures](const std::vector<Check>& checks, const Metrics& m,
                                 const std::string& run) {
    for (const Check& c : checks) {
      if (!c.holds(m)) {
        failures.push_back(run + ": " + c.what + " does not hold");
      }
    }
  };

  Metrics m = g.run();
  check(g.invariants, m, "run");
  if (g.comparison) {
    const Metrics comparison = g.comparison();
    check(g.invariants, comparison, "comparison run");
    m.insert(comparison.begin(), comparison.end());
  }
  check(g.outcome, m, "outcome");

  const std::string prefix = g.name + ".";
  std::map<std::string, std::string> pinned;
  for (const auto& [key, value] : pins) {
    if (key.starts_with(prefix)) {
      pinned.emplace(key, value);
    }
  }
  for (const std::string& k : g.keys) {
    const std::string key = prefix + k;
    const std::string value = std::to_string(m.at(k));
    const auto it = pinned.find(key);
    if (it == pinned.end()) {
      failures.push_back(key + " = " + value + " is not pinned in " + NM_PINS);
      continue;
    }
    if (it->second != value) {
      failures.push_back(key + " = " + value + ", but " + NM_PINS + " pins " + it->second);
    }
    pinned.erase(it);
  }
  for (const auto& [key, value] : pinned) {
    failures.push_back(key + " = " + value + " is pinned in " + NM_PINS + " but not emitted");
  }

  for (const std::string& f : failures) {
    std::cout << "FAIL " << g.name << ": " << f << "\n";
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::cout << g.name << ": " << (failures.empty() ? "ok" : "FAILED") << ", " << g.keys.size()
            << " values vs " << NM_PINS << " (" << TextTable::num(wall_s, 1) << " s)"
            << std::endl;
  return failures.empty();
}

}  // namespace

int main() {
  const std::map<std::string, std::string> pins = scenarios::read_pins(NM_PINS);
  bool ok = true;
  for (const Gate& g : kGates) {
    ok = run_gate(g, pins) && ok;
  }
  return ok ? 0 : 1;
}
