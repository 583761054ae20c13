// Value-pinned determinism gates: one table, one row per gate. Each row
// runs its scenario once (plus an optional comparison run) and fails unless
//   - the row's invariants hold on every run;
//   - the BENCH_*.json it writes into the working directory matches the
//     committed bench/BENCH_*.baseline.json of the same name, key for key
//     and value for value. Values are compared as text, so 20-digit
//     digests stay exact.
// It takes no arguments. Each failure is printed with its row and the key
// or invariant that failed, and the exit status is then non-zero.
//
// Gate values are simulated quantities only (nanoseconds, counts,
// digests), never wall time, so a baseline moves only when simulated
// behaviour does; README.md says how to re-pin one.
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
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "core/evacuation_driver.h"
#include "core/federation.h"
#include "core/service_episode.h"
#include "core/testbed.h"
#include "policy/policies.h"
#include "sim/fluid_net.h"
#include "sim/sync.h"
#include "util/table.h"
#include "workloads/kv_service.h"

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
    m["unconverged"] += net.unconverged_exchange_count();
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
  m["unconverged"] = fed.unconverged_exchange_count();
  return m;
}

// --- sweep9: planned mass evacuation over a 5-site mesh --------------------

Metrics mesh_evacuation(bool sequential) {
  // Same shape as examples/mass_evacuation.cpp, sized for CI: dc0 is the
  // failing site, dc1..dc3 are direct neighbours, dc4 is two hops out so
  // the planner's multi-hop routes carry real traffic.
  core::FederationConfig fcfg;
  core::TestbedConfig source;
  source.ib_nodes = 0;
  source.eth_nodes = 8;
  core::TestbedConfig refuge;
  refuge.ib_nodes = 0;
  refuge.eth_nodes = 4;
  fcfg.sites = {{"dc0", source}, {"dc1", refuge}, {"dc2", refuge},
                {"dc3", refuge}, {"dc4", refuge}};
  sim::WanLinkConfig metro;  // EXPERIMENTS.md metro calibration
  metro.line_rate = Bandwidth::gbps(1);
  metro.rtt = Duration::millis(5);
  metro.loss = 0.0001;
  fcfg.edges = {{0, 1, metro}, {0, 2, metro}, {0, 3, metro},
                {1, 4, metro}, {2, 4, metro}};
  core::Federation fed(fcfg);

  Metrics m;
  auto& src = fed.site(0);
  for (int h = 0; h < src.eth_host_count(); ++h) {
    for (int v = 0; v < 4; ++v) {
      vmm::VmSpec spec;
      spec.name = "vm" + std::to_string(h) + "_" + std::to_string(v);
      spec.memory = Bytes::gib(1);
      spec.base_os_footprint = Bytes::mib(128);
      auto vm = src.boot_vm(src.eth_host(h), spec, /*with_hca=*/false);
      vm->memory().write_data(Bytes::mib(128), Bytes::mib(128));
      ++m["fleet"];
    }
  }
  fed.settle();

  core::EvacuationConfig ecfg;
  ecfg.source_site = 0;
  ecfg.sequential = sequential;
  core::MassEvacuation evac(fed, ecfg);
  core::EvacuationReport report;
  fed.sim().spawn(evac.run(&report), "mass-evac");
  m["final_ns"] = fed.sim().run().count_nanos();
  m["evac_done_ns"] = report.done_ns;
  m[sequential ? "sequential_makespan_ns" : "planner_makespan_ns"] =
      report.done_ns - report.started_ns;
  m["waves"] = report.waves;
  m["evacuated"] = report.evacuated;
  m["unconverged"] = fed.unconverged_exchange_count();
  return m;
}

// --- sweep10: SLO-visible migration under open-loop service load -----------

Metrics service_slo() {
  // CI-sized cousin of examples/live_service: 2 KV servers under 2 fleets
  // of open-loop traffic, the loaded kv0 migrated onto a spare blade while
  // its clients keep hammering it.
  core::TestbedConfig config;
  // Second (empty) shard: settle through the SolvePool's end-of-instant
  // batch, the path this row's baseline was pinned on (see DESIGN.md §10).
  config.fluid_shards = 2;
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
    fleet.rate_per_sec = 600.0;
    fleet.window = Duration::seconds(3);
    service.add_fleet(testbed.ib_host(i), fleet);
  }
  testbed.settle();

  core::ServiceEpisode episode(testbed.sim());
  service.observe_migration(&episode.live());
  service.start();
  (void)episode.start(
      core::EpisodeSpec(vms[0], testbed.eth_host(2)).after(Duration::millis(500)));

  Metrics m;
  m["final_ns"] = testbed.sim().run_for(Duration::seconds(23)).count_nanos();
  m["service_digest"] = service.digest();
  m["requests"] = service.generated();
  m["completed"] = service.completed();
  m["deadline_misses"] = service.deadline_misses();
  m["p999_ns"] = service.overall().percentile(0.999).count_nanos();
  m["blackout_ns"] = episode.done() ? episode.report().blackout.count_nanos() : 0;
  m["unconverged"] = testbed.net().unconverged_exchange_count();
  return m;
}

// --- sweep11: oversubscribed Clos evacuation, leaf-aware vs blind ----------

Metrics clos_evacuation(bool topology_blind) {
  // CI-sized cousin of `examples/mass_evacuation`'s Clos scenario: dc0
  // drains 12 hosts racked 4-per-leaf under three 4:1-oversubscribed
  // leaves into two 2-leaf 2:1 refuges. Equal VM sizes make the blind
  // big-first order equal the boot order, so a topology-blind first wave
  // piles onto leaf 0's single 1.25 GB/s uplink while the leaf-aware
  // planner spreads sources across racks and caps refuge-leaf incast.
  constexpr double kStreamCap = 500e6;  // bytes/s per migration thread
  core::FederationConfig fcfg;
  core::TestbedConfig source;
  source.ib_nodes = 0;
  source.eth_nodes = 12;
  source.clos.leaves = 3;
  source.clos.spines = 1;
  source.clos.hosts_per_leaf = 4;
  source.clos.oversubscription = 4.0;  // leaf uplink 1.25 GB/s vs 5 GB/s of hosts
  source.migration.thread_send_rate = kStreamCap;
  core::TestbedConfig refuge;
  refuge.ib_nodes = 0;
  refuge.eth_nodes = 4;
  refuge.clos.leaves = 2;
  refuge.clos.spines = 1;
  refuge.clos.hosts_per_leaf = 2;
  refuge.clos.oversubscription = 2.0;  // two 500 MB/s incast slots per leaf
  refuge.migration.thread_send_rate = kStreamCap;
  fcfg.sites = {{"dc0", source}, {"dc1", refuge}, {"dc2", refuge}};
  sim::WanLinkConfig wan;
  wan.line_rate = Bandwidth::gbps(40);
  wan.rtt = Duration::millis(5);
  wan.loss = 0.00001;
  fcfg.edges = {{0, 1, wan}, {0, 2, wan}};
  fcfg.uplink_rate = Bandwidth::gbps(100);  // WAN gateways are not the story
  core::Federation fed(fcfg);

  Metrics m;
  auto& src = fed.site(0);
  for (int h = 0; h < src.eth_host_count(); ++h) {
    for (int v = 0; v < 2; ++v) {
      vmm::VmSpec spec;
      spec.name = "vm" + std::to_string(h) + "_" + std::to_string(v);
      spec.memory = Bytes::gib(1);
      spec.base_os_footprint = Bytes::mib(128);
      auto vm = src.boot_vm(src.eth_host(h), spec, /*with_hca=*/false);
      vm->memory().write_data(Bytes::mib(128), Bytes::mib(768));
      ++m["fleet"];
    }
  }
  fed.settle();

  core::EvacuationConfig ecfg;
  ecfg.source_site = 0;
  ecfg.topology_blind = topology_blind;
  ecfg.planner.stream_rate_cap = kStreamCap;
  core::MassEvacuation evac(fed, ecfg);
  core::EvacuationReport report;
  fed.sim().spawn(evac.run(&report), "clos-evac");
  m["final_ns"] = fed.sim().run().count_nanos();
  m["evac_done_ns"] = report.done_ns;
  m[topology_blind ? "blind_makespan_ns" : "aware_makespan_ns"] =
      report.done_ns - report.started_ns;
  m["waves"] = report.waves;
  m["evacuated"] = report.evacuated;
  m["unconverged"] = fed.unconverged_exchange_count();
  return m;
}

// --- policies: decision policies under live service load -------------------

// The examples/live_service scenario: 4 loaded KV servers (per-server
// utilisation ~0.9), kv0 migrated off its draining host at t=2 s while 4
// fleets keep an open loop of 10,400 req/s on the service. Outputs are
// prefixed with `name`.
void run_policy_episode(const std::string& name, policy::PolicySet policies, Metrics& m) {
  core::TestbedConfig config;
  // Settle through the SolvePool, as in sweep10 (see DESIGN.md §10).
  config.fluid_shards = 2;
  core::Testbed testbed(config);

  workloads::KvServiceConfig svc;
  svc.replicas = 2;
  svc.service_core_seconds = 1.38e-3;
  svc.worker_threads = 8;
  svc.zipf_s = 0.7;
  svc.deadline = Duration::millis(20);
  svc.write_fraction = 0.4;
  svc.value_bytes = Bytes::kib(8);
  workloads::KvService service(testbed, svc);

  std::vector<std::shared_ptr<vmm::Vm>> vms;
  for (int i = 0; i < 4; ++i) {
    vmm::VmSpec spec;
    spec.name = "kv" + std::to_string(i);
    spec.memory = Bytes::mib(256);
    spec.base_os_footprint = Bytes::mib(96);
    vms.push_back(testbed.boot_vm(testbed.eth_host(i), spec, /*with_hca=*/false));
    service.add_server(vms.back());
  }
  for (int i = 0; i < 4; ++i) {
    workloads::ClientFleetConfig fleet;
    fleet.name = "fleet" + std::to_string(i);
    fleet.rate_per_sec = 2600.0;
    fleet.window = Duration::seconds(10);
    service.add_fleet(testbed.ib_host(i), fleet);
  }
  testbed.settle();

  core::ServiceEpisode episode(testbed.sim());
  service.observe_migration(&episode.live());
  service.start();
  core::EpisodeSpec spec(vms[0], testbed.eth_host(4));
  spec.after(Duration::seconds(2)).observe(service.observation_source());
  spec.with(std::move(policies), config.seed);
  (void)episode.start(std::move(spec));
  testbed.sim().run_for(Duration::seconds(40));

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
  std::string name;
  /// The row writes <stem>.json and compares it with bench/<stem>.baseline.json.
  std::string stem;
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
     .stem = "BENCH_scalability_sweep7",
     .run = cross_domain,
     .invariants = {kConverged},
     .keys = {"pods2_final_ns", "pods4_final_ns"}},
    {.name = "sweep8",
     .stem = "BENCH_scalability_sweep8",
     .run = federated_evacuation,
     .invariants = {kConverged},
     .keys = {"evac_done_ns", "final_ns"}},
    {.name = "sweep9",
     .stem = "BENCH_scalability_sweep9",
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
     .stem = "BENCH_scalability_sweep10",
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
     .stem = "BENCH_scalability_sweep11",
     .run = [] { return clos_evacuation(/*topology_blind=*/false); },
     .invariants = {kEveryVmLands, kConverged},
     .comparison = [] { return clos_evacuation(/*topology_blind=*/true); },
     .outcome = {{"the leaf-aware plan is no worse than the topology-blind run",
                  [](const Metrics& m) {
                    return m.at("aware_makespan_ns") <= m.at("blind_makespan_ns");
                  }}},
     .keys = {"evac_done_ns", "final_ns", "waves", "aware_makespan_ns", "blind_makespan_ns"}},
    {.name = "policies",
     .stem = "BENCH_ablation_policies",
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

/// Key/value-text pairs in emission order.
using Json = std::vector<std::pair<std::string, std::string>>;

bool write_json(const std::string& path, const Json& values) {
  std::ofstream out(path);
  out << "{\n";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << "  \"" << values[i].first << "\": " << values[i].second
        << (i + 1 < values.size() ? "," : "") << "\n";
  }
  out << "}\n";
  out.close();
  return !out.fail();
}

/// Reads a flat JSON object as key -> value text. A missing file reads as
/// empty, so every emitted key then fails as unpinned.
std::map<std::string, std::string> read_baseline(const std::string& path) {
  std::ifstream in(path);
  const std::string s((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::map<std::string, std::string> values;
  std::size_t pos = 0;
  while ((pos = s.find('"', pos)) != std::string::npos) {
    const std::size_t key_end = s.find('"', pos + 1);
    if (key_end == std::string::npos) {
      break;
    }
    const std::size_t begin = s.find_first_not_of(" \t\r\n:", key_end + 1);
    if (begin == std::string::npos) {
      break;
    }
    const std::size_t end = s.find_first_of(" \t\r\n,}", begin);
    values[s.substr(pos + 1, key_end - pos - 1)] = s.substr(begin, end - begin);
    pos = end;
  }
  return values;
}

/// Runs one row, prints its failures and a summary line, and returns
/// whether it passed.
bool run_gate(const Gate& g) {
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

  Json emitted;
  for (const std::string& k : g.keys) {
    emitted.emplace_back(k, std::to_string(m.at(k)));
  }
  if (!write_json(g.stem + ".json", emitted)) {
    failures.push_back("cannot write " + g.stem + ".json");
  }

  const std::string baseline = std::string(NM_BENCH_DIR) + "/" + g.stem + ".baseline.json";
  std::map<std::string, std::string> pinned = read_baseline(baseline);
  for (const auto& [key, value] : emitted) {
    const auto it = pinned.find(key);
    if (it == pinned.end()) {
      failures.push_back(key + " = " + value + " is not pinned in " + baseline);
      continue;
    }
    if (it->second != value) {
      failures.push_back(key + " = " + value + ", but " + baseline + " pins " + it->second);
    }
    pinned.erase(it);
  }
  for (const auto& [key, value] : pinned) {
    failures.push_back(key + " = " + value + " is pinned in " + baseline + " but not emitted");
  }

  for (const std::string& f : failures) {
    std::cout << "FAIL " << g.name << ": " << f << "\n";
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::cout << g.name << ": " << (failures.empty() ? "ok" : "FAILED") << ", "
            << emitted.size() << " values vs " << baseline << " ("
            << TextTable::num(wall_s, 1) << " s)" << std::endl;
  return failures.empty();
}

}  // namespace

int main() {
  bool ok = true;
  for (const Gate& g : kGates) {
    ok = run_gate(g) && ok;
  }
  return ok ? 0 : 1;
}
