// Mass evacuation (ROADMAP: "N-site federation + mass-evacuation
// planner"): a 1000-VM data center is evacuated across a 5-site WanLink
// mesh before a deadline. The plan::EvacuationPlanner spreads the fleet
// over every reachable site (capacity/swap-aware destination selection),
// batches migrations into waves that respect per-edge bandwidth, and pins
// each migration to its max-min planned rate so concurrent waves never
// oversubscribe a link — which also keeps every VM's stop-and-copy
// downtime inside MigrationConfig::max_downtime. The naive-sequential
// baseline (one migration at a time, input order) runs on an identical
// federation for comparison.
//
//   sites: dc0 (evacuating, 50 hosts x 20 VMs)
//          dc1, dc2, dc3 (direct edges from dc0)
//          dc4 (reachable only via dc1/dc2 — exercises multi-hop routes)
//
// A second scenario rebuilds the mesh with oversubscribed Clos fabrics
// inside every site (net::ClosFabric; 4:1 at the source) and compares the
// topology-aware driver — leaf-uplink slots, destination-leaf incast
// limits, pod spreading — against a topology-blind one that plans as if
// each site were flat. Blind waves concentrate on the first source racks
// and realize a fraction of their planned rates, stretching makespan and
// busting the downtime bound; the aware plan's rates are exactly
// realized.
//
//   $ ./examples/mass_evacuation [vms_per_host]
//
// Exits non-zero unless the planner beats the sequential baseline, the
// p99 per-VM downtime respects the configured bound, the topology-aware
// Clos evacuation strictly beats the blind one while keeping every VM
// inside the bound.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/evacuation_driver.h"
#include "core/federation.h"
#include "policy/policies.h"
#include "util/table.h"

using namespace nm;

namespace {

core::FederationConfig mesh_config(int vms_per_host) {
  (void)vms_per_host;
  core::FederationConfig fcfg;
  core::TestbedConfig source;
  source.ib_nodes = 0;
  source.eth_nodes = 50;
  core::TestbedConfig refuge;
  refuge.ib_nodes = 0;
  refuge.eth_nodes = 16;
  fcfg.sites = {{"dc0", source}, {"dc1", refuge}, {"dc2", refuge},
                {"dc3", refuge}, {"dc4", refuge}};
  sim::WanLinkConfig metro;  // EXPERIMENTS.md metro calibration
  metro.line_rate = Bandwidth::gbps(1);
  metro.rtt = Duration::millis(5);
  metro.loss = 0.0001;
  fcfg.edges = {{0, 1, metro}, {0, 2, metro}, {0, 3, metro},
                {1, 4, metro}, {2, 4, metro}};
  return fcfg;
}

struct RunResult {
  core::EvacuationReport report;
  std::size_t fleet = 0;
};

// Boots the fleet, keeps every VM dirtying memory while the evacuation
// runs, and returns the report. `swap_policy` routes the wave grants'
// in-site host placement through policy::DestinationSwapPolicy instead of
// the driver's built-in most-free-slots pick.
RunResult run_mode(bool sequential, int vms_per_host, bool swap_policy = false) {
  core::Federation fed(mesh_config(vms_per_host));

  std::vector<std::shared_ptr<vmm::Vm>> vms;
  auto& source = fed.site(0);
  for (int h = 0; h < source.eth_host_count(); ++h) {
    for (int v = 0; v < vms_per_host; ++v) {
      vmm::VmSpec spec;
      spec.name = "vm-" + std::to_string(h) + "-" + std::to_string(v);
      spec.memory = Bytes::gib(2);
      spec.base_os_footprint = Bytes::mib(256);
      auto vm = fed.site(0).boot_vm(source.eth_host(h), spec, /*with_hca=*/false);
      // Half a GiB of live (incompressible) data per VM.
      vm->memory().write_data(Bytes::mib(256), Bytes::mib(256));
      vms.push_back(std::move(vm));
    }
  }
  fed.settle();

  // Light guest activity: each VM re-dirties one of eight 32 MiB hot
  // regions every 10 s (staggered), so pre-copy has real iterative work
  // and the downtime bound is earned, not vacuous.
  bool evacuation_done = false;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    fed.sim().spawn([](sim::Simulation& sim, std::shared_ptr<vmm::Vm> vm, std::size_t seed,
                       const bool& done) -> sim::Task {
      co_await sim.delay(Duration::millis(static_cast<std::int64_t>(seed % 9973)));
      std::size_t slot = seed;
      while (!done) {
        vm->memory().write_data(Bytes::mib(256 + 32 * static_cast<std::int64_t>(slot % 8)),
                                Bytes::mib(32));
        slot += 1;
        co_await sim.delay(Duration::seconds(10));
      }
    }(fed.sim(), vms[i], i, evacuation_done));
  }

  core::EvacuationConfig ecfg;
  ecfg.source_site = 0;
  ecfg.sequential = sequential;
  if (swap_policy) {
    ecfg.policies.use(policy::Hook::kWaveGrant,
                      std::make_shared<policy::DestinationSwapPolicy>());
  }
  core::MassEvacuation evac(fed, ecfg);
  RunResult result;
  result.fleet = vms.size();
  fed.sim().spawn([](core::MassEvacuation& e, core::EvacuationReport& report,
                     bool& done) -> sim::Task {
    co_await e.run(&report);
    done = true;
  }(evac, result.report, evacuation_done));
  fed.sim().run();
  return result;
}

// --- Clos scenario: 4:1-oversubscribed fabrics inside every site. -------
// dc0 evacuates 24 hosts racked 8-per-leaf under 3 leaves; dc1/dc2 accept
// on 2 leaves x 4 hosts each. Refuge fabrics are 2:1, so each refuge leaf
// can absorb four full-rate streams while a source leaf can feed five.
// The migration thread is provisioned at 4 Gbps so intra-site capacity,
// not the sender CPU, is the binding constraint.

constexpr double kClosStreamCap = 500e6;  // bytes/s, = 4 Gbps thread rate

core::FederationConfig clos_mesh_config() {
  core::FederationConfig fcfg;
  core::TestbedConfig source;
  source.ib_nodes = 0;
  source.eth_nodes = 24;
  source.clos.leaves = 3;
  source.clos.spines = 1;
  source.clos.hosts_per_leaf = 8;
  source.clos.oversubscription = 4.0;  // leaf uplink 2.5 GB/s vs 10 GB/s of hosts
  source.migration.thread_send_rate = kClosStreamCap;
  core::TestbedConfig refuge;
  refuge.ib_nodes = 0;
  refuge.eth_nodes = 8;
  refuge.clos.leaves = 2;
  refuge.clos.spines = 1;
  refuge.clos.hosts_per_leaf = 4;
  refuge.clos.oversubscription = 2.0;  // leaf 2.5 GB/s: four 500 MB/s streams
  refuge.migration.thread_send_rate = kClosStreamCap;
  fcfg.sites = {{"dc0", source}, {"dc1", refuge}, {"dc2", refuge}};
  sim::WanLinkConfig wan;
  wan.line_rate = Bandwidth::gbps(40);
  wan.rtt = Duration::millis(5);
  wan.loss = 0.00001;
  fcfg.edges = {{0, 1, wan}, {0, 2, wan}};
  fcfg.uplink_rate = Bandwidth::gbps(100);  // WAN gateways are not the story here
  return fcfg;
}

struct ClosResult {
  core::EvacuationReport report;
  std::size_t fleet = 0;
};

ClosResult run_clos(bool topology_blind) {
  core::Federation fed(clos_mesh_config());

  std::vector<std::shared_ptr<vmm::Vm>> vms;
  auto& source = fed.site(0);
  for (int h = 0; h < source.eth_host_count(); ++h) {
    for (int v = 0; v < 2; ++v) {
      vmm::VmSpec spec;
      spec.name = "vm-" + std::to_string(h) + "-" + std::to_string(v);
      spec.memory = Bytes::gib(2);
      spec.base_os_footprint = Bytes::mib(256);
      auto vm = fed.site(0).boot_vm(source.eth_host(h), spec, /*with_hca=*/false);
      // Equal-size VMs: 1.5 GiB of live data each, so the blind plan's
      // big-first order degenerates to boot order and its first waves
      // drain entirely through leaf 0.
      vm->memory().write_data(Bytes::mib(256), Bytes::mib(1536));
      vms.push_back(std::move(vm));
    }
  }
  fed.settle();

  bool evacuation_done = false;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    fed.sim().spawn([](sim::Simulation& sim, std::shared_ptr<vmm::Vm> vm, std::size_t seed,
                       const bool& done) -> sim::Task {
      co_await sim.delay(Duration::millis(static_cast<std::int64_t>(seed % 9973)));
      std::size_t slot = seed;
      while (!done) {
        vm->memory().write_data(Bytes::mib(256 + 32 * static_cast<std::int64_t>(slot % 8)),
                                Bytes::mib(32));
        slot += 1;
        co_await sim.delay(Duration::seconds(10));
      }
    }(fed.sim(), vms[i], i, evacuation_done));
  }

  core::EvacuationConfig ecfg;
  ecfg.source_site = 0;
  ecfg.topology_blind = topology_blind;
  ecfg.planner.stream_rate_cap = kClosStreamCap;
  core::MassEvacuation evac(fed, ecfg);
  ClosResult result;
  result.fleet = vms.size();
  fed.sim().spawn([](core::MassEvacuation& e, core::EvacuationReport& report,
                     bool& done) -> sim::Task {
    co_await e.run(&report);
    done = true;
  }(evac, result.report, evacuation_done));
  fed.sim().run();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const int vms_per_host = argc > 1 ? std::stoi(argv[1]) : 20;

  std::cout << "planning a " << 50 * vms_per_host
            << "-VM evacuation over a 5-site mesh (dc4 is two hops out)...\n";
  RunResult planned = run_mode(/*sequential=*/false, vms_per_host);
  std::cout << "planner:    " << planned.report.evacuated << "/" << planned.fleet
            << " VMs in " << planned.report.makespan() << " (" << planned.report.waves
            << " waves)\n";
  RunResult swap = run_mode(/*sequential=*/false, vms_per_host, /*swap_policy=*/true);
  std::cout << "dst-swap:   " << swap.report.evacuated << "/" << swap.fleet
            << " VMs in " << swap.report.makespan() << " (" << swap.report.waves
            << " waves, policy::DestinationSwapPolicy placement)\n";
  RunResult naive = run_mode(/*sequential=*/true, vms_per_host);
  std::cout << "sequential: " << naive.report.evacuated << "/" << naive.fleet << " VMs in "
            << naive.report.makespan() << "\n\n";

  const Duration bound =
      core::Federation(mesh_config(vms_per_host)).site(0).eth_host(0).migration_engine()
          .config().max_downtime;
  TextTable table({"mode", "makespan", "p50 downtime", "p99 downtime", "max downtime"});
  const auto row = [&table](const std::string& mode, const core::EvacuationReport& r) {
    table.add_row({mode, TextTable::num(r.makespan().to_seconds(), 1) + " s",
                   TextTable::num(r.downtime_percentile(0.5).to_seconds() * 1e3, 2) + " ms",
                   TextTable::num(r.downtime_percentile(0.99).to_seconds() * 1e3, 2) + " ms",
                   TextTable::num(r.downtime_max().to_seconds() * 1e3, 2) + " ms"});
  };
  row("planner", planned.report);
  row("dst-swap", swap.report);
  row("sequential", naive.report);
  std::cout << table.to_string();
  std::cout << "\nspeedup: " << TextTable::num(naive.report.makespan().to_seconds() /
                                                   planned.report.makespan().to_seconds(),
                                               2)
            << "x, downtime bound " << bound << " per VM\n";

  bool ok = true;
  if (planned.report.evacuated != planned.fleet || naive.report.evacuated != naive.fleet ||
      swap.report.evacuated != swap.fleet) {
    std::cout << "FAIL: not every VM was evacuated\n";
    ok = false;
  }
  if (planned.report.makespan() >= naive.report.makespan()) {
    std::cout << "FAIL: planner makespan is not strictly below the sequential baseline\n";
    ok = false;
  }
  if (planned.report.downtime_percentile(0.99) > bound ||
      swap.report.downtime_percentile(0.99) > bound) {
    std::cout << "FAIL: p99 downtime exceeds the configured max_downtime\n";
    ok = false;
  }
  if (swap.report.makespan() >= naive.report.makespan()) {
    std::cout << "FAIL: dst-swap placement lost the planner's win over sequential\n";
    ok = false;
  }

  // --- Clos scenario: topology-aware vs topology-blind. -----------------
  std::cout << "\nevacuating a 48-VM fleet out of a 4:1-oversubscribed Clos fabric "
               "(3 leaves x 8 hosts) into two 2-leaf refuges...\n";
  const ClosResult aware = run_clos(/*topology_blind=*/false);
  const ClosResult blind = run_clos(/*topology_blind=*/true);
  TextTable clos_table({"mode", "makespan", "waves", "p99 downtime", "max downtime"});
  const auto clos_row = [&clos_table](const std::string& mode, const core::EvacuationReport& r) {
    clos_table.add_row({mode, TextTable::num(r.makespan().to_seconds(), 1) + " s",
                        std::to_string(r.waves),
                        TextTable::num(r.downtime_percentile(0.99).to_seconds() * 1e3, 2) + " ms",
                        TextTable::num(r.downtime_max().to_seconds() * 1e3, 2) + " ms"});
  };
  clos_row("topology-aware", aware.report);
  clos_row("topology-blind", blind.report);
  std::cout << clos_table.to_string();
  std::cout << "speedup over blind: "
            << TextTable::num(blind.report.makespan().to_seconds() /
                                  aware.report.makespan().to_seconds(),
                              2)
            << "x\n";

  if (aware.report.evacuated != aware.fleet || blind.report.evacuated != blind.fleet) {
    std::cout << "FAIL: the Clos scenario left VMs behind\n";
    ok = false;
  }
  if (aware.report.makespan() >= blind.report.makespan()) {
    std::cout << "FAIL: topology-aware makespan is not strictly below topology-blind\n";
    ok = false;
  }
  if (aware.report.downtime_max() > bound) {
    std::cout << "FAIL: a topology-aware VM exceeded the downtime bound\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
