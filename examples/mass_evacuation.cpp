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
// and realize a fraction of their planned rates, which stretches the
// makespan; the aware plan's rates are exactly realized. Both modes print
// their p99 and max per-VM downtime (0.00 ms for both); only the aware run
// is held to the bound.
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

#include "policy/policies.h"
#include "scenarios/evacuation.h"
#include "util/table.h"

using namespace nm;

namespace {

struct RunResult {
  core::EvacuationReport report;
  std::size_t fleet = 0;
};

/// Drains `fleet` out of site 0 of `mesh` while every VM keeps dirtying its
/// hot regions.
RunResult run(const core::FederationConfig& mesh, scenarios::Fleet fleet,
              core::EvacuationConfig ecfg) {
  core::Federation fed(mesh);
  fleet.hot_regions = true;
  scenarios::Drain drain(fed, fleet, std::move(ecfg));
  fed.sim().run();
  return {drain.report(), drain.fleet_size()};
}

// 256 MiB of live (incompressible) data above each VM's 256 MiB OS.
RunResult run_mode(bool sequential, int vms_per_host, bool swap_policy = false) {
  core::EvacuationConfig ecfg;
  ecfg.sequential = sequential;
  if (swap_policy) {
    // Wave grants place VMs inside a site through the policy instead of
    // MassEvacuation's built-in most-free-slots pick.
    ecfg.policies.use(policy::Hook::kWaveGrant,
                      std::make_shared<policy::DestinationSwapPolicy>());
  }
  return run(scenarios::metro_mesh(50, 16),
             {.vms_per_host = vms_per_host, .memory = Bytes::gib(2), .data = Bytes::mib(256)},
             std::move(ecfg));
}

// dc0 racks 24 hosts 8 per leaf. Equal-size VMs with 1.5 GiB of live data
// each, so the blind plan's big-first order degenerates to boot order and
// its first waves drain entirely through leaf 0.
RunResult run_clos(bool topology_blind) {
  core::EvacuationConfig ecfg;
  ecfg.topology_blind = topology_blind;
  ecfg.planner.stream_rate_cap = scenarios::kClosStreamRate;
  return run(scenarios::clos_mesh(8),
             {.vms_per_host = 2, .memory = Bytes::gib(2), .data = Bytes::mib(1536)},
             std::move(ecfg));
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

  const Duration bound = scenarios::metro_mesh(50, 16).sites[0].testbed.migration.max_downtime;
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
  const RunResult aware = run_clos(/*topology_blind=*/false);
  const RunResult blind = run_clos(/*topology_blind=*/true);
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
