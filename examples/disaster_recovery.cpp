// Disaster recovery (paper §II): "VMs are evacuated from a
// disaster-affected data center to a safe data center before those VMs
// crash." The two data centers are real here: a core::Federation couples
// two testbeds on one clock across a calibrated inter-datacenter link
// (sim::WanLink — RTT, line rate, loss-driven Mathis throughput ceiling),
// and the evacuation crosses it. Interconnect transparency widens the set
// of acceptable refuges: the safe site has no InfiniBand at all, and fewer
// free machines than the job has VMs — the evacuation consolidates 4 VMs
// onto 2 hosts and the job continues over TCP.
//
//   $ ./examples/disaster_recovery [lan|metro|wan]
//
// Link calibrations (EXPERIMENTS.md):
//   lan    back-to-back 10 GbE, no impairments (the old single-site story)
//   metro  5 ms RTT, 1 Gbps, 0.01 % loss (same metro area, ~100 km)
//   wan    50 ms RTT, 1 Gbps, 0.1 % loss (continental, the paper's target)
#include <iostream>
#include <string>

#include "core/federation.h"
#include "core/job.h"
#include "util/table.h"
#include "workloads/npb.h"

using namespace nm;

namespace {

sim::WanLinkConfig calibration(const std::string& name) {
  sim::WanLinkConfig wan;
  if (name == "lan") {
    wan.line_rate = Bandwidth::gbps(10);
  } else if (name == "metro") {
    wan.line_rate = Bandwidth::gbps(1);
    wan.rtt = Duration::millis(5);
    wan.loss = 0.0001;
  } else {  // "wan"
    wan.line_rate = Bandwidth::gbps(1);
    wan.rtt = Duration::millis(50);
    wan.loss = 0.001;
  }
  return wan;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cal = argc > 1 ? argv[1] : "wan";

  // The safe site: Ethernet-only, and only a couple of free hosts.
  core::TestbedConfig safe;
  safe.ib_nodes = 0;
  safe.eth_nodes = 2;
  core::FederationConfig fcfg;
  fcfg.sites = {{"a", core::TestbedConfig{}}, {"b", safe}};
  fcfg.edges = {{0, 1, calibration(cal)}};
  core::Federation fed(fcfg);
  sim::WanLink& wan = fed.wan_link(0);

  std::cout << "link calibration '" << cal << "': rtt " << wan.current_rtt() << ", loss "
            << wan.config().loss * 100.0 << " %, effective "
            << TextTable::num(wan.effective_rate() / 1e6, 1) << " MB/s of "
            << TextTable::num(wan.config().line_rate.bytes_per_second() / 1e6, 1)
            << " MB/s line rate\n";

  core::JobConfig config;
  config.name = "evacuee";
  config.vm_count = 4;
  config.ranks_per_vm = 4;  // 16 MPI processes
  core::MpiJob job(fed.site(0), config);
  // Let the scheduler resolve destination names on either site.
  job.scheduler().set_secondary_resolver(fed.resolver());
  job.init();

  // A long-running CFD-style workload (the LU kernel model, shrunk).
  workloads::NpbSpec spec = workloads::npb_lu_class_d();
  spec.iterations = 120;
  spec.compute_per_iter = 1.0;
  spec.footprint_per_vm = Bytes::gib(6);
  std::vector<workloads::NpbResult> results(job.rank_count());
  job.launch([&job, spec, &results](mpi::RankId me) -> sim::Task {
    co_await workloads::run_npb_rank(job, me, spec,
                                     &results[static_cast<std::size_t>(me)]);
  });

  // t=45 s: earthquake early warning — evacuate NOW, across the WAN. Only
  // b:eth0/b:eth1 have spare capacity at the safe site.
  core::NinjaStats stats;
  bool evacuated = false;
  fed.sim().spawn([](core::Federation& f, core::MpiJob& j, core::NinjaStats& st,
                     bool& done) -> sim::Task {
    co_await f.sim().delay(Duration::seconds(45));
    std::cout << "[t=" << f.sim().now().to_seconds()
              << "s] disaster alert: evacuating 4 VMs -> {b:eth0, b:eth1}\n";
    std::vector<std::string> dests;
    dests.assign({"b:eth0", "b:eth1", "b:eth0", "b:eth1"});
    co_await j.tcp_migration(std::move(dests), &st);
    done = true;
    std::cout << "[t=" << f.sim().now().to_seconds() << "s] evacuation complete in "
              << st.total << " (VM data moved: ~"
              << TextTable::num(st.per_vm.empty()
                                    ? 0.0
                                    : st.per_vm[0].wire_bytes.to_gib() * 4,
                                2)
              << " GiB over the WAN)\n";
  }(fed, job, stats, evacuated));

  fed.sim().run();

  std::cout << "\nevacuated: " << (evacuated ? "yes" : "NO") << "\n";
  std::cout << "job completed all " << results[0].iterations_done
            << " iterations without restart; final placement:\n";
  for (const auto& vm : job.vms()) {
    std::cout << "  " << vm->name() << " -> " << vm->host().name() << "\n";
  }
  std::cout << "transport after evacuation: " << job.current_transport()
            << " (the safe site has no InfiniBand — and that was fine)\n";
  std::cout << "boundary exchange: worst settle "
            << fed.net().max_exchange_rounds_per_settle() << " rounds, unconverged "
            << fed.unconverged_exchange_count() << "\n";
  return 0;
}
