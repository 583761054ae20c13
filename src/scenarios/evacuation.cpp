#include "scenarios/evacuation.h"

#include <cstdint>
#include <string>
#include <utility>

namespace nm::scenarios {
namespace {

core::TestbedConfig eth_site(int hosts) {
  core::TestbedConfig site;
  site.ib_nodes = 0;
  site.eth_nodes = hosts;
  return site;
}

/// A site racked under `leaves` Clos leaves of `hosts_per_leaf` hosts.
core::TestbedConfig clos_site(int leaves, int hosts_per_leaf, double oversubscription) {
  core::TestbedConfig site = eth_site(leaves * hosts_per_leaf);
  site.clos.leaves = leaves;
  site.clos.spines = 1;
  site.clos.hosts_per_leaf = hosts_per_leaf;
  site.clos.oversubscription = oversubscription;
  site.migration.thread_send_rate = kClosStreamRate;
  return site;
}

sim::Task dirty_hot_regions(sim::Simulation& sim, std::shared_ptr<vmm::Vm> vm, Bytes os,
                            std::size_t i, const bool& done) {
  co_await sim.delay(Duration::millis(static_cast<std::int64_t>(i % 9973)));
  for (std::size_t slot = i; !done; ++slot) {
    vm->memory().write_data(os + Bytes::mib(32 * (slot % 8)), Bytes::mib(32));
    co_await sim.delay(Duration::seconds(10));
  }
}

sim::Task drain(core::MassEvacuation& evac, core::EvacuationReport& report, bool& done) {
  co_await evac.run(&report);
  done = true;
}

}  // namespace

core::FederationConfig metro_mesh(int source_hosts, int refuge_hosts) {
  core::FederationConfig fcfg;
  const core::TestbedConfig refuge = eth_site(refuge_hosts);
  fcfg.sites = {{"dc0", eth_site(source_hosts)},
                {"dc1", refuge},
                {"dc2", refuge},
                {"dc3", refuge},
                {"dc4", refuge}};
  sim::WanLinkConfig metro;
  metro.line_rate = Bandwidth::gbps(1);
  metro.rtt = Duration::millis(5);
  metro.loss = 0.0001;
  fcfg.edges = {{0, 1, metro}, {0, 2, metro}, {0, 3, metro}, {1, 4, metro}, {2, 4, metro}};
  return fcfg;
}

core::FederationConfig clos_mesh(int hosts_per_leaf) {
  core::FederationConfig fcfg;
  const core::TestbedConfig refuge = clos_site(2, hosts_per_leaf / 2, 2.0);
  fcfg.sites = {{"dc0", clos_site(3, hosts_per_leaf, 4.0)}, {"dc1", refuge}, {"dc2", refuge}};
  sim::WanLinkConfig wan;
  wan.line_rate = Bandwidth::gbps(40);
  wan.rtt = Duration::millis(5);
  wan.loss = 0.00001;
  fcfg.edges = {{0, 1, wan}, {0, 2, wan}};
  fcfg.uplink_rate = Bandwidth::gbps(100);
  return fcfg;
}

Drain::Drain(core::Federation& fed, const Fleet& fleet, core::EvacuationConfig config)
    : fed_(fed), evac_(fed, std::move(config)) {
  core::Testbed& source = fed.site(0);
  const Bytes os = fleet.memory / 8;
  for (int h = 0; h < source.eth_host_count(); ++h) {
    for (int v = 0; v < fleet.vms_per_host; ++v) {
      vmm::VmSpec spec;
      spec.name = "vm-" + std::to_string(h) + "-" + std::to_string(v);
      spec.memory = fleet.memory;
      spec.base_os_footprint = os;
      vms_.push_back(source.boot_vm(source.eth_host(h), spec, /*with_hca=*/false));
      vms_.back()->memory().write_data(os, fleet.data);
    }
  }
  fed.settle();
  for (std::size_t i = 0; fleet.hot_regions && i < vms_.size(); ++i) {
    fed.sim().spawn(dirty_hot_regions(fed.sim(), vms_[i], os, i, done_));
  }
  fed.sim().spawn(drain(evac_, report_, done_), "drain");
}

}  // namespace nm::scenarios
