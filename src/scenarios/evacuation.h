// The evacuation scenarios: site drains over a WanLink mesh. Site 0 boots
// a fleet and MassEvacuation drains it onto the other sites.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/evacuation_driver.h"
#include "core/federation.h"
#include "scenarios/counters.h"

namespace nm::scenarios {

/// The 5-site metro mesh (EXPERIMENTS.md calibration: 1 Gbps, 5 ms RTT,
/// 0.01 % loss per edge). dc0 has `source_hosts` Ethernet hosts; dc1-dc3
/// are its direct neighbours and dc4 is two hops out, so multi-hop routes
/// carry real traffic. Every refuge has `refuge_hosts` hosts.
core::FederationConfig metro_mesh(int source_hosts, int refuge_hosts);

/// Bytes/s of one migration stream in the Clos mesh: the migration
/// thread's send rate, provisioned at 4 Gbps so that intra-site capacity,
/// not the sender CPU, binds.
inline constexpr double kClosStreamRate = 500e6;

/// The 3-site Clos mesh. dc0 racks 3 x `hosts_per_leaf` hosts under three
/// 4:1-oversubscribed leaves and one spine, so each leaf uplink carries a
/// quarter of its hosts' 10 Gbps; dc1 and dc2 each rack
/// 2 x `hosts_per_leaf`/2 hosts under two 2:1 leaves, so a refuge leaf
/// absorbs as many full-rate streams as it has hosts. 40 Gbps WAN edges
/// from dc0 and 100 Gbps gateways keep the WAN out of the story.
core::FederationConfig clos_mesh(int hosts_per_leaf);

/// The VMs site 0 boots on each of its Ethernet hosts.
struct Fleet {
  int vms_per_host = 0;
  /// Each VM's memory; its base OS takes an eighth of it.
  Bytes memory;
  /// Live (incompressible) data written right above the OS.
  Bytes data;
  /// While the drain runs, VM i re-dirties one of eight 32 MiB hot regions
  /// above its OS every 10 s, the first after i mod 9973 ms, so pre-copy
  /// has iterative work and the downtime bound is earned.
  bool hot_regions = false;
};

/// Boots `fleet` on site 0 (VM `vm-<host>-<i>`), settles, and starts
/// MassEvacuation under `config`. The caller runs the simulation.
class Drain {
 public:
  Drain(core::Federation& fed, const Fleet& fleet, core::EvacuationConfig config);
  Drain(const Drain&) = delete;
  Drain& operator=(const Drain&) = delete;

  [[nodiscard]] std::size_t fleet_size() const { return vms_.size(); }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] const core::EvacuationReport& report() const { return report_; }
  [[nodiscard]] Counters counters() { return scenarios::counters(fed_.net()); }

 private:
  core::Federation& fed_;
  std::vector<std::shared_ptr<vmm::Vm>> vms_;
  core::MassEvacuation evac_;
  core::EvacuationReport report_;
  bool done_ = false;
};

}  // namespace nm::scenarios
