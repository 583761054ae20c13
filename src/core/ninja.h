// Ninja migration: the paper's contribution. Orchestrates an
// interconnect-transparent migration of all the VMs of an MPI job between
// clusters with different interconnects, by composing:
//   - a checkpoint request into the MPI runtime (CRCP quiesce + SELF
//     callbacks = the SymVirt coordinators),
//   - a SymVirt controller + agents driving each VM's monitor through the
//     three windows (detach -> migrate -> re-attach),
//   - the cloud scheduler's knowledge of host lists and PCI ids (Fig 5).
//
// The phase timings it records are exactly the decomposition reported in
// Fig 4 / Table II / Fig 6: coordination, hotplug (detach + attach +
// confirm), migration, and link-up.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "policy/policy.h"
#include "util/timeline.h"
#include "mpi/runtime.h"
#include "symvirt/controller.h"
#include "symvirt/coordinator.h"
#include "symvirt/generic.h"
#include "vmm/migration.h"

namespace nm::core {

/// What the cloud scheduler hands Ninja for one migration episode.
struct MigrationPlan {
  std::vector<std::shared_ptr<vmm::Vm>> vms;
  /// Destination host *candidates*. The kEpisodeStart policy assigns each
  /// VM a candidate; StaticPolicy (the default) reproduces the historical
  /// round-robin `destinations[i % size]` expansion (fewer hosts than VMs
  /// = server consolidation).
  std::vector<std::string> destinations;
  /// Hot-detach this device tag in window A when present on the VMs.
  std::string hca_tag = "vf0";
  /// Relocate through shared storage (checkpoint on the source, restore on
  /// the destination) instead of live pre-copy — the paper's §II proactive
  /// fault-tolerance mode ("restart VMs on an Ethernet cluster from
  /// checkpointed VM images on an Infiniband cluster").
  bool via_storage = false;
  /// Re-attach the destination hosts' HCA in window C (recovery
  /// migration); leave empty for a fallback to an Ethernet-only cluster.
  std::string attach_host_pci;
  std::size_t ranks_per_vm = 1;
};

/// Phase breakdown of one Ninja episode.
struct NinjaStats {
  Duration coordination = Duration::zero();  // request -> all parked
  Duration detach = Duration::zero();
  Duration migration = Duration::zero();
  Duration attach = Duration::zero();
  /// Confirm + link training + BTL reconstruction (until the job resumes).
  Duration linkup = Duration::zero();
  Duration total = Duration::zero();
  std::vector<vmm::MigrationStats> per_vm;
  /// Phase spans on the simulated clock (render with timeline.render()).
  Timeline timeline;

  /// The paper's "hotplug" figure: detach + re-attach + confirm. The
  /// confirm constant is folded into linkup during measurement, so we
  /// report it explicitly.
  [[nodiscard]] Duration hotplug(Duration confirm) const {
    return detach + attach + confirm;
  }
  [[nodiscard]] Duration linkup_excl_confirm(Duration confirm) const {
    return linkup >= confirm ? linkup - confirm : Duration::zero();
  }
};

/// Everything a NinjaMigrator is built from (the PolicySet-bearing
/// config, mirroring the FlowSpec idiom): the cloud scheduler's name
/// resolver, coordinator timings, and the decision plug-ins consulted at
/// the episode's clocked hook points. A default-constructed `policies` is
/// StaticPolicy everywhere — the legacy behavior, bit for bit.
struct NinjaConfig {
  /// Maps destination host names (the cloud scheduler's host list) to VMM
  /// hosts. Required.
  vmm::Monitor::HostResolver resolver;
  symvirt::CoordinatorTiming timing = {};
  /// kEpisodeStart picks destinations / defers; kPreCopyRound and
  /// kPauseDecision steer each VM's migration loop.
  policy::PolicySet policies;
  /// Fills the SLO half of each Observation (null members are fine).
  policy::ObservationSource source;
  /// Seeds the policies' named Rng streams (testbed seed, normally).
  std::uint64_t seed = 0;
};

class NinjaMigrator {
 public:
  NinjaMigrator(sim::Simulation& sim, mpi::MpiRuntime& runtime, NinjaConfig config);

  /// Installs the SymVirt coordinator as the job's SELF callbacks.
  void install_coordinator();
  [[nodiscard]] symvirt::Coordinator& coordinator() { return coordinator_; }
  [[nodiscard]] const NinjaConfig& config() const { return config_; }

  /// Runs one full Ninja episode (fallback or recovery, depending on
  /// whether `plan.attach_host_pci` is set). Completes when the job has
  /// resumed with reconstructed transports.
  [[nodiscard]] sim::Task execute(MigrationPlan plan, NinjaStats* stats = nullptr);

 private:
  sim::Simulation* sim_;
  mpi::MpiRuntime* runtime_;
  NinjaConfig config_;
  symvirt::Coordinator coordinator_;
};

/// Runs one Ninja episode for a *non-MPI* application coordinated through
/// symvirt::GenericCoordinator (one per VM; the paper's §VII future work).
/// Each coordinator must already have callbacks installed and its app must
/// call service_point() regularly. `policies`/`source`/`seed` plug the
/// same hook points as NinjaConfig; the defaults are the legacy behavior.
[[nodiscard]] sim::Task run_generic_episode(
    sim::Simulation& sim,
    const std::vector<std::shared_ptr<symvirt::GenericCoordinator>>& coordinators,
    MigrationPlan plan, vmm::Monitor::HostResolver resolver, NinjaStats* stats = nullptr,
    policy::PolicySet policies = {}, policy::ObservationSource source = {},
    std::uint64_t seed = 0);

/// The cloud scheduler: owns placement knowledge (which hosts form the
/// InfiniBand and Ethernet clusters, where the HCAs sit) and builds
/// migration plans from it.
class CloudScheduler {
 public:
  explicit CloudScheduler(Testbed& testbed) : testbed_(&testbed) {}

  /// Plan a fallback migration onto the first `host_count` Ethernet hosts.
  [[nodiscard]] MigrationPlan fallback_plan(std::vector<std::shared_ptr<vmm::Vm>> vms,
                                            int host_count, std::size_t ranks_per_vm) const;
  /// Plan a recovery migration back onto the InfiniBand hosts (HCAs are
  /// re-attached in window C).
  [[nodiscard]] MigrationPlan recovery_plan(std::vector<std::shared_ptr<vmm::Vm>> vms,
                                            int host_count, std::size_t ranks_per_vm) const;
  /// Plan a migration onto IB hosts *without* re-attaching HCAs ("4 hosts
  /// (TCP)" in Fig 8) or onto arbitrary hosts by name.
  [[nodiscard]] MigrationPlan tcp_plan(std::vector<std::shared_ptr<vmm::Vm>> vms,
                                       std::vector<std::string> destinations,
                                       std::size_t ranks_per_vm) const;

  /// Resolver consulted by migration monitors: the owning testbed first,
  /// then the secondary resolver (when set). Reads the secondary at call
  /// time, so installing one after jobs were constructed still takes
  /// effect.
  [[nodiscard]] vmm::Monitor::HostResolver resolver() const;

  /// Extends destination-name resolution beyond the owning testbed — e.g.
  /// a Federation::resolver() so evacuation plans may name peer-site hosts
  /// ("b:eth0").
  void set_secondary_resolver(vmm::Monitor::HostResolver fallback) {
    secondary_ = std::move(fallback);
  }

 private:
  Testbed* testbed_;
  vmm::Monitor::HostResolver secondary_;
};

}  // namespace nm::core
