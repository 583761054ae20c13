// The modelled AGC testbed (paper Table I): 16 Dell M610 blades in one
// enclosure — 8 on the QDR InfiniBand switch (M3601Q) + all 16 on the
// 10 GbE switch (M8024) — NFS shared storage, one QEMU/KVM host per blade.
//
// Testbed is the composition root: it owns the simulation, the fluid
// scheduler, fabrics, nodes, ports, and hosts, and provides the host-name
// resolver used by monitors and the cloud scheduler.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "net/clos_fabric.h"
#include "net/eth_fabric.h"
#include "net/ib_fabric.h"
#include "net/port.h"
#include "sim/fluid.h"
#include "sim/fluid_net.h"
#include "sim/simulation.h"
#include "vmm/host.h"
#include "vmm/storage.h"

namespace nm::core {

struct TestbedConfig {
  int ib_nodes = 8;   // blades with both IB HCA and 10 GbE
  int eth_nodes = 8;  // blades with 10 GbE only
  hw::NodeSpec blade_spec;  // name is per-node; other fields are defaults
  net::IbFabricConfig ib;
  net::EthFabricConfig eth;
  vmm::HotplugTiming hotplug;
  vmm::MigrationConfig migration;
  /// Intra-site Ethernet topology. Disabled (the default) keeps the flat
  /// single-switch enclosure byte-identical to the seed; enabled builds a
  /// net::ClosFabric behind the Ethernet fabric and assigns blade i to
  /// leaf i / hosts_per_leaf in boot order (ib blades first). host_rate
  /// should match eth.line_rate; the fabric must have at least
  /// ib_nodes + eth_nodes host ports. The IB fabric stays flat — the
  /// paper's M3601Q is a single non-blocking switch.
  net::ClosConfig clos;
  /// SR-IOV virtual functions per HCA (1 = plain PCI passthrough).
  int hca_vfs = 1;
  /// Number of FluidDomain shards the testbed's FluidNet starts with. With
  /// blade_domains off the whole (fully connected) enclosure lands on
  /// domain 0 and the remaining shards are free for caller-built disjoint
  /// zones. Timelines are bit-identical at every count >= 2, which all
  /// settle through the SolvePool; one shard settles by zero-delay posts
  /// and can differ from them by a few ns (sim_sharding_test pins both).
  int fluid_shards = 1;
  /// Carve each blade — its CPU and its NIC ports — into its own fluid
  /// domain, bridged to the shared zone (fabrics + NFS storage stay on
  /// domain 0) by boundary flows: a transfer then crosses the source
  /// blade's tx, the destination blade's rx, and the shared resources as a
  /// cross-domain flow solved by the boundary exchange (DESIGN.md §6).
  bool blade_domains = false;
  std::uint64_t seed = 1;

  TestbedConfig() {
    blade_spec.cores = 8.0;                       // 2x quad-core Xeon E5540
    blade_spec.memory = Bytes::gib(48);           // DDR3-1066
    blade_spec.mem_write_bw = Bandwidth::gib_per_sec(3.0);
  }
};

class Testbed {
 public:
  /// Standalone testbed: owns its Simulation, FluidNet and NFS storage.
  explicit Testbed(TestbedConfig config = {});
  /// Federated testbed: builds the same enclosure inside an externally
  /// owned simulation/net (one shared clock across sites; see
  /// core/federation.h). Every domain, fabric, host and node name is
  /// prefixed with "<site>:" so the two sites' namespaces stay disjoint,
  /// and `shared_storage` (when given) is mounted instead of a private NFS
  /// store — cross-site migration requires the shared mount. The config's
  /// `seed` is ignored here: it belongs to the federation's shared
  /// simulation.
  Testbed(TestbedConfig config, sim::Simulation& sim, sim::FluidNet& net, std::string site,
          vmm::SharedStorage* shared_storage = nullptr);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] const TestbedConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulation& sim() { return *sim_; }
  /// The domain-aware flow façade: routes a FlowSpec to the domain owning
  /// its resources, registering cross-domain specs as boundary flows.
  [[nodiscard]] sim::FluidNet& net() { return *net_; }
  /// The domain owning `res` (nullptr when unregistered or foreign).
  [[nodiscard]] sim::FluidDomain* domain_of(const sim::FluidResource& res) {
    return net_->domain_of(res);
  }
  [[nodiscard]] std::size_t domain_count() const { return net_->domain_count(); }
  [[nodiscard]] sim::FluidDomain& domain(std::size_t i) { return net_->domain(i); }
  [[nodiscard]] net::IbFabric& ib_fabric() { return *ib_fabric_; }
  [[nodiscard]] net::EthFabric& eth_fabric() { return *eth_fabric_; }
  /// The intra-site Clos topology behind the Ethernet fabric; nullptr for
  /// the flat seed enclosure.
  [[nodiscard]] net::ClosFabric* clos() { return clos_.get(); }
  /// Leaf of `host`'s Ethernet uplink; ClosFabric::kSpineAttach when flat.
  [[nodiscard]] int leaf_of(vmm::Host& host);
  [[nodiscard]] vmm::SharedStorage& storage() { return *storage_; }
  /// The domain holding this testbed's shared resources (fabrics, NFS):
  /// domain 0 standalone, this site's first domain under a federation. A
  /// WAN link's endpoint for this site registers here.
  [[nodiscard]] sim::FluidDomain& zone_domain() { return net_->domain(zone_index_); }
  /// "<site>:" under a federation, empty standalone.
  [[nodiscard]] const std::string& name_prefix() const { return prefix_; }

  [[nodiscard]] int ib_host_count() const { return config_.ib_nodes; }
  [[nodiscard]] int eth_host_count() const { return config_.eth_nodes; }
  /// Host on the InfiniBand cluster ("ib0".."ib7").
  [[nodiscard]] vmm::Host& ib_host(int i);
  /// Host on the Ethernet-only cluster ("eth0".."eth7").
  [[nodiscard]] vmm::Host& eth_host(int i);
  [[nodiscard]] vmm::Host* find_host(const std::string& name);
  [[nodiscard]] std::vector<vmm::Host*> all_hosts();

  /// The PCI address every blade's HCA sits at (paper Fig 5).
  static constexpr const char* kHcaPciAddr = "04:00.0";

  /// Boots a VM on `host` with a virtio NIC; when `with_hca` is true the
  /// host's HCA is assigned at boot (no hotplug latency; link training
  /// still applies, so allow ~30 s of simulated time before traffic).
  std::shared_ptr<vmm::Vm> boot_vm(vmm::Host& host, vmm::VmSpec spec, bool with_hca);

  /// Lets every boot-time link finish training.
  void settle();

 private:
  /// Adds this testbed's `fluid_shards` initial domains to the net. The
  /// first one added (recorded as zone_index_) is the zone every shared
  /// resource registers into; under a federation the net already holds the
  /// other sites' domains, so the zone is not globally domain 0.
  void init_shards();
  /// Everything after simulation/net/prefix wiring: shards, storage (when
  /// not shared), fabrics, blades, hosts. Identical for both ownership
  /// modes so a standalone and a federated site are byte-for-byte the same
  /// enclosure.
  void build();

  TestbedConfig config_;
  // Standalone mode owns these; a federated testbed aliases the
  // federation's. Declared net-after-sim so destruction detaches the pool
  // (removing the kernel hook) while the simulation is alive — same
  // invariant as before the Federation split.
  std::unique_ptr<sim::Simulation> owned_sim_;
  std::unique_ptr<sim::FluidNet> owned_net_;
  sim::Simulation* sim_ = nullptr;
  sim::FluidNet* net_ = nullptr;
  std::string prefix_;
  std::size_t zone_index_ = 0;
  std::unique_ptr<vmm::SharedStorage> owned_storage_;
  vmm::SharedStorage* storage_ = nullptr;
  std::unique_ptr<net::IbFabric> ib_fabric_;
  std::unique_ptr<net::EthFabric> eth_fabric_;
  std::unique_ptr<net::ClosFabric> clos_;
  hw::Cluster ib_cluster_;
  hw::Cluster eth_cluster_;
  std::vector<std::unique_ptr<net::NicPort>> ports_;
  std::vector<std::unique_ptr<vmm::Host>> hosts_;
};

}  // namespace nm::core
