// The host-side VMM (one QEMU/KVM instance manager per physical node):
// VM lifecycle, the host PCI inventory for passthrough devices, calibrated
// PCI hotplug operations, and live migration entry points.
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/node.h"
#include "net/eth_fabric.h"
#include "net/ib_fabric.h"
#include "net/port.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "vmm/migration.h"
#include "vmm/storage.h"
#include "vmm/vm.h"

namespace nm::vmm {

/// Calibrated PCI hotplug latencies. Defaults reproduce Table II exactly:
///   IB->IB  : detach + attach + confirm = 2.67+1.02+0.13 = 3.82 (~3.88)
///   IB->Eth : detach + confirm          = 2.67+0.13      = 2.80
///   Eth->IB : attach + confirm          = 1.02+0.13      = 1.15
///   Eth->Eth: confirm                   = 0.13
struct HotplugTiming {
  Duration detach_ib = Duration::seconds(2.67);
  Duration attach_ib = Duration::seconds(1.02);
  Duration detach_eth = Duration::millis(50);
  Duration attach_eth = Duration::millis(50);
  /// Guest-side coordinator confirmation step.
  Duration confirm = Duration::seconds(0.13);
  /// Empirical slowdown of hotplug while a whole-cluster migration is in
  /// flight ("migration noise", paper §IV-B2 observes ~3x).
  double noise_factor = 1.0;
};

class Host {
 public:
  /// `router` carries the host's guest-compute and shared-memory flows; a
  /// FluidNet router lets them span domains when hosts are carved into
  /// per-blade domains.
  Host(sim::Simulation& sim, sim::FlowRouter& router, hw::Node& node,
       SharedStorage& storage, HotplugTiming timing = {}, MigrationConfig migration = {});
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] const std::string& name() const { return node_->name(); }
  [[nodiscard]] hw::Node& node() { return *node_; }
  [[nodiscard]] sim::Simulation& simulation() { return *sim_; }
  [[nodiscard]] sim::FlowRouter& router() { return *router_; }
  [[nodiscard]] SharedStorage& storage() { return *storage_; }
  [[nodiscard]] MigrationEngine& migration_engine() { return migration_; }

  // --- Network wiring ----------------------------------------------------
  /// Connects this host's Ethernet uplink (migration traffic + virtio
  /// bridging go through it) and gives the host its own IP.
  void connect_eth(net::EthFabric& fabric, net::NicPort& uplink);
  [[nodiscard]] net::EthFabric& eth_fabric();
  [[nodiscard]] net::NicPort& eth_uplink();
  [[nodiscard]] net::AttachmentPtr eth_attachment();

  /// Registers a passthrough-capable InfiniBand HCA present on this host
  /// (the paper's "04:00.0"). With `vf_count` > 1 the adapter is an SR-IOV
  /// device: up to vf_count VMs can each hold a virtual function, all
  /// sharing the physical port's bandwidth (the paper names SR-IOV next to
  /// PCI passthrough as the VMM-bypass technologies in scope).
  void register_hca(const std::string& host_pci_addr, net::IbFabric& fabric,
                    net::NicPort& port, int vf_count = 1);
  [[nodiscard]] bool hca_available(const std::string& host_pci_addr) const;
  [[nodiscard]] net::IbFabric* ib_fabric();

  // --- VM lifecycle ------------------------------------------------------
  std::shared_ptr<Vm> launch(VmSpec spec);
  [[nodiscard]] bool resident(const Vm& vm) const;
  [[nodiscard]] std::vector<std::shared_ptr<Vm>> vms() const { return vms_; }
  [[nodiscard]] std::shared_ptr<Vm> find_vm(const std::string& name) const;

  /// Boot-time convenience: adds a virtio NIC (no hotplug latency).
  VirtioNetDevice& add_virtio_net(Vm& vm, const std::string& tag,
                                  VirtioNetCosts costs = {});

  // --- Monitor-level operations (QEMU `device_add`/`device_del`/`migrate`)
  /// Hot-attaches the host HCA at `host_pci_addr` to `vm` as `tag`.
  /// Takes attach_ib * noise_factor; link training runs afterwards.
  [[nodiscard]] sim::Task device_add(Vm& vm, std::string host_pci_addr, std::string tag);
  /// Hot-detaches device `tag`; a passthrough HCA returns to the host pool.
  [[nodiscard]] sim::Task device_del(Vm& vm, std::string tag);
  /// Pre-copy live migration of `vm` to `dst`. `bandwidth_cap` optionally
  /// pins this one migration to a planned rate; `control` optionally
  /// routes the loop's decision points through a policy (see
  /// MigrationEngine::migrate).
  [[nodiscard]] sim::Task migrate(
      Vm& vm, Host& dst, MigrationStats* stats = nullptr,
      double bandwidth_cap = std::numeric_limits<double>::infinity(),
      const MigrationControl* control = nullptr);

 private:
  friend class MigrationEngine;
  void adopt(std::shared_ptr<Vm> vm);
  std::shared_ptr<Vm> evict(Vm& vm);

  struct HcaSlot {
    net::IbFabric* fabric = nullptr;
    net::NicPort* port = nullptr;
    int vf_count = 1;
    int vfs_in_use = 0;
  };

  sim::Simulation* sim_;
  sim::FlowRouter* router_;
  hw::Node* node_;
  SharedStorage* storage_;
  HotplugTiming timing_;
  MigrationEngine migration_;

  net::EthFabric* eth_fabric_ = nullptr;
  net::NicPort* eth_uplink_ = nullptr;
  net::AttachmentPtr eth_attachment_;

  std::map<std::string, HcaSlot> hcas_;
  std::vector<std::shared_ptr<Vm>> vms_;
};

}  // namespace nm::vmm
