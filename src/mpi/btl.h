// The Byte Transfer Layer (BTL) framework, after Open MPI's: one module
// per transport per process, selected per peer by *exclusivity* (higher
// wins). The paper's mechanism rests on exactly this: `tcp` has
// exclusivity 100, `openib` 1024, so whenever an InfiniBand path exists it
// is preferred, and reconstruction after a migration re-runs the selection
// against whatever devices the VM now has.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "guestos/drivers.h"
#include "net/fabric.h"
#include "sim/task.h"
#include "util/units.h"

namespace nm::mpi {

using RankId = int;

/// Exclusivity constants (Open MPI defaults cited in the paper §III-C).
inline constexpr int kExclusivitySelf = 64 * 1024;
inline constexpr int kExclusivitySm = 4 * 1024;
inline constexpr int kExclusivityOpenIb = 1024;
inline constexpr int kExclusivityTcp = 100;

/// Peer reachability info published through the modex (the out-of-band
/// address exchange run at MPI_Init and at every BTL reconstruction).
struct ModexEntry {
  std::uint64_t vm_id = 0;                              // for sm reachability
  net::FabricAddress ip = net::kInvalidAddress;         // tcp endpoint
  net::FabricAddress lid = net::kInvalidAddress;        // openib endpoint
};

class BtlModule {
 public:
  virtual ~BtlModule() = default;
  BtlModule() = default;
  BtlModule(const BtlModule&) = delete;
  BtlModule& operator=(const BtlModule&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual int exclusivity() const = 0;
  /// Can this module carry traffic to `peer` (per the modex snapshot)?
  [[nodiscard]] virtual bool can_reach(const ModexEntry& peer) const = 0;
  /// Is the module's own device still present and trained? A module that
  /// turns invalid (device hot-removed, stale LID) forces reconstruction.
  [[nodiscard]] virtual bool valid() const = 0;
  /// Moves `bytes` to the peer. Pre: can_reach(peer) at last modex.
  [[nodiscard]] virtual sim::Task put(const ModexEntry& peer, Bytes bytes) = 0;
  /// Releases transport resources (OPAL CRS pre-checkpoint phase).
  virtual void release_resources() {}
};

/// Intra-VM shared-memory transport.
class SmBtl final : public BtlModule {
 public:
  SmBtl(vmm::Vm& vm, Bandwidth copy_rate = Bandwidth::gib_per_sec(3.0));

  [[nodiscard]] std::string_view name() const override { return "sm"; }
  [[nodiscard]] int exclusivity() const override { return kExclusivitySm; }
  [[nodiscard]] bool can_reach(const ModexEntry& peer) const override;
  [[nodiscard]] bool valid() const override { return true; }
  [[nodiscard]] sim::Task put(const ModexEntry& peer, Bytes bytes) override;

 private:
  vmm::Vm* vm_;
  Bandwidth copy_rate_;
};

/// TCP over the virtio NIC.
class TcpBtl final : public BtlModule {
 public:
  explicit TcpBtl(guest::VirtioNetDriver& driver) : driver_(&driver) {}

  [[nodiscard]] std::string_view name() const override { return "tcp"; }
  [[nodiscard]] int exclusivity() const override { return kExclusivityTcp; }
  [[nodiscard]] bool can_reach(const ModexEntry& peer) const override {
    return peer.ip != net::kInvalidAddress;
  }
  [[nodiscard]] bool valid() const override { return driver_->ready(); }
  [[nodiscard]] sim::Task put(const ModexEntry& peer, Bytes bytes) override;

 private:
  guest::VirtioNetDriver* driver_;
};

/// InfiniBand verbs over the VMM-bypass HCA. Holds the LID the local port
/// had when the module was built and lazily-created queue pairs per peer —
/// both go stale across a detach/re-attach, which is why the module reports
/// invalid and must be reconstructed (paper §III-C).
class OpenIbBtl final : public BtlModule {
 public:
  explicit OpenIbBtl(guest::IbVerbsDriver& driver);

  [[nodiscard]] std::string_view name() const override { return "openib"; }
  [[nodiscard]] int exclusivity() const override { return kExclusivityOpenIb; }
  [[nodiscard]] bool can_reach(const ModexEntry& peer) const override {
    return peer.lid != net::kInvalidAddress;
  }
  [[nodiscard]] bool valid() const override;
  [[nodiscard]] sim::Task put(const ModexEntry& peer, Bytes bytes) override;
  void release_resources() override;

  [[nodiscard]] net::FabricAddress local_lid() const { return local_lid_; }

 private:
  guest::IbVerbsDriver* driver_;
  net::FabricAddress local_lid_;  // snapshot at module construction
  std::map<net::FabricAddress, net::IbFabric::QueuePair> peer_qps_;
};

}  // namespace nm::mpi
