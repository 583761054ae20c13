// Fabric: a switched interconnect with an address space. Concrete fabrics
// are IbFabric (LIDs reassigned on every attach; ~30 s link training) and
// EthFabric (stable IP addresses that follow a migrating VM via rebind()).
//
// An Attachment is the logical presence of an adapter on the fabric — the
// thing a transport layer holds. It carries the link state machine
// (Down -> Polling -> Active) whose training delay is the paper's "link-up
// time" (Table II).
#pragma once

#include <cstdint>
#include <vector>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "net/port.h"
#include "sim/fluid.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/error.h"
#include "util/units.h"

namespace nm::sim {
class WanLink;
}  // namespace nm::sim

namespace nm::net {

class ClosFabric;
class Fabric;

/// One WAN hop of a cross-fabric route: leave the current site through
/// `egress` (tx side), cross `wan` (both endpoint resources — the shared
/// medium), arrive through `ingress` (rx side) at fabric `to`.
struct WanHop {
  NicPort* egress = nullptr;
  sim::WanLink* wan = nullptr;
  NicPort* ingress = nullptr;
  Fabric* to = nullptr;
};

enum class LinkState { kDown, kPolling, kActive };
[[nodiscard]] std::string_view to_string(LinkState s);

/// Fabric-scoped address (an InfiniBand LID or a modelled IPv4 host id).
using FabricAddress = std::uint32_t;
inline constexpr FabricAddress kInvalidAddress = 0;

class Attachment {
 public:
  [[nodiscard]] LinkState state() const { return state_; }
  [[nodiscard]] FabricAddress address() const { return address_; }
  [[nodiscard]] NicPort& port() { return *port_; }
  [[nodiscard]] Fabric& fabric() { return *fabric_; }

  /// Awaitable: resumes once the link is Active (after training).
  [[nodiscard]] auto wait_active() { return active_gate_.opened(); }

  /// Receive-side resources every inbound transfer consumes (e.g. the
  /// owning VM's vhost thread). Registered by the owning device.
  void set_rx_shares(std::vector<sim::ResourceShare> shares) { rx_shares_ = std::move(shares); }

 private:
  friend class Fabric;
  Attachment(sim::Simulation& sim, Fabric& fabric, NicPort& port)
      : fabric_(&fabric), port_(&port), active_gate_(sim, /*initially_open=*/false) {}

  Fabric* fabric_;
  NicPort* port_;
  LinkState state_ = LinkState::kDown;
  FabricAddress address_ = kInvalidAddress;
  sim::Gate active_gate_;
  std::uint64_t activation_epoch_ = 0;
  std::vector<sim::ResourceShare> rx_shares_;
};

using AttachmentPtr = std::shared_ptr<Attachment>;

/// Per-transfer cost shaping. The transport layer (virtio/TCP vs VMM-bypass
/// verbs vs migration thread) decides what a byte costs.
struct TransferOptions {
  /// Core-seconds charged to the source node's CPU per byte (TCP tx path).
  double src_cpu_per_byte = 0.0;
  /// Core-seconds charged to the destination node's CPU per byte.
  double dst_cpu_per_byte = 0.0;
  /// Hard cap on the transfer rate in bytes/s (protocol or thread limit).
  double max_rate = std::numeric_limits<double>::infinity();
  /// Extra sender-side resources the transfer consumes (e.g. the sending
  /// VM's single vhost thread).
  std::vector<sim::ResourceShare> extras;
};

struct FabricSpec {
  std::string name;
  /// One-way propagation + switching latency for a message.
  Duration latency = Duration::micros(10);
  /// Time from plug-in until the port reports Active (paper: ~29.9 s for
  /// InfiniBand after re-attach, ~0 for Ethernet).
  Duration linkup_time = Duration::zero();
  /// Whether addresses survive detach/attach cycles (IP yes, LID no).
  bool stable_addresses = false;
  /// First address handed out is address_base + 1. Federated fabrics give
  /// each site a disjoint base (core/federation.cpp) so a cross-site
  /// destination can never shadow a local one.
  FabricAddress address_base = 0;
};

class Fabric {
 public:
  /// `router` carries every transfer's bandwidth flow. A plain
  /// FluidScheduler works when all endpoints live in one domain; a FluidNet
  /// additionally lets a transfer span domains (src tx in one blade's
  /// domain, dst rx in another's) as a boundary flow.
  Fabric(sim::FlowRouter& router, FabricSpec spec);
  virtual ~Fabric() = default;
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] const FabricSpec& spec() const { return spec_; }
  [[nodiscard]] Duration latency() const { return spec_.latency; }
  [[nodiscard]] sim::Simulation& simulation() { return router_->simulation(); }
  [[nodiscard]] sim::FlowRouter& router() { return *router_; }

  /// Plugs `port` into the fabric: allocates an address and starts link
  /// training. The returned attachment reaches Active after linkup_time.
  AttachmentPtr attach(NicPort& port);

  /// Unplugs: the address is released; in-flight lookups start failing.
  void detach(const AttachmentPtr& att);

  /// Re-binds a *stable-address* attachment to a new physical port (a VM's
  /// virtio NIC following the VM to another host). Keeps the address.
  void rebind(const AttachmentPtr& att, NicPort& new_port);

  /// Address lookup; nullptr when the address is stale/absent.
  [[nodiscard]] AttachmentPtr find(FabricAddress addr) const;

  /// Moves `bytes` from `src` to the attachment at `dst_addr`, honouring
  /// latency, line rates, CPU costs and caps. Throws OperationError if
  /// either end is not Active when the transfer starts.
  [[nodiscard]] sim::Task transfer(AttachmentPtr src, FabricAddress dst_addr, Bytes bytes,
                                   TransferOptions opts = {});

  /// Registers (or replaces) the one-way WAN route to `dst`: a destination
  /// address that does not resolve locally is looked up on every routed
  /// fabric in registration order, and a matching transfer crosses each
  /// hop's egress uplink → WAN endpoint pair → ingress uplink in addition
  /// to the usual NIC/CPU shares. Every hop's `to` must be set and the last
  /// hop's `to` must be `dst`; address spaces must be disjoint. Re-routing
  /// (after a partition) replaces the hop list; transfers already past
  /// their route lookup keep the hops they copied.
  void add_route(Fabric& dst, std::vector<WanHop> hops);

  /// Planning rate for src → dst_addr, bytes/s: the min line rate along the
  /// path, folded with every crossed WAN's current *effective* (model) rate
  /// when the destination lives on a routed fabric. Migration estimators
  /// must read this — not the raw local line rate — or they under-estimate
  /// stop-and-copy time across a lossy link. Throws OperationError for an
  /// unknown address.
  [[nodiscard]] double path_rate(const AttachmentPtr& src, FabricAddress dst_addr) const;

  /// Installs an intra-site Clos topology (net/clos_fabric.h): every local
  /// transfer additionally crosses the deterministic-ECMP leaf/spine path
  /// between the two ports' leaves, a cross-site transfer crosses the
  /// source leaf's up-segment here and the destination leaf's down-segment
  /// on the landing fabric, and path_rate folds the topology bottleneck.
  /// Ports never assigned to a leaf (WAN gateway uplinks) attach at the
  /// top tier. Null (the default) keeps the flat single-switch model
  /// byte-identical to the seed.
  void set_topology(ClosFabric* topology) { topology_ = topology; }
  [[nodiscard]] ClosFabric* topology() const { return topology_; }

 protected:
  sim::FlowRouter* router_;
  FabricSpec spec_;

 private:
  struct Route {
    Fabric* dst = nullptr;
    std::vector<WanHop> hops;
  };
  /// Attachment + route for a cross-fabric address; {nullptr, nullptr}
  /// when no routed fabric owns it.
  [[nodiscard]] std::pair<AttachmentPtr, const Route*> find_remote(FabricAddress addr) const;

  FabricAddress next_address_;
  std::map<FabricAddress, std::weak_ptr<Attachment>> by_address_;
  std::uint64_t epoch_counter_ = 0;
  ClosFabric* topology_ = nullptr;
  std::vector<Route> routes_;
};

}  // namespace nm::net
