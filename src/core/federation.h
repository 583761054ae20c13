// Federation: N AGC testbeds coupled on one shared simulation clock by a
// mesh of calibrated WAN links (paper §II's disaster-recovery use case —
// evacuate a site across inter-datacenter links, not across a hallway).
//
// All sites are built inside one FluidNet, so a cross-site transfer is an
// ordinary boundary flow: its shares cross the source blade's tx, then for
// every WAN hop on the route the egress site's switch uplink, the WanLink
// endpoint pair (whose CapPolicy folds the latency/bandwidth/loss model
// into the published ghost caps — DESIGN.md §7) and the ingress site's
// uplink, and finally the destination's rx. Routes are fewest-hops over
// the edge mesh, found by plan::SiteGraph::route — the planner's own BFS,
// so a stream rides the route MassEvacuation rates it on — at construction
// and again against the live mesh after partitions (recompute_routes()).
// Determinism is inherited wholesale: one event queue and canonical-order
// commits (wan_federation_test pins the timelines by value).
//
// The sites mount one geo-replicated shared store (the cross-site
// equivalent of the paper's NFS mount) — live migration requires source and
// destination to share storage.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "plan/evacuation_planner.h"
#include "sim/wan_link.h"
#include "vmm/monitor.h"

namespace nm::core {

struct FederationSiteConfig {
  /// Site prefix for every host/fabric name ("tokyo" → "tokyo:eth0").
  /// Must be unique within the federation and contain no ':'.
  std::string name;
  TestbedConfig testbed;
};

struct FederationEdgeConfig {
  /// Indices into FederationConfig::sites.
  std::size_t a = 0;
  std::size_t b = 0;
  sim::WanLinkConfig wan;
};

struct FederationConfig {
  /// The mesh: at least two named sites plus the WAN edges between them.
  /// Every site should be reachable from every other (unconnected pairs
  /// simply cannot exchange traffic). An edge's WanLinkConfig defaults to
  /// 1 Gbps with no impairments; EXPERIMENTS.md lists the LAN / metro /
  /// WAN calibrations.
  std::vector<FederationSiteConfig> sites;
  std::vector<FederationEdgeConfig> edges;

  /// Line rate of each site's WAN-facing switch uplink ports (one per
  /// incident edge).
  Bandwidth uplink_rate = Bandwidth::gbps(10);
  /// Seed of the shared simulation (the per-site configs' seeds are
  /// ignored; the clock is federation-wide).
  std::uint64_t seed = 1;
};

class Federation {
 public:
  explicit Federation(FederationConfig config);
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  [[nodiscard]] const FederationConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] sim::FluidNet& net() { return net_; }
  [[nodiscard]] vmm::SharedStorage& storage() { return *storage_; }

  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] Testbed& site(std::size_t i) { return *sites_[i]; }
  [[nodiscard]] const std::string& site_name(std::size_t i) const { return site_names_[i]; }

  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] sim::WanLink& wan_link(std::size_t e) { return *edges_[e].link; }

  /// Edge indices of the current fewest-hops route from site `i` to site
  /// `j` (empty when i == j or the pair was unreachable at the last route
  /// computation).
  [[nodiscard]] const std::vector<std::size_t>& route(std::size_t i, std::size_t j) const {
    return routes_[i][j];
  }

  /// Recomputes every pairwise route against the *live* mesh (edges whose
  /// WanLink is not partitioned) and re-registers the fabric routes. A
  /// pair with no live path keeps its previous route, so in-flight and new
  /// transfers on it freeze at rate 0 until the mesh heals rather than
  /// erroring. Deterministic: a pure function of the links' current
  /// factors; call from task context at fixed points in simulated time.
  void recompute_routes();

  /// The mesh as a planner site graph: one vertex per site (in site index
  /// order, free_vm_slots 0 — callers fill capacity), one edge per WAN
  /// link with the link's *nominal* rate (factor-1 line rate folded with
  /// the Mathis ceiling at the current RTT) and no schedule. Drivers
  /// re-check live effective rates at wave grant time instead.
  [[nodiscard]] plan::SiteGraph site_graph() const;

  /// Looks a host up across all sites ("a:ib3", "b:eth0").
  [[nodiscard]] vmm::Host* find_host(const std::string& name);
  /// Resolver covering every site — hand it to a CloudScheduler's
  /// set_secondary_resolver so migration plans may name peer-site hosts.
  [[nodiscard]] vmm::Monitor::HostResolver resolver();
  /// The domain owning `res`, across every site (nullptr when foreign).
  [[nodiscard]] sim::FluidDomain* domain_of(const sim::FluidResource& res) {
    return net_.domain_of(res);
  }

  /// Lets every boot-time link on all sites finish training.
  void settle();

  /// Settles that hit the boundary exchange's round cap, federation-wide
  /// (every site and the WAN mesh share one pool). The other exchange
  /// counters are read through net().
  [[nodiscard]] std::size_t unconverged_exchange_count() const {
    return net_.unconverged_exchange_count();
  }

 private:
  struct Edge {
    std::size_t a = 0;
    std::size_t b = 0;
    net::NicPort* uplink_a = nullptr;
    net::NicPort* uplink_b = nullptr;
    std::unique_ptr<sim::WanLink> link;
  };

  /// Sets every pair's route to its SiteGraph::route over the mesh —
  /// partitioned edges dead when `skip_partitioned`, every edge alive
  /// otherwise — keeping the previous route of a pair with none, and
  /// registers the routes into the sites' eth fabrics.
  void route_mesh(bool skip_partitioned);

  FederationConfig config_;
  sim::Simulation sim_;
  // Destroyed after everything below: the net's pool detaches schedulers
  // while the simulation is alive.
  sim::FluidNet net_;
  std::unique_ptr<vmm::SharedStorage> storage_;
  std::vector<std::string> site_names_;
  std::vector<std::unique_ptr<Testbed>> sites_;
  hw::Cluster gateways_{"wan-gw"};
  std::vector<std::unique_ptr<net::NicPort>> uplinks_;
  // After sites_: WanLink destructors detach cap policies from resources
  // registered in the sites' schedulers.
  std::vector<Edge> edges_;
  std::vector<std::vector<std::vector<std::size_t>>> routes_;
};

}  // namespace nm::core
