#include "core/federation.h"

#include <algorithm>
#include <set>

#include "util/error.h"

namespace nm::core {
namespace {

/// Throughput of the geo-replicated store all sites mount.
constexpr Bandwidth kGeoStorageRate = Bandwidth::mib_per_sec(300);

}  // namespace

Federation::Federation(FederationConfig config)
    : config_(std::move(config)), sim_(config_.seed), net_(sim_) {
  const std::size_t n = config_.sites.size();
  NM_CHECK(n >= 2, "a federation needs at least two sites");
  {
    std::set<std::string> names;
    for (const FederationSiteConfig& site : config_.sites) {
      NM_CHECK(!site.name.empty() && site.name.find(':') == std::string::npos,
               "federation site name '" << site.name << "' must be non-empty and ':'-free");
      NM_CHECK(names.insert(site.name).second,
               "duplicate federation site name '" << site.name << "'");
    }
  }
  std::set<std::pair<std::size_t, std::size_t>> edge_pairs;
  for (const FederationEdgeConfig& edge : config_.edges) {
    NM_CHECK(edge.a < n && edge.b < n && edge.a != edge.b,
             "federation edge (" << edge.a << ", " << edge.b << ") is not a valid site pair");
    NM_CHECK(edge_pairs.insert({std::min(edge.a, edge.b), std::max(edge.a, edge.b)}).second,
             "duplicate federation edge between sites " << edge.a << " and " << edge.b);
  }

  // Cross-site transfers resolve addresses locally first, so the sites'
  // eth address spaces must be pairwise disjoint or a routed destination
  // could shadow a local one and deliver to the wrong site. Respect
  // explicitly configured bases; re-base colliders onto the lowest free
  // 2^16-aligned block (N-safe — the old code special-cased exactly two
  // sites).
  {
    std::set<net::FabricAddress> used;
    for (FederationSiteConfig& site : config_.sites) {
      net::FabricAddress base = site.testbed.eth.address_base;
      for (net::FabricAddress block = 0; !used.insert(base).second; ++block) {
        base = block << 16;
      }
      site.testbed.eth.address_base = base;
    }
  }

  // The geo-replicated store lives in its own core domain: it is equally
  // remote from every site, and every VM's disk traffic reaches it as a
  // boundary flow regardless of which site the VM runs on.
  auto& core_domain = net_.add_domain("wan-core");
  storage_ = std::make_unique<vmm::SharedStorage>(net_, core_domain.scheduler(), "geo",
                                                  kGeoStorageRate);

  for (const FederationSiteConfig& site : config_.sites) {
    site_names_.push_back(site.name);
    sites_.push_back(
        std::make_unique<Testbed>(site.testbed, sim_, net_, site.name, storage_.get()));
  }

  // One WAN link per mesh edge, its endpoint resources registered in the
  // two incident sites' zone domains, so a flow crossing the edge always
  // finds exactly one endpoint foreign — the hook the exchange consults
  // the link's CapPolicy through. Each side gets its own gateway uplink
  // port (a site's edges don't share uplink queues).
  auto add_uplink = [&](std::size_t site, std::size_t edge_index) -> net::NicPort& {
    hw::NodeSpec spec;
    spec.name = site_names_[site] + ":gw" + std::to_string(edge_index);
    auto& node = gateways_.add_node(sites_[site]->zone_domain(), spec);
    uplinks_.push_back(
        std::make_unique<net::NicPort>(node, spec.name + ":uplink", config_.uplink_rate));
    return *uplinks_.back();
  };
  for (std::size_t e = 0; e < config_.edges.size(); ++e) {
    const FederationEdgeConfig& ec = config_.edges[e];
    Edge edge;
    edge.a = ec.a;
    edge.b = ec.b;
    edge.uplink_a = &add_uplink(ec.a, e);
    edge.uplink_b = &add_uplink(ec.b, e);
    edge.link = std::make_unique<sim::WanLink>(
        sim_, sites_[ec.a]->zone_domain().scheduler(), sites_[ec.b]->zone_domain().scheduler(),
        site_names_[ec.a] + "-" + site_names_[ec.b], ec.wan);
    edges_.push_back(std::move(edge));
  }

  // Every edge is alive at construction, even one whose schedule opens
  // partitioned: the first recompute_routes() steers around it.
  routes_.assign(n, std::vector<std::vector<std::size_t>>(n));
  route_mesh(/*skip_partitioned=*/false);
}

void Federation::route_mesh(bool skip_partitioned) {
  plan::SiteGraph mesh;
  mesh.sites.resize(sites_.size());
  for (const Edge& edge : edges_) {
    const bool alive = !skip_partitioned || !edge.link->partitioned();
    mesh.edges.push_back({edge.a, edge.b, alive ? 1.0 : 0.0, {}});
  }
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    for (std::size_t j = 0; j < sites_.size(); ++j) {
      std::vector<std::size_t> route = mesh.route(i, j, 0.0);
      if (route.empty()) {
        // Keep the previous route: traffic freezes on the dead edge
        // instead of erroring, and heals in place.
        continue;
      }
      routes_[i][j] = std::move(route);
      std::vector<net::WanHop> hops;
      std::size_t cur = i;
      for (std::size_t e : routes_[i][j]) {
        const Edge& edge = edges_[e];
        const bool forward = edge.a == cur;
        const std::size_t far = forward ? edge.b : edge.a;
        hops.push_back(net::WanHop{forward ? edge.uplink_a : edge.uplink_b, edge.link.get(),
                                   forward ? edge.uplink_b : edge.uplink_a,
                                   &sites_[far]->eth_fabric()});
        cur = far;
      }
      sites_[i]->eth_fabric().add_route(sites_[j]->eth_fabric(), std::move(hops));
    }
  }
}

void Federation::recompute_routes() { route_mesh(/*skip_partitioned=*/true); }

plan::SiteGraph Federation::site_graph() const {
  plan::SiteGraph graph;
  for (const std::string& name : site_names_) {
    graph.sites.push_back({name, 0});
  }
  for (const Edge& edge : edges_) {
    graph.edges.push_back({edge.a, edge.b, edge.link->nominal_rate(), {}});
  }
  return graph;
}

vmm::Host* Federation::find_host(const std::string& name) {
  for (auto& site : sites_) {
    if (vmm::Host* host = site->find_host(name)) {
      return host;
    }
  }
  return nullptr;
}

vmm::Monitor::HostResolver Federation::resolver() {
  return [this](const std::string& name) { return find_host(name); };
}

void Federation::settle() {
  Duration window = Duration::zero();
  for (const FederationSiteConfig& site : config_.sites) {
    window = std::max(window, site.testbed.ib.linkup_time + site.testbed.hotplug.attach_ib +
                                  Duration::seconds(1.0));
  }
  sim_.run_for(window);
}

}  // namespace nm::core
