#include "core/federation.h"

#include <algorithm>
#include <set>

#include "util/error.h"

namespace nm::core {

Federation::Federation(FederationConfig config)
    : config_(std::move(config)), sim_(config_.seed), net_(sim_) {
  // Normalize the two-site shorthand into the mesh form so everything
  // downstream is N-site code.
  if (config_.sites.empty()) {
    config_.sites.push_back({"a", config_.site_a});
    config_.sites.push_back({"b", config_.site_b});
    config_.edges.push_back({0, 1, config_.wan});
  }
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
                                                  config_.geo_storage_rate);

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

  routes_.assign(n, std::vector<std::vector<std::size_t>>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        routes_[i][j] = bfs_route(i, j, [](const Edge&) { return true; });
      }
    }
  }
  install_fabric_routes();
}

template <typename AliveFn>
std::vector<std::size_t> Federation::bfs_route(std::size_t from, std::size_t to,
                                               AliveFn alive) const {
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> parent_edge(sites_.size(), kUnvisited);
  std::vector<bool> seen(sites_.size(), false);
  std::vector<std::size_t> frontier{from};
  seen[from] = true;
  while (!frontier.empty() && !seen[to]) {
    std::vector<std::size_t> next;
    for (std::size_t site : frontier) {
      for (std::size_t e = 0; e < edges_.size(); ++e) {
        const Edge& edge = edges_[e];
        if (!alive(edge)) {
          continue;
        }
        std::size_t far;
        if (edge.a == site) {
          far = edge.b;
        } else if (edge.b == site) {
          far = edge.a;
        } else {
          continue;
        }
        if (seen[far]) {
          continue;
        }
        seen[far] = true;
        parent_edge[far] = e;
        next.push_back(far);
      }
    }
    frontier = std::move(next);
  }
  if (!seen[to]) {
    return {};
  }
  std::vector<std::size_t> hops;
  for (std::size_t site = to; site != from;) {
    std::size_t e = parent_edge[site];
    hops.push_back(e);
    site = edges_[e].a == site ? edges_[e].b : edges_[e].a;
  }
  std::reverse(hops.begin(), hops.end());
  return hops;
}

void Federation::install_fabric_routes() {
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    for (std::size_t j = 0; j < sites_.size(); ++j) {
      if (i == j || routes_[i][j].empty()) {
        continue;
      }
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

void Federation::recompute_routes() {
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    for (std::size_t j = 0; j < sites_.size(); ++j) {
      if (i == j) {
        continue;
      }
      std::vector<std::size_t> live =
          bfs_route(i, j, [](const Edge& e) { return !e.link->partitioned(); });
      if (!live.empty()) {
        routes_[i][j] = std::move(live);
      }
      // else: keep the previous route — traffic freezes on the dead edge
      // instead of erroring, and heals in place.
    }
  }
  install_fabric_routes();
}

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

Testbed* Federation::site_by_name(const std::string& name) {
  for (std::size_t i = 0; i < site_names_.size(); ++i) {
    if (site_names_[i] == name) {
      return sites_[i].get();
    }
  }
  return nullptr;
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
