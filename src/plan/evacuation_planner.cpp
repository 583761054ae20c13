#include "plan/evacuation_planner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

namespace nm::plan {

double EdgeSpec::capacity_at(double t) const {
  double factor = 1.0;
  for (const EdgePhase& phase : schedule) {
    if (phase.at > t) {
      break;
    }
    factor = phase.capacity_factor;
  }
  return rate * factor;
}

std::vector<std::size_t> SiteGraph::route(std::size_t from, std::size_t to, double t) const {
  if (from == to || from >= sites.size() || to >= sites.size()) {
    return {};
  }
  // BFS with parent-edge recording; neighbours are visited in edge-index
  // order so the first shortest path found is deterministic.
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> parent_edge(sites.size(), kUnvisited);
  std::vector<std::size_t> frontier{from};
  std::vector<bool> seen(sites.size(), false);
  seen[from] = true;
  while (!frontier.empty() && !seen[to]) {
    std::vector<std::size_t> next;
    for (std::size_t site : frontier) {
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const EdgeSpec& edge = edges[e];
        if (edge.capacity_at(t) <= 0.0) {
          continue;
        }
        std::size_t far = kUnvisited;
        if (edge.a == site) {
          far = edge.b;
        } else if (edge.b == site) {
          far = edge.a;
        } else {
          continue;
        }
        if (far >= sites.size() || seen[far]) {
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
    site = edges[e].a == site ? edges[e].b : edges[e].a;
  }
  std::reverse(hops.begin(), hops.end());
  return hops;
}

double SiteGraph::bottleneck(const std::vector<std::size_t>& route, double t) const {
  if (route.empty()) {
    return 0.0;
  }
  double rate = kNever;
  for (std::size_t e : route) {
    rate = std::min(rate, edges[e].capacity_at(t));
  }
  return rate;
}

SiteGraph SiteGraph::without_leaves() const {
  SiteGraph flat;
  flat.sites = sites;
  flat.edges = edges;
  std::vector<bool> leafy(sites.size(), false);
  std::vector<int> slots(sites.size(), 0);
  for (const LeafSpec& leaf : leaves) {
    if (leaf.site >= sites.size()) {
      continue;
    }
    leafy[leaf.site] = true;
    slots[leaf.site] += std::max(0, leaf.free_vm_slots);
  }
  for (std::size_t s = 0; s < flat.sites.size(); ++s) {
    if (leafy[s]) {
      flat.sites[s].free_vm_slots = slots[s];
    }
  }
  return flat;
}

double SiteGraph::next_phase_after(double t) const {
  double next = kNever;
  for (const EdgeSpec& edge : edges) {
    for (const EdgePhase& phase : edge.schedule) {
      if (phase.at > t) {
        next = std::min(next, phase.at);
        break;
      }
    }
  }
  return next;
}

EvacuationPlanner::EvacuationPlanner(SiteGraph graph, PlannerConfig config)
    : graph_(std::move(graph)), config_(config) {}

namespace {

double stream_duration(const VmToMove& vm, double rate, const PlannerConfig& config) {
  // Pre-copy interleaves page walks with sends chunk by chunk, so both
  // terms are serial per stream.
  return config.per_vm_setup + vm.scan_bytes / config.scan_rate + vm.bytes / rate;
}

/// Streams a leaf uplink can feed at the full per-stream rate; admitting
/// more would plan rates the fabric cannot realize, stretching blackouts.
int uplink_slots(double capacity, const PlannerConfig& config) {
  if (capacity <= 0.0) {
    return 0;
  }
  return std::max(1, static_cast<int>(capacity / config.stream_rate_cap));
}

/// Concurrent inbound streams a destination leaf accepts per wave.
int incast_slots(double capacity, const PlannerConfig& config) {
  if (capacity <= 0.0) {
    return 0;
  }
  return std::min(config.max_streams_per_dst_leaf,
                  std::max(1, static_cast<int>(capacity / config.stream_rate_cap)));
}

/// Progressive filling: raise every unfrozen stream together; freeze the
/// streams crossing the first capacity that saturates (or that hit the
/// per-stream cap). Stream s takes one unit of every capacity index in
/// `units[s]`.
std::vector<double> max_min_rates(const std::vector<std::vector<std::size_t>>& units,
                                  std::vector<double> residual, double stream_cap) {
  const std::size_t n = units.size();
  std::vector<double> rate(n, 0.0);
  std::vector<bool> frozen(n, false);
  std::size_t active = n;
  for (;;) {
    // Freeze streams that cannot grow: at the per-stream cap, over a
    // saturated (or dead) capacity, or with no route at all.
    for (std::size_t s = 0; s < n; ++s) {
      if (frozen[s]) {
        continue;
      }
      bool done = rate[s] >= stream_cap - 1e-9 || units[s].empty();
      for (std::size_t e : units[s]) {
        if (residual[e] <= 1e-9) {
          done = true;
          break;
        }
      }
      if (done) {
        frozen[s] = true;
        --active;
      }
    }
    if (active == 0) {
      break;
    }
    // Smallest headroom over any capacity with unfrozen streams, in
    // fair-share terms, and the smallest remaining distance to the cap.
    double step = kNever;
    for (std::size_t e = 0; e < residual.size(); ++e) {
      int users = 0;
      for (std::size_t s = 0; s < n; ++s) {
        if (!frozen[s] && std::find(units[s].begin(), units[s].end(), e) != units[s].end()) {
          ++users;
        }
      }
      if (users > 0) {
        step = std::min(step, residual[e] / users);
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (!frozen[s]) {
        step = std::min(step, stream_cap - rate[s]);
      }
    }
    if (!(step > 0.0) || step == kNever) {
      break;
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (frozen[s]) {
        continue;
      }
      rate[s] += step;
      for (std::size_t e : units[s]) {
        residual[e] -= step;
      }
    }
  }
  return rate;
}

}  // namespace

std::vector<double> EvacuationPlanner::wave_rates(
    const std::vector<const std::vector<std::size_t>*>& routes,
    const std::vector<std::size_t>& src_leaf, const std::vector<std::size_t>& dst_leaf,
    double t) const {
  // The capacity space: WAN edges, then one uplink and one downlink entry
  // per leaf.
  const std::size_t n_edges = graph_.edges.size();
  const std::size_t n_leaves = graph_.leaves.size();
  std::vector<double> caps;
  caps.reserve(n_edges + 2 * n_leaves);
  for (const EdgeSpec& edge : graph_.edges) {
    caps.push_back(edge.capacity_at(t));
  }
  for (const LeafSpec& leaf : graph_.leaves) {
    caps.push_back(std::max(0.0, leaf.uplink_rate));
  }
  for (const LeafSpec& leaf : graph_.leaves) {
    caps.push_back(std::max(0.0, leaf.downlink_rate));
  }
  std::vector<std::vector<std::size_t>> units(routes.size());
  for (std::size_t s = 0; s < routes.size(); ++s) {
    units[s] = *routes[s];
    // A routeless stream stays routeless (rate 0) — leaf entries would
    // make it look schedulable.
    if (!units[s].empty()) {
      if (s < src_leaf.size() && src_leaf[s] < n_leaves) {
        units[s].push_back(n_edges + src_leaf[s]);
      }
      if (s < dst_leaf.size() && dst_leaf[s] < n_leaves) {
        units[s].push_back(n_edges + n_leaves + dst_leaf[s]);
      }
    }
  }
  return max_min_rates(units, std::move(caps), config_.stream_rate_cap);
}

Plan EvacuationPlanner::evaluate(std::size_t src_site, const std::vector<VmToMove>& vms,
                                 const Plan& shape, double now) const {
  const std::size_t n_leaves = graph_.leaves.size();
  Plan out;
  out.assignments.resize(vms.size());
  for (std::size_t i = 0; i < out.assignments.size(); ++i) {
    out.assignments[i].vm = i;
  }
  int max_wave = -1;
  for (const Assignment& a : shape.assignments) {
    max_wave = std::max(max_wave, a.wave);
  }
  std::vector<std::vector<std::size_t>> waves(static_cast<std::size_t>(max_wave + 1));
  for (std::size_t i = 0; i < shape.assignments.size() && i < vms.size(); ++i) {
    if (shape.assignments[i].wave >= 0) {
      waves[static_cast<std::size_t>(shape.assignments[i].wave)].push_back(i);
    } else {
      ++out.unscheduled;
    }
  }
  std::vector<std::vector<std::size_t>> site_leaves(graph_.sites.size());
  std::vector<int> leaf_slots_left(n_leaves, 0);
  for (std::size_t l = 0; l < n_leaves; ++l) {
    const LeafSpec& leaf = graph_.leaves[l];
    if (leaf.site < graph_.sites.size()) {
      site_leaves[leaf.site].push_back(l);
    }
    leaf_slots_left[l] = std::max(0, leaf.free_vm_slots);
  }

  double t = now;
  int w_out = 0;
  for (const std::vector<std::size_t>& members : waves) {
    std::vector<std::size_t> admitted;
    for (std::size_t i : members) {
      Assignment& a = out.assignments[i];
      const std::size_t s = shape.assignments[i].dst_site;
      std::vector<std::size_t> r;
      if (s < graph_.sites.size() && s != src_site) {
        r = graph_.route(src_site, s, t);
      }
      std::size_t dl = kNoLeaf;
      if (!r.empty() && !site_leaves[s].empty()) {
        // A topology-blind driver places on the emptiest host, which
        // lands on the leaf with the most free slots (ties: lowest index).
        for (std::size_t l : site_leaves[s]) {
          if (leaf_slots_left[l] > 0 && (dl == kNoLeaf || leaf_slots_left[l] > leaf_slots_left[dl])) {
            dl = l;
          }
        }
        if (dl == kNoLeaf) {
          r.clear();
        }
      }
      if (r.empty()) {
        a.wave = -1;
        ++out.unscheduled;
        continue;
      }
      if (dl != kNoLeaf) {
        --leaf_slots_left[dl];
      }
      a.dst_site = s;
      a.dst_leaf = dl;
      a.route_edges = std::move(r);
      admitted.push_back(i);
    }
    if (admitted.empty()) {
      continue;
    }
    std::vector<const std::vector<std::size_t>*> routes;
    std::vector<std::size_t> src_leaves;
    std::vector<std::size_t> dst_leaves;
    routes.reserve(admitted.size());
    for (std::size_t i : admitted) {
      routes.push_back(&out.assignments[i].route_edges);
      src_leaves.push_back(vms[i].src_leaf);
      dst_leaves.push_back(out.assignments[i].dst_leaf);
    }
    const std::vector<double> rates = wave_rates(routes, src_leaves, dst_leaves, t);
    double wave_end = t;
    bool any = false;
    for (std::size_t k = 0; k < admitted.size(); ++k) {
      Assignment& a = out.assignments[admitted[k]];
      if (rates[k] <= 0.0) {
        // Unrealizable at this instant (a dead leaf or edge on the path):
        // the shape cannot schedule this VM — count it out instead of
        // letting an infinite finish poison the comparison.
        if (a.dst_leaf != kNoLeaf) {
          ++leaf_slots_left[a.dst_leaf];
        }
        a.wave = -1;
        a.route_edges.clear();
        a.dst_leaf = kNoLeaf;
        ++out.unscheduled;
        continue;
      }
      a.wave = w_out;
      a.planned_rate = rates[k];
      a.start = t;
      a.finish = t + stream_duration(vms[admitted[k]], rates[k], config_);
      wave_end = std::max(wave_end, a.finish);
      any = true;
    }
    if (!any) {
      continue;
    }
    ++w_out;
    t = wave_end;
    out.makespan = std::max(out.makespan, wave_end - now);
  }
  out.wave_count = w_out;
  return out;
}

Plan EvacuationPlanner::plan_sequential(std::size_t src_site, const std::vector<VmToMove>& vms,
                                        double now) const {
  Plan out;
  out.assignments.resize(vms.size());
  const std::size_t n_leaves = graph_.leaves.size();
  std::vector<std::vector<std::size_t>> site_leaves(graph_.sites.size());
  for (std::size_t l = 0; l < n_leaves; ++l) {
    if (graph_.leaves[l].site < graph_.sites.size()) {
      site_leaves[graph_.leaves[l].site].push_back(l);
    }
  }
  double t = now;
  int wave = 0;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    Assignment& a = out.assignments[i];
    a.vm = i;
    // First reachable site with a free slot, preferring the fastest drain.
    std::size_t best = graph_.sites.size();
    std::size_t best_leaf = kNoLeaf;
    std::vector<std::size_t> best_route;
    double best_rate = 0.0;
    double grant = t;
    std::vector<int> used(graph_.sites.size(), 0);
    std::vector<int> used_leaf(n_leaves, 0);
    for (std::size_t j = 0; j < i; ++j) {
      if (out.assignments[j].wave >= 0) {
        ++used[out.assignments[j].dst_site];
        if (out.assignments[j].dst_leaf != kNoLeaf) {
          ++used_leaf[out.assignments[j].dst_leaf];
        }
      }
    }
    const std::size_t src_leaf = vms[i].src_leaf < n_leaves ? vms[i].src_leaf : kNoLeaf;
    for (;;) {
      for (std::size_t s = 0; s < graph_.sites.size(); ++s) {
        if (s == src_site) {
          continue;
        }
        // A site with leaves intakes through them: the VM needs a leaf
        // with a free slot and pays that leaf's downlink on top of the
        // WAN bottleneck (one stream at a time, so no incast contention).
        std::size_t leaf = kNoLeaf;
        if (!site_leaves[s].empty()) {
          double leaf_down = 0.0;
          for (std::size_t l : site_leaves[s]) {
            if (graph_.leaves[l].free_vm_slots - used_leaf[l] <= 0) {
              continue;
            }
            if (leaf == kNoLeaf || graph_.leaves[l].downlink_rate > leaf_down) {
              leaf = l;
              leaf_down = graph_.leaves[l].downlink_rate;
            }
          }
          if (leaf == kNoLeaf) {
            continue;
          }
        } else if (graph_.sites[s].free_vm_slots - used[s] <= 0) {
          continue;
        }
        std::vector<std::size_t> r = graph_.route(src_site, s, grant);
        double rate = std::min(graph_.bottleneck(r, grant), config_.stream_rate_cap);
        if (src_leaf != kNoLeaf) {
          rate = std::min(rate, graph_.leaves[src_leaf].uplink_rate);
        }
        if (leaf != kNoLeaf) {
          rate = std::min(rate, graph_.leaves[leaf].downlink_rate);
        }
        if (!r.empty() && rate > best_rate) {
          best = s;
          best_leaf = leaf;
          best_route = std::move(r);
          best_rate = rate;
        }
      }
      if (best < graph_.sites.size()) {
        break;
      }
      grant = graph_.next_phase_after(grant);
      if (grant == kNever) {
        break;
      }
    }
    if (best >= graph_.sites.size()) {
      ++out.unscheduled;
      continue;
    }
    a.dst_site = best;
    a.dst_leaf = best_leaf;
    a.route_edges = std::move(best_route);
    a.wave = wave++;
    a.planned_rate = best_rate;
    a.start = grant;
    a.finish = grant + stream_duration(vms[i], best_rate, config_);
    t = a.finish;
    out.makespan = std::max(out.makespan, a.finish - now);
  }
  out.wave_count = wave;
  return out;
}

Plan EvacuationPlanner::plan_batched(std::size_t src_site, const std::vector<VmToMove>& vms,
                                     double now) const {
  const std::size_t n_sites = graph_.sites.size();
  Plan out;
  out.assignments.resize(vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i) {
    out.assignments[i].vm = i;
  }

  const std::size_t n_leaves = graph_.leaves.size();
  std::vector<std::vector<std::size_t>> site_leaves(n_sites);
  std::vector<int> leaf_slots_left(n_leaves, 0);
  for (std::size_t l = 0; l < n_leaves; ++l) {
    if (graph_.leaves[l].site < n_sites) {
      site_leaves[graph_.leaves[l].site].push_back(l);
    }
    leaf_slots_left[l] = std::max(0, graph_.leaves[l].free_vm_slots);
  }

  // --- 1. Destination selection: LPT list scheduling on drain speed. ---
  // A site's drain speed approximates how fast it can absorb load:
  // bottleneck of its route from the source, widened by the streams the
  // edge slot policy would admit, capped per stream — and, for a site with
  // leaves, never more than its aggregate leaf downlink intake.
  std::vector<double> speed(n_sites, 0.0);
  std::vector<int> slots_left(n_sites, 0);
  for (std::size_t s = 0; s < n_sites; ++s) {
    if (s == src_site) {
      continue;
    }
    std::vector<std::size_t> r = graph_.route(src_site, s, now);
    double bw = graph_.bottleneck(r, now);
    if (r.empty() || bw <= 0.0) {
      continue;
    }
    int streams = std::clamp(static_cast<int>(bw / config_.min_stream_rate), 1,
                             config_.max_streams_per_edge);
    speed[s] = std::min(bw, config_.stream_rate_cap * streams);
    if (!site_leaves[s].empty()) {
      int leaf_slots = 0;
      double down = 0.0;
      for (std::size_t l : site_leaves[s]) {
        // Slots behind a dead downlink are not admissible — counting them
        // would strand VMs on a site the waves can never drain into.
        if (incast_slots(graph_.leaves[l].downlink_rate, config_) > 0) {
          leaf_slots += leaf_slots_left[l];
        }
        down += std::max(0.0, graph_.leaves[l].downlink_rate);
      }
      speed[s] = std::min(speed[s], down);
      slots_left[s] = leaf_slots;
    } else {
      slots_left[s] = std::max(0, graph_.sites[s].free_vm_slots);
    }
  }

  std::vector<std::size_t> order(vms.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t lhs, std::size_t rhs) {
    return vms[lhs].bytes > vms[rhs].bytes;
  });

  std::vector<double> load(n_sites, 0.0);
  std::vector<std::size_t> pending;
  for (std::size_t i : order) {
    std::size_t best = n_sites;
    double best_finish = kNever;
    for (std::size_t s = 0; s < n_sites; ++s) {
      if (speed[s] <= 0.0 || slots_left[s] <= 0) {
        continue;
      }
      double finish = (load[s] + vms[i].bytes) / speed[s];
      if (finish < best_finish) {
        best_finish = finish;
        best = s;
      }
    }
    if (best == n_sites) {
      out.assignments[i].wave = -1;
      ++out.unscheduled;
      continue;
    }
    out.assignments[i].dst_site = best;
    load[best] += vms[i].bytes;
    --slots_left[best];
    pending.push_back(i);
  }

  // --- 1b. Destination-swap pass: move a VM from the slowest-draining ---
  // site to the fastest when that lowers the max estimated finish
  // ("Simple Destination-Swap Strategies"). Slot counts stay legal because
  // a swap exchanges destinations and a shift consumes a tracked slot.
  if (config_.swap_pass && !pending.empty()) {
    for (std::size_t iter = 0; iter < pending.size(); ++iter) {
      std::size_t hot = n_sites;
      std::size_t cold = n_sites;
      double hot_finish = 0.0;
      double cold_finish = kNever;
      for (std::size_t s = 0; s < n_sites; ++s) {
        if (speed[s] <= 0.0) {
          continue;
        }
        double finish = load[s] / speed[s];
        if (finish > hot_finish) {
          hot_finish = finish;
          hot = s;
        }
        if (finish < cold_finish) {
          cold_finish = finish;
          cold = s;
        }
      }
      if (hot == n_sites || cold == n_sites || hot == cold) {
        break;
      }
      // Smallest VM on the hot site whose shift improves the pair's max.
      std::size_t move = vms.size();
      double move_bytes = kNever;
      for (std::size_t i : pending) {
        if (out.assignments[i].dst_site != hot) {
          continue;
        }
        double new_hot = (load[hot] - vms[i].bytes) / speed[hot];
        double new_cold = (load[cold] + vms[i].bytes) / speed[cold];
        if (std::max(new_hot, new_cold) < hot_finish - 1e-9 && vms[i].bytes < move_bytes) {
          move = i;
          move_bytes = vms[i].bytes;
        }
      }
      if (move == vms.size() || slots_left[cold] <= 0) {
        break;
      }
      load[hot] -= vms[move].bytes;
      load[cold] += vms[move].bytes;
      ++slots_left[hot];
      --slots_left[cold];
      out.assignments[move].dst_site = cold;
    }
  }

  // --- 2 + 3. Wave batching with max-min rate assignment. ---
  // Admission at grant time t: recompute each pending VM's route on the
  // live graph, cap streams per edge and per source host, assign max-min
  // rates, run the wave to its last finish, advance t.
  double t = now;
  int wave = 0;
  // Big VMs first within a destination, destinations round-robined so
  // every egress edge fills.
  std::stable_sort(pending.begin(), pending.end(), [&](std::size_t lhs, std::size_t rhs) {
    return vms[lhs].bytes > vms[rhs].bytes;
  });
  while (!pending.empty()) {
    std::vector<std::size_t> admitted;
    std::vector<int> edge_streams(graph_.edges.size(), 0);
    std::vector<int> host_streams;
    std::vector<int> edge_slots(graph_.edges.size(), 0);
    for (std::size_t e = 0; e < graph_.edges.size(); ++e) {
      double cap = graph_.edges[e].capacity_at(t);
      edge_slots[e] =
          cap > 0.0 ? std::clamp(static_cast<int>(cap / config_.min_stream_rate), 1,
                                 config_.max_streams_per_edge)
                    : 0;
    }
    auto host_count = [&host_streams](std::size_t host) -> int& {
      if (host >= host_streams.size()) {
        host_streams.resize(host + 1, 0);
      }
      return host_streams[host];
    };
    // Per-wave leaf admission state: uplink slots per source leaf (streams
    // the rack can feed at full per-stream rate) and an incast cap per
    // destination leaf.
    std::vector<int> src_leaf_streams(n_leaves, 0);
    std::vector<int> src_leaf_slots(n_leaves, 0);
    std::vector<int> leaf_in_streams(n_leaves, 0);
    std::vector<int> leaf_in_slots(n_leaves, 0);
    for (std::size_t l = 0; l < n_leaves; ++l) {
      src_leaf_slots[l] = uplink_slots(graph_.leaves[l].uplink_rate, config_);
      leaf_in_slots[l] = incast_slots(graph_.leaves[l].downlink_rate, config_);
    }
    // Destination-leaf pick for one admitted stream to site s: the fewest
    // wave streams into the leaf, then the most free slots.
    auto pick_dst_leaf = [&](std::size_t s) -> std::size_t {
      std::size_t best_leaf = kNoLeaf;
      for (std::size_t l : site_leaves[s]) {
        if (leaf_slots_left[l] <= 0 || leaf_in_streams[l] >= leaf_in_slots[l]) {
          continue;
        }
        const bool wins = best_leaf == kNoLeaf ||
                          leaf_in_streams[l] < leaf_in_streams[best_leaf] ||
                          (leaf_in_streams[l] == leaf_in_streams[best_leaf] &&
                           leaf_slots_left[l] > leaf_slots_left[best_leaf]);
        if (wins) {
          best_leaf = l;
        }
      }
      return best_leaf;
    };
    // The live route to a site is a function of (site, t) only — compute
    // each once per wave.
    std::vector<std::vector<std::size_t>> site_route(n_sites);
    for (std::size_t s = 0; s < n_sites; ++s) {
      if (s != src_site) {
        site_route[s] = graph_.route(src_site, s, t);
      }
    }
    // Round-robin across destination sites: repeatedly take the first
    // admissible pending VM of each site in turn until a full sweep admits
    // nothing.
    std::vector<bool> taken(pending.size(), false);
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t s = 0; s < n_sites; ++s) {
        for (std::size_t p = 0; p < pending.size(); ++p) {
          std::size_t i = pending[p];
          if (taken[p] || out.assignments[i].dst_site != s) {
            continue;
          }
          if (host_count(vms[i].src_host) >= config_.max_streams_per_src_host) {
            continue;
          }
          const std::size_t src_leaf = vms[i].src_leaf < n_leaves ? vms[i].src_leaf : kNoLeaf;
          if (src_leaf != kNoLeaf && src_leaf_streams[src_leaf] >= src_leaf_slots[src_leaf]) {
            continue;
          }
          const std::vector<std::size_t>& r = site_route[s];
          bool fits = !r.empty();
          for (std::size_t e : r) {
            if (edge_streams[e] >= edge_slots[e]) {
              fits = false;
              break;
            }
          }
          if (!fits) {
            continue;
          }
          std::size_t dst_leaf = kNoLeaf;
          if (!site_leaves[s].empty()) {
            dst_leaf = pick_dst_leaf(s);
            if (dst_leaf == kNoLeaf) {
              continue;  // every leaf full or incast-capped this wave
            }
          }
          out.assignments[i].route_edges = r;
          for (std::size_t e : out.assignments[i].route_edges) {
            ++edge_streams[e];
          }
          ++host_count(vms[i].src_host);
          if (src_leaf != kNoLeaf) {
            ++src_leaf_streams[src_leaf];
          }
          if (dst_leaf != kNoLeaf) {
            ++leaf_in_streams[dst_leaf];
            --leaf_slots_left[dst_leaf];
            out.assignments[i].dst_leaf = dst_leaf;
          }
          taken[p] = true;
          admitted.push_back(i);
          progress = true;
          break;  // next destination site
        }
      }
    }
    if (admitted.empty()) {
      // Nothing can start now: either every remaining destination is
      // unreachable at t, or the per-host/per-edge limits pin us — the
      // latter is impossible with an empty wave, so wait for the mesh.
      double next = graph_.next_phase_after(t);
      if (next == kNever) {
        for (std::size_t i : pending) {
          out.assignments[i].wave = -1;
          ++out.unscheduled;
        }
        break;
      }
      t = next;
      continue;
    }
    std::vector<const std::vector<std::size_t>*> routes;
    std::vector<std::size_t> src_leaves;
    std::vector<std::size_t> dst_leaves;
    routes.reserve(admitted.size());
    for (std::size_t i : admitted) {
      routes.push_back(&out.assignments[i].route_edges);
      src_leaves.push_back(vms[i].src_leaf);
      dst_leaves.push_back(out.assignments[i].dst_leaf);
    }
    const std::vector<double> rates = wave_rates(routes, src_leaves, dst_leaves, t);
    double wave_end = t;
    for (std::size_t k = 0; k < admitted.size(); ++k) {
      Assignment& a = out.assignments[admitted[k]];
      a.wave = wave;
      a.planned_rate = rates[k];
      a.start = t;
      a.finish = t + stream_duration(vms[admitted[k]], rates[k], config_);
      wave_end = std::max(wave_end, a.finish);
    }
    ++wave;
    t = wave_end;
    out.makespan = std::max(out.makespan, wave_end - now);
    std::vector<std::size_t> still_pending;
    for (std::size_t p = 0; p < pending.size(); ++p) {
      if (!taken[p]) {
        still_pending.push_back(pending[p]);
      }
    }
    pending = std::move(still_pending);
  }
  out.wave_count = wave;
  return out;
}

bool EvacuationPlanner::better(const Plan& candidate, const Plan& incumbent) {
  if (candidate.unscheduled != incumbent.unscheduled) {
    return candidate.unscheduled < incumbent.unscheduled;
  }
  return candidate.makespan < incumbent.makespan;
}

Plan EvacuationPlanner::plan(std::size_t src_site, const std::vector<VmToMove>& vms,
                             double now) const {
  Plan best = plan_batched(src_site, vms, now);
  if (!graph_.leaves.empty()) {
    // Fold in what a topology-blind plan would actually cost on this
    // topology: re-cost the blind shapes with evaluate() so the returned
    // plan is never worse than executing the blind one (the property suite
    // pins this). The leaf-aware batching usually wins; these candidates
    // make it unconditional.
    EvacuationPlanner blind(graph_.without_leaves(), config_);
    Plan blind_batched = evaluate(src_site, vms, blind.plan_batched(src_site, vms, now), now);
    blind_batched.topology_blind = true;
    if (better(blind_batched, best)) {
      best = std::move(blind_batched);
    }
    Plan blind_seq = evaluate(src_site, vms, blind.plan_sequential(src_site, vms, now), now);
    blind_seq.topology_blind = true;
    blind_seq.sequential_fallback = true;
    if (better(blind_seq, best)) {
      best = std::move(blind_seq);
    }
  }
  Plan sequential = plan_sequential(src_site, vms, now);
  if (better(sequential, best)) {
    sequential.sequential_fallback = true;
    return sequential;
  }
  return best;
}

}  // namespace nm::plan
