#include "core/evacuation_driver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/sync.h"
#include "util/error.h"
#include "util/log.h"
#include "vmm/host.h"

namespace nm::core {
namespace {

/// VM slots per destination host (bounds per-site intake together with the
/// hosts' current residents).
constexpr int kDstSlotsPerHost = 16;
/// Poll period while every route to some un-evacuated VM's destination is
/// dead.
constexpr Duration kRetryPeriod = Duration::seconds(5);

}  // namespace

Duration EvacuationReport::downtime_percentile(double p) const {
  std::vector<Duration> sorted;
  for (const VmOutcome& vm : vms) {
    if (vm.done_ns >= 0) {
      sorted.push_back(vm.downtime);
    }
  }
  if (sorted.empty()) {
    return Duration::zero();
  }
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(p, 0.0, 1.0);
  std::size_t rank = static_cast<std::size_t>(std::ceil(clamped * sorted.size()));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

Duration EvacuationReport::downtime_max() const {
  Duration worst = Duration::zero();
  for (const VmOutcome& vm : vms) {
    if (vm.done_ns >= 0) {
      worst = std::max(worst, vm.downtime);
    }
  }
  return worst;
}

MassEvacuation::MassEvacuation(Federation& fed, EvacuationConfig config)
    : fed_(&fed), config_(std::move(config)) {
  NM_CHECK(config_.source_site < fed.site_count(),
           "evacuation source site " << config_.source_site << " out of range");
  const vmm::MigrationConfig& migration = fed.site(config_.source_site).config().migration;
  config_.planner.stream_rate_cap = migration.send_rate();
  config_.planner.per_vm_setup = migration.setup_time.to_seconds();
  config_.policies.bind_seed(config_.seed);
}

std::size_t MassEvacuation::leaf_base(std::size_t site) const {
  std::size_t base = 0;
  for (std::size_t s = 0; s < site; ++s) {
    net::ClosFabric* clos = fed_->site(s).clos();
    if (clos != nullptr) {
      base += static_cast<std::size_t>(clos->leaf_count());
    }
  }
  return base;
}

plan::SiteGraph MassEvacuation::current_graph(bool nominal) const {
  plan::SiteGraph graph = fed_->site_graph();
  if (!nominal) {
    for (std::size_t e = 0; e < graph.edges.size(); ++e) {
      graph.edges[e].rate = fed_->wan_link(e).effective_rate();
    }
  }
  // Leaf layer: each Clos site's leaves, in site order then leaf order —
  // the layout leaf_base() assumes. A leaf's uplink/downlink capacity is
  // its aggregate uplink bandwidth (both directions share the links), live
  // or nominal to match the edge rates above.
  for (std::size_t s = 0; s < fed_->site_count(); ++s) {
    net::ClosFabric* clos = fed_->site(s).clos();
    if (clos == nullptr) {
      continue;
    }
    for (int l = 0; l < clos->leaf_count(); ++l) {
      plan::LeafSpec leaf;
      leaf.name = fed_->site_name(s) + ":leaf" + std::to_string(l);
      leaf.site = s;
      const double cap = clos->leaf_capacity(l, nominal);
      leaf.uplink_rate = cap;
      leaf.downlink_rate = cap;
      leaf.free_vm_slots = 0;  // filled below; stays 0 at the source
      graph.leaves.push_back(std::move(leaf));
    }
  }
  for (std::size_t s = 0; s < fed_->site_count(); ++s) {
    if (s == config_.source_site) {
      continue;
    }
    Testbed& site = fed_->site(s);
    const bool leafy = site.clos() != nullptr;
    const std::size_t base = leafy ? leaf_base(s) : 0;
    int slots = 0;
    std::vector<vmm::Host*> hosts = site.all_hosts();
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      int reserved = 0;
      if (s < reserved_by_site_.size() && h < reserved_by_site_[s].size()) {
        reserved = reserved_by_site_[s][h];
      }
      const int free =
          std::max(0, kDstSlotsPerHost - static_cast<int>(hosts[h]->vms().size()) - reserved);
      slots += free;
      if (leafy) {
        const int leaf = site.leaf_of(*hosts[h]);
        if (leaf >= 0) {
          graph.leaves[base + static_cast<std::size_t>(leaf)].free_vm_slots += free;
        }
      }
    }
    graph.sites[s].free_vm_slots = slots;
  }
  return graph;
}

std::pair<vmm::Host*, std::size_t> MassEvacuation::pick_dst_host(std::size_t site,
                                                                 std::size_t dst_leaf) {
  auto& hosts = hosts_by_site_[site];
  auto& reserved = reserved_by_site_[site];
  const bool leaf_scoped = dst_leaf != plan::kNoLeaf && fed_->site(site).clos() != nullptr;
  const int want_leaf =
      leaf_scoped ? static_cast<int>(dst_leaf - leaf_base(site)) : net::ClosFabric::kSpineAttach;
  vmm::Host* best = nullptr;
  std::size_t best_index = 0;
  int best_free = 0;
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    if (leaf_scoped && fed_->site(site).leaf_of(*hosts[h]) != want_leaf) {
      continue;
    }
    const int free = kDstSlotsPerHost - static_cast<int>(hosts[h]->vms().size()) - reserved[h];
    if (free > best_free) {
      best_free = free;
      best = hosts[h];
      best_index = h;
    }
  }
  if (best == nullptr && leaf_scoped) {
    // The planned leaf filled since planning; place site-wide rather than
    // stall the wave.
    return pick_dst_host(site);
  }
  if (best != nullptr) {
    ++reserved[best_index];
  }
  return {best, best_index};
}

namespace {

sim::Task migrate_one(vmm::Host& src, vmm::Vm& vm, vmm::Host& dst, vmm::MigrationStats* stats,
                      double rate_cap) {
  co_await src.migrate(vm, dst, stats, rate_cap);
}

}  // namespace

sim::Task MassEvacuation::grant_wave(std::vector<Pending> members, int wave_index,
                                     EvacuationReport& report,
                                     std::vector<std::size_t>& deferred) {
  auto& sim = fed_->sim();
  // Keep the fabrics' static routes off partitioned edges wherever an
  // alternative exists, so this wave's (and in-flight next-chunk)
  // transfers take the detour instead of freezing on a dead edge. Pure
  // function of the links' current factors at the grant instant.
  fed_->recompute_routes();
  // Live mesh snapshot at the grant instant: effective rates decide both
  // reachability and the wave's rate assignment. A topology-blind driver
  // never looks at the leaf layer, so its rates may oversubscribe one.
  plan::SiteGraph live = current_graph(/*nominal=*/false);
  if (config_.topology_blind) {
    live = live.without_leaves();
  }
  std::vector<Pending> runnable;
  std::vector<std::vector<std::size_t>> routes;
  for (Pending& member : members) {
    std::vector<std::size_t> route = live.route(config_.source_site, member.dst_site, 0.0);
    // A dead source rack (every uplink down) or dead planned destination
    // leaf defers the member like a dead WAN route: the replan pass picks
    // a live leaf — or waits for the heal when none exists.
    bool leaf_dead = false;
    const std::size_t sl = moves_[member.vm_index].src_leaf;
    if (sl < live.leaves.size() && live.leaves[sl].uplink_rate <= 0.0) {
      leaf_dead = true;
    }
    if (member.dst_leaf < live.leaves.size() &&
        live.leaves[member.dst_leaf].downlink_rate <= 0.0) {
      leaf_dead = true;
    }
    if (route.empty() || leaf_dead) {
      ++report.vms[member.vm_index].deferrals;
      deferred.push_back(member.vm_index);
      continue;
    }
    runnable.push_back(member);
    routes.push_back(std::move(route));
  }
  if (runnable.empty()) {
    co_return;
  }

  std::vector<const std::vector<std::size_t>*> route_ptrs;
  std::vector<std::size_t> src_leaves;
  std::vector<std::size_t> dst_leaves;
  for (std::size_t k = 0; k < runnable.size(); ++k) {
    route_ptrs.push_back(&routes[k]);
    src_leaves.push_back(moves_[runnable[k].vm_index].src_leaf);
    dst_leaves.push_back(runnable[k].dst_leaf);
  }
  // The live graph has no schedules: capacity_at(0) is each edge's rate.
  const plan::EvacuationPlanner rate_engine(live, config_.planner);
  const std::vector<double> rates = rate_engine.wave_rates(route_ptrs, src_leaves, dst_leaves, 0.0);

  // kWaveGrant: ask the placement policy once per destination site for an
  // in-site host assignment (the site itself was fixed by the planner).
  // An empty assignment keeps the driver's own most-free-slots pick, so
  // the default StaticPolicy reproduces the historical placement
  // byte-for-byte. A non-empty one maps the site's members, in wave
  // order, to candidate host indices.
  std::vector<std::vector<int>> site_assignment(hosts_by_site_.size());
  std::vector<std::size_t> site_cursor(hosts_by_site_.size(), 0);
  std::vector<char> site_decided(hosts_by_site_.size(), 0);
  for (const Pending& member : runnable) {
    const std::size_t site = member.dst_site;
    if (site_decided[site] != 0) {
      continue;
    }
    site_decided[site] = 1;
    std::size_t site_vms = 0;
    for (const Pending& other : runnable) {
      site_vms += other.dst_site == site ? 1 : 0;
    }
    const auto& hosts = hosts_by_site_[site];
    const auto& reserved = reserved_by_site_[site];
    policy::Observation obs;
    obs.now = sim.now();
    obs.vm_count = site_vms;
    obs.candidates.reserve(hosts.size());
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      policy::HostCandidate cand;
      cand.name = hosts[h]->name();
      cand.resident_vms = static_cast<int>(hosts[h]->vms().size());
      cand.free_slots = std::max(0, kDstSlotsPerHost - cand.resident_vms - reserved[h]);
      obs.candidates.push_back(std::move(cand));
    }
    const policy::Action action = config_.policies.decide(policy::Hook::kWaveGrant, obs);
    if (!action.assignment.empty()) {
      site_assignment[site] = policy::resolve_assignment(
          action, site_vms, hosts.size(),
          "kWaveGrant on site " + std::string(fed_->site_name(site)));
    }
  }

  std::vector<sim::TaskRef> refs;
  std::vector<std::pair<std::size_t, std::size_t>> placements;  // (dst_site, host idx)
  refs.reserve(runnable.size());
  for (std::size_t k = 0; k < runnable.size(); ++k) {
    const Pending& member = runnable[k];
    vmm::Host* dst = nullptr;
    std::size_t host_index = 0;
    if (!site_assignment[member.dst_site].empty()) {
      // Policy placement: honor the assignment but keep the legacy slot
      // accounting (reserve now, release when the migration lands).
      auto& hosts = hosts_by_site_[member.dst_site];
      auto& reserved = reserved_by_site_[member.dst_site];
      host_index = static_cast<std::size_t>(
          site_assignment[member.dst_site][site_cursor[member.dst_site]++]);
      const int free = kDstSlotsPerHost - static_cast<int>(hosts[host_index]->vms().size()) -
                       reserved[host_index];
      if (free > 0) {
        dst = hosts[host_index];
        ++reserved[host_index];
      }
      NM_CHECK(dst != nullptr, "kWaveGrant assigned VM " << vms_[member.vm_index]->name()
                                                         << " to full host "
                                                         << hosts[host_index]->name());
    } else {
      std::tie(dst, host_index) = pick_dst_host(
          member.dst_site, config_.topology_blind ? plan::kNoLeaf : member.dst_leaf);
    }
    NM_CHECK(dst != nullptr, "evacuation wave " << wave_index << " has no free slot on site "
                                                << fed_->site_name(member.dst_site));
    placements.emplace_back(member.dst_site, host_index);
    VmOutcome& outcome = report.vms[member.vm_index];
    outcome.dst_host = dst->name();
    outcome.wave = wave_index;
    outcome.start_ns = sim.now().count_nanos();
    const double rate_cap =
        rates[k] > 0.0 ? rates[k] : std::numeric_limits<double>::infinity();
    refs.push_back(sim.spawn(migrate_one(*src_hosts_[member.vm_index], *vms_[member.vm_index],
                                         *dst, &stats_[member.vm_index], rate_cap),
                             "evac:" + vms_[member.vm_index]->name()));
  }
  co_await sim::join_all(std::move(refs));
  for (std::size_t k = 0; k < runnable.size(); ++k) {
    const std::size_t vm_index = runnable[k].vm_index;
    VmOutcome& outcome = report.vms[vm_index];
    outcome.done_ns = stats_[vm_index].end_at.count_nanos();
    outcome.downtime = stats_[vm_index].downtime;
    // The VM now counts as a resident; release the in-flight reservation.
    --reserved_by_site_[placements[k].first][placements[k].second];
  }
}

sim::Task MassEvacuation::run(EvacuationReport* report_out) {
  auto& sim = fed_->sim();
  EvacuationReport report;
  report.started_ns = sim.now().count_nanos();

  // --- Collect the fleet: every VM resident on the source site. ---------
  vms_.clear();
  src_hosts_.clear();
  moves_.clear();
  Testbed& source = fed_->site(config_.source_site);
  const std::size_t source_leaf_base =
      source.clos() != nullptr ? leaf_base(config_.source_site) : 0;
  std::vector<vmm::Host*> source_hosts = source.all_hosts();
  for (std::size_t h = 0; h < source_hosts.size(); ++h) {
    const bool compress = source_hosts[h]->migration_engine().config().compress_dup_pages;
    const int src_leaf = source.leaf_of(*source_hosts[h]);
    for (const auto& vm : source_hosts[h]->vms()) {
      auto& mem = vm->memory();
      plan::VmToMove move;
      move.name = vm->name();
      const vmm::GuestMemory::PageRange all{0, mem.page_count()};
      move.bytes = static_cast<double>(mem.wire_size(all, compress).count());
      move.scan_bytes = static_cast<double>(mem.size().count());
      move.src_host = h;
      if (src_leaf >= 0) {
        move.src_leaf = source_leaf_base + static_cast<std::size_t>(src_leaf);
      }
      moves_.push_back(std::move(move));
      vms_.push_back(vm);
      src_hosts_.push_back(source_hosts[h]);
    }
  }
  stats_.assign(vms_.size(), vmm::MigrationStats{});
  report.vms.resize(vms_.size());
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    report.vms[i].vm = vms_[i]->name();
  }

  hosts_by_site_.assign(fed_->site_count(), {});
  reserved_by_site_.assign(fed_->site_count(), {});
  for (std::size_t s = 0; s < fed_->site_count(); ++s) {
    if (s == config_.source_site) {
      continue;
    }
    hosts_by_site_[s] = fed_->site(s).all_hosts();
    reserved_by_site_[s].assign(hosts_by_site_[s].size(), 0);
  }

  // --- Plan against the nominal mesh. -----------------------------------
  plan::SiteGraph nominal_graph = current_graph(/*nominal=*/true);
  if (config_.topology_blind) {
    nominal_graph = nominal_graph.without_leaves();
  }
  plan::EvacuationPlanner planner(std::move(nominal_graph), config_.planner);
  const plan::Plan plan = config_.sequential
                              ? planner.plan_sequential(config_.source_site, moves_)
                              : planner.plan(config_.source_site, moves_);
  report.sequential_fallback = plan.sequential_fallback;
  NM_LOG_INFO("evacuation") << "site " << fed_->site_name(config_.source_site) << ": "
                            << vms_.size() << " VMs, " << plan.wave_count << " planned waves"
                            << (plan.sequential_fallback ? " (sequential fallback)" : "")
                            << ", est. makespan " << Duration::seconds(plan.makespan);

  std::vector<std::vector<Pending>> waves(static_cast<std::size_t>(plan.wave_count));
  std::vector<std::size_t> deferred;
  for (const plan::Assignment& a : plan.assignments) {
    if (a.wave < 0) {
      deferred.push_back(a.vm);
    } else {
      waves[static_cast<std::size_t>(a.wave)].push_back(
          Pending{a.vm, a.dst_site, a.planned_rate, a.dst_leaf});
    }
  }
  for (auto& wave : waves) {
    if (!wave.empty()) {
      co_await grant_wave(std::move(wave), report.waves++, report, deferred);
    }
  }

  // --- Deferred VMs: replan against the live mesh until all land (or the
  // mesh is whole and they are still unschedulable — then give up). ------
  while (!deferred.empty()) {
    plan::SiteGraph live = current_graph(/*nominal=*/false);
    if (config_.topology_blind) {
      live = live.without_leaves();
    }
    plan::EvacuationPlanner replanner(std::move(live), config_.planner);
    std::vector<plan::VmToMove> subset;
    subset.reserve(deferred.size());
    for (std::size_t vm_index : deferred) {
      subset.push_back(moves_[vm_index]);
    }
    const plan::Plan sub = replanner.plan(config_.source_site, subset);
    std::vector<std::vector<Pending>> sub_waves(static_cast<std::size_t>(sub.wave_count));
    std::vector<std::size_t> still_deferred;
    bool scheduled_any = false;
    for (const plan::Assignment& a : sub.assignments) {
      const std::size_t vm_index = deferred[a.vm];
      if (a.wave < 0) {
        still_deferred.push_back(vm_index);
      } else {
        scheduled_any = true;
        sub_waves[static_cast<std::size_t>(a.wave)].push_back(
            Pending{vm_index, a.dst_site, a.planned_rate, a.dst_leaf});
      }
    }
    if (!scheduled_any) {
      bool any_partitioned = false;
      for (std::size_t e = 0; e < fed_->edge_count(); ++e) {
        any_partitioned = any_partitioned || fed_->wan_link(e).partitioned();
      }
      // A dead intra-site link can make VMs unschedulable just like a
      // partitioned WAN edge — keep retrying until the fabric heals.
      for (std::size_t s = 0; s < fed_->site_count(); ++s) {
        net::ClosFabric* clos = fed_->site(s).clos();
        any_partitioned = any_partitioned || (clos != nullptr && clos->has_dead_link());
      }
      if (!any_partitioned) {
        NM_LOG_WARN("evacuation") << deferred.size()
                                  << " VM(s) permanently unschedulable (no reachable "
                                     "destination slots); giving up on them";
        break;
      }
      co_await sim.delay(kRetryPeriod);
      continue;
    }
    ++report.replans;
    deferred = std::move(still_deferred);
    for (auto& wave : sub_waves) {
      if (!wave.empty()) {
        co_await grant_wave(std::move(wave), report.waves++, report, deferred);
      }
    }
  }

  report.done_ns = sim.now().count_nanos();
  report.evacuated = 0;
  for (const VmOutcome& outcome : report.vms) {
    if (outcome.done_ns >= 0) {
      ++report.evacuated;
    }
  }
  NM_LOG_INFO("evacuation") << report.evacuated << "/" << report.vms.size()
                            << " VMs evacuated in " << report.makespan() << " over "
                            << report.waves << " waves (" << report.replans << " replans)";
  if (report_out != nullptr) {
    *report_out = report;
  }
}

}  // namespace nm::core
