#include "core/ninja.h"

#include <utility>

#include "mpi/cr.h"
#include "util/log.h"

namespace nm::core {

namespace {

// The three SymVirt windows shared by the MPI and generic episodes: park →
// detach (A) → migrate (B) → re-attach (C) → quit. Runs after the caller
// has requested quiesce; the caller then awaits its own completion path
// (CRCP wait_complete vs per-coordinator waits) and stamps linkup/total.
// Keeping one body is what guarantees the two paths never drift again —
// the generic episode used to skip ctl.quit() and the timeline spans.
sim::Task run_windows(sim::Simulation& sim, symvirt::Controller& ctl, const MigrationPlan& plan,
                      const std::vector<std::string>& destinations,
                      const vmm::Monitor::HostResolver& resolver, NinjaStats& stats,
                      TimePoint t0) {
  co_await ctl.wait_all();
  stats.coordination = sim.now() - t0;
  stats.timeline.add_span("coordination", t0, sim.now());

  // Window A: detach VMM-bypass devices where present.
  const TimePoint detach_start = sim.now();
  const bool any_hca = [&] {
    for (const auto& vm : plan.vms) {
      if (vm->has_vmm_bypass_device()) {
        return true;
      }
    }
    return false;
  }();
  if (any_hca) {
    co_await ctl.device_detach(plan.hca_tag);
  }
  stats.detach = sim.now() - detach_start;
  stats.timeline.add_span("detach (window A)", detach_start, sim.now());
  ctl.signal();

  // Window B: move every VM (concurrently) to its destination — live
  // pre-copy through the monitors, or checkpoint/restore through the
  // shared store for the proactive-FT mode.
  co_await ctl.wait_all();
  const TimePoint mig_start = sim.now();
  if (plan.via_storage) {
    std::vector<sim::TaskRef> refs;
    for (std::size_t i = 0; i < plan.vms.size(); ++i) {
      auto& vm = plan.vms[i];
      vmm::Host* dst = resolver(destinations[i % destinations.size()]);
      NM_CHECK(dst != nullptr,
               "unknown destination " << destinations[i % destinations.size()]);
      refs.push_back(sim.spawn(
          [](std::shared_ptr<vmm::Vm> v, vmm::Host* destination) -> sim::Task {
            auto& engine = v->host().migration_engine();
            vmm::Host& src = v->host();
            co_await engine.checkpoint_to_storage(v, src);
            co_await engine.restore_from_storage(v, *destination);
          }(vm, dst),
          "ckpt:" + vm->name()));
    }
    co_await sim::join_all(std::move(refs));
    ctl.signal();
  } else {
    co_await ctl.migration(destinations);  // signals the VMs itself
    for (std::size_t i = 0; i < plan.vms.size(); ++i) {
      stats.per_vm.push_back(ctl.agent(i).monitor().last_migration());
    }
  }
  stats.migration = sim.now() - mig_start;
  stats.timeline.add_span(plan.via_storage ? "ckpt/restore (window B)" : "migration (window B)",
                          mig_start, sim.now());

  // Window C: re-attach HCAs for a recovery migration.
  co_await ctl.wait_all();
  const TimePoint attach_start = sim.now();
  if (!plan.attach_host_pci.empty()) {
    co_await ctl.device_attach(plan.attach_host_pci, plan.hca_tag);
  }
  stats.attach = sim.now() - attach_start;
  stats.timeline.add_span("re-attach (window C)", attach_start, sim.now());
  ctl.signal();
  ctl.quit();
}

// The kEpisodeStart hook (policy::decide_start) over the plan's candidate
// names, expanded into one destination name per VM. StaticPolicy's empty
// assignment keeps the historical `destinations[i % size]` round-robin.
sim::Task episode_start_hook(sim::Simulation& sim, const policy::PolicySet& policies,
                             const policy::ObservationSource& source, const MigrationPlan& plan,
                             const vmm::Monitor::HostResolver& resolver,
                             std::vector<std::string>& destinations_out) {
  auto candidates = [&] {
    std::vector<policy::HostCandidate> out;
    out.reserve(plan.destinations.size());
    for (const auto& name : plan.destinations) {
      policy::HostCandidate cand;
      cand.name = name;
      // Unresolvable names stay a candidate with zero residents — the
      // legacy paths report unknown destinations themselves, with better
      // context.
      if (vmm::Host* host = resolver ? resolver(name) : nullptr) {
        cand.resident_vms = static_cast<int>(host->vms().size());
      }
      out.push_back(std::move(cand));
    }
    return out;
  };
  std::vector<int> picks;
  co_await policy::decide_start(sim, policies, source, plan.vms.size(), candidates,
                                "ninja episode", picks);
  destinations_out.clear();
  destinations_out.reserve(picks.size());
  for (const int c : picks) {
    destinations_out.push_back(plan.destinations[static_cast<std::size_t>(c)]);
  }
}

// Episode-wide migration control block: describes the engine configuration
// the policies will observe (first VM's source host; episodes migrate VMs
// booted with one shared engine config).
vmm::MigrationControl make_episode_control(const policy::PolicySet& policies,
                                           const policy::ObservationSource& source,
                                           const MigrationPlan& plan) {
  return policy::make_migration_control(policies, source,
                                        plan.vms.front()->host().migration_engine().config());
}

}  // namespace

NinjaMigrator::NinjaMigrator(sim::Simulation& sim, mpi::MpiRuntime& runtime, NinjaConfig config)
    : sim_(&sim), runtime_(&runtime), config_(std::move(config)),
      coordinator_(config_.timing) {
  NM_CHECK(static_cast<bool>(config_.resolver), "NinjaConfig needs a host resolver");
  config_.policies.bind_seed(config_.seed);
}

void NinjaMigrator::install_coordinator() { coordinator_.install(*runtime_); }

sim::Task NinjaMigrator::execute(MigrationPlan plan, NinjaStats* stats_out) {
  NM_CHECK(!plan.vms.empty(), "empty migration plan");
  NM_CHECK(!plan.destinations.empty(), "migration plan has no destinations");

  NinjaStats stats;
  const TimePoint t0 = sim_->now();
  NM_LOG_INFO("ninja") << "episode start: " << plan.vms.size() << " VMs -> {"
                       << [&] {
                            std::string s;
                            for (const auto& d : plan.destinations) {
                              s += d + " ";
                            }
                            return s;
                          }()
                       << "}" << (plan.attach_host_pci.empty() ? " (fallback)" : " (recovery)");

  // 0) The kEpisodeStart policy may defer the trigger and picks each VM's
  //    destination from the plan's candidates (StaticPolicy = the legacy
  //    round-robin, immediately).
  std::vector<std::string> destinations;
  co_await episode_start_hook(*sim_, config_.policies, config_.source, plan,
                              config_.resolver, destinations);

  // 1) The cloud scheduler delivers the trigger to the MPI runtime: the
  //    CRCP quiesces the job and every rank's SymVirt coordinator parks
  //    the VM in window A.
  const auto generation = runtime_->cr().request();

  // 2)–4) The three windows (detach → migrate → re-attach), shared with
  //    the generic episode. Per-round and pause decisions route through
  //    the policy control block installed on every agent's monitor.
  symvirt::Controller ctl(*sim_, plan.vms, plan.ranks_per_vm, config_.resolver);
  const vmm::MigrationControl control =
      make_episode_control(config_.policies, config_.source, plan);
  ctl.set_migration_control(&control);
  co_await run_windows(*sim_, ctl, plan, destinations, config_.resolver, stats, t0);

  // 5) Guest side finishes: confirm, link-up wait, BTL reconstruction.
  const TimePoint linkup_start = sim_->now();
  co_await runtime_->cr().wait_complete(generation);
  stats.linkup = sim_->now() - linkup_start;
  stats.timeline.add_span("confirm+linkup+BTL rebuild", linkup_start, sim_->now());
  stats.total = sim_->now() - t0;

  NM_LOG_INFO("ninja") << "episode done in " << stats.total << " (coord " << stats.coordination
                       << ", detach " << stats.detach << ", migrate " << stats.migration
                       << ", attach " << stats.attach << ", linkup " << stats.linkup << ")";
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
}

sim::Task run_generic_episode(
    sim::Simulation& sim,
    const std::vector<std::shared_ptr<symvirt::GenericCoordinator>>& coordinators,
    MigrationPlan plan, vmm::Monitor::HostResolver resolver, NinjaStats* stats_out,
    policy::PolicySet policies, policy::ObservationSource source, std::uint64_t seed) {
  NM_CHECK(!coordinators.empty(), "no coordinators");
  NM_CHECK(coordinators.size() == plan.vms.size(),
           "one GenericCoordinator per VM is required");
  NinjaStats stats;
  const TimePoint t0 = sim.now();
  policies.bind_seed(seed);
  std::vector<std::string> destinations;
  co_await episode_start_hook(sim, policies, source, plan, resolver, destinations);
  std::vector<std::uint64_t> generations;
  generations.reserve(coordinators.size());
  for (const auto& coord : coordinators) {
    coord->request();
    generations.push_back(coord->generation());
  }

  // The same three windows as the MPI path — including ctl.quit() and the
  // timeline spans, which this path used to skip.
  symvirt::Controller ctl(sim, plan.vms, plan.ranks_per_vm, resolver);
  const vmm::MigrationControl control = make_episode_control(policies, source, plan);
  ctl.set_migration_control(&control);
  co_await run_windows(sim, ctl, plan, destinations, resolver, stats, t0);

  // Guest side finishes: each coordinator confirms independently (no CRCP
  // — the apps resume through their own resume callbacks).
  const TimePoint linkup_start = sim.now();
  for (std::size_t i = 0; i < coordinators.size(); ++i) {
    co_await coordinators[i]->wait_complete(generations[i]);
  }
  stats.linkup = sim.now() - linkup_start;
  stats.timeline.add_span("confirm+linkup", linkup_start, sim.now());
  stats.total = sim.now() - t0;
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
}

MigrationPlan CloudScheduler::fallback_plan(std::vector<std::shared_ptr<vmm::Vm>> vms,
                                            int host_count, std::size_t ranks_per_vm) const {
  MigrationPlan plan;
  plan.vms = std::move(vms);
  for (int i = 0; i < host_count; ++i) {
    plan.destinations.push_back(testbed_->eth_host(i).name());
  }
  plan.ranks_per_vm = ranks_per_vm;
  return plan;
}

MigrationPlan CloudScheduler::recovery_plan(std::vector<std::shared_ptr<vmm::Vm>> vms,
                                            int host_count, std::size_t ranks_per_vm) const {
  MigrationPlan plan;
  plan.vms = std::move(vms);
  for (int i = 0; i < host_count; ++i) {
    plan.destinations.push_back(testbed_->ib_host(i).name());
  }
  plan.attach_host_pci = Testbed::kHcaPciAddr;
  plan.ranks_per_vm = ranks_per_vm;
  return plan;
}

MigrationPlan CloudScheduler::tcp_plan(std::vector<std::shared_ptr<vmm::Vm>> vms,
                                       std::vector<std::string> destinations,
                                       std::size_t ranks_per_vm) const {
  MigrationPlan plan;
  plan.vms = std::move(vms);
  plan.destinations = std::move(destinations);
  plan.ranks_per_vm = ranks_per_vm;
  return plan;
}

vmm::Monitor::HostResolver CloudScheduler::resolver() const {
  // Captures the scheduler, not a snapshot: MpiJob builds its NinjaMigrator
  // from this resolver at construction, and a federation wires its
  // secondary resolver in afterwards — the lookup must see it.
  const CloudScheduler* self = this;
  return [self](const std::string& name) -> vmm::Host* {
    if (vmm::Host* host = self->testbed_->find_host(name)) {
      return host;
    }
    return self->secondary_ ? self->secondary_(name) : nullptr;
  };
}

}  // namespace nm::core
