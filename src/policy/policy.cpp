#include "policy/policy.h"

#include <algorithm>
#include <utility>

#include "policy/policies.h"
#include "util/error.h"

namespace nm::policy {

PolicySet::PolicySet() {
  // One shared StaticPolicy serves every hook by default, so a
  // default-constructed PolicySet *is* the legacy behavior.
  auto fallback = std::make_shared<StaticPolicy>();
  hooks_.fill(std::move(fallback));
}

PolicySet& PolicySet::use(std::shared_ptr<Policy> p) {
  NM_CHECK(p != nullptr, "PolicySet::use: null policy");
  hooks_.fill(std::move(p));
  return *this;
}

PolicySet& PolicySet::use(Hook hook, std::shared_ptr<Policy> p) {
  NM_CHECK(p != nullptr, "PolicySet::use: null policy");
  hooks_[static_cast<std::size_t>(hook)] = std::move(p);
  return *this;
}

Policy& PolicySet::at(Hook hook) const {
  return *hooks_[static_cast<std::size_t>(hook)];
}

void PolicySet::bind_seed(std::uint64_t seed) const {
  for (const auto& p : hooks_) {
    p->bind_seed(seed);  // idempotent per policy object
  }
}

Action PolicySet::decide(Hook hook, const Observation& obs) const {
  return at(hook).decide(hook, obs);
}

std::vector<int> resolve_assignment(const Action& action, std::size_t vm_count,
                                    std::size_t candidate_count, std::string_view who) {
  NM_CHECK(candidate_count > 0, std::string(who) + ": no destination candidates");
  std::vector<int> out;
  out.reserve(vm_count);
  if (action.assignment.empty()) {
    // Legacy expansion: VM i goes to candidates[i % size].
    for (std::size_t i = 0; i < vm_count; ++i) {
      out.push_back(static_cast<int>(i % candidate_count));
    }
    return out;
  }
  NM_CHECK(action.assignment.size() == vm_count,
           std::string(who) + ": assignment size " +
               std::to_string(action.assignment.size()) + " != vm count " +
               std::to_string(vm_count));
  for (const int c : action.assignment) {
    NM_CHECK(c >= 0 && static_cast<std::size_t>(c) < candidate_count,
             std::string(who) + ": assignment index " + std::to_string(c) +
                 " out of range [0, " + std::to_string(candidate_count) + ")");
    out.push_back(c);
  }
  return out;
}

sim::Task decide_start(sim::Simulation& sim, const PolicySet& set,
                       const ObservationSource& source, std::size_t vm_count,
                       std::function<std::vector<HostCandidate>()> candidates,
                       std::string_view who, std::vector<int>& picks) {
  auto observe = [&] {
    Observation obs;
    obs.now = sim.now();
    if (source.slo) {
      obs.slo = source.slo();
    }
    obs.vm_count = vm_count;
    obs.candidates = candidates();
    return obs;
  };
  Observation obs = observe();
  Action action = set.decide(Hook::kEpisodeStart, obs);
  while (action.defer) {
    co_await sim.delay(action.defer_for > Duration::zero() ? action.defer_for
                                                           : Duration::millis(100));
    obs = observe();
    action = set.decide(Hook::kEpisodeStart, obs);
  }
  picks = resolve_assignment(action, vm_count, obs.candidates.size(), who);
}

vmm::MigrationControl make_migration_control(PolicySet set, ObservationSource source,
                                             const vmm::MigrationConfig& engine) {
  // Everything is captured by value; the PolicySet copy shares the caller's
  // policy objects (shared_ptr), so per-policy state keeps accumulating in
  // one place even when several controls are built from the same set.
  auto observe = [source = std::move(source), max_downtime = engine.max_downtime,
                  line_rate = engine.send_rate()](const vmm::MigrationStats& live, int round) {
    Observation obs;
    if (source.now) {
      obs.now = source.now();
    }
    obs.migration = &live;
    if (source.slo) {
      obs.slo = source.slo();
    }
    obs.max_downtime = max_downtime;
    obs.line_rate = line_rate;
    obs.round = round;
    return obs;
  };
  vmm::MigrationControl control;
  control.precopy_cap = [set, observe](const vmm::MigrationStats& live, int round) {
    return set.decide(Hook::kPreCopyRound, observe(live, round)).bandwidth_cap;
  };
  control.force_stop = [set, observe](const vmm::MigrationStats& live, int round) {
    return set.decide(Hook::kPreCopyRound, observe(live, round)).force_stop_and_copy;
  };
  control.allow_pause = [set, observe](const vmm::MigrationStats& live,
                                       Duration estimated_downtime) {
    Observation obs = observe(live, live.rounds);
    obs.estimated_downtime = estimated_downtime;
    return !set.decide(Hook::kPauseDecision, obs).defer_pause;
  };
  return control;
}

}  // namespace nm::policy
