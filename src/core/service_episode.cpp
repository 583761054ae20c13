#include "core/service_episode.h"

#include <utility>

#include "util/error.h"
#include "vmm/host.h"
#include "vmm/vm.h"

namespace nm::core {

sim::TaskRef ServiceEpisode::start(EpisodeSpec spec) {
  // Reuse is fine once the previous episode finished; mid-flight restarts
  // would corrupt live_ under the service's feet.
  NM_CHECK(!started_ || done(),
           "ServiceEpisode::start while a previous episode is still in flight");
  NM_CHECK(spec.vm != nullptr, "ServiceEpisode::start(nullptr)");
  NM_CHECK(!spec.candidates.empty(), "EpisodeSpec has no destination");
  for (vmm::Host* host : spec.candidates) {
    NM_CHECK(host != nullptr, "EpisodeSpec has a null destination candidate");
  }
  live_ = vmm::MigrationStats{};  // fresh phase boundaries for observers
  started_ = true;
  spec.policies.bind_seed(spec.seed);
  ref_ = sim_->spawn(run(std::move(spec)), "service-episode");
  return ref_;
}

bool ServiceEpisode::done() const { return ref_.valid() && ref_.done(); }

sim::Task ServiceEpisode::run(EpisodeSpec spec) {
  co_await sim_->delay(spec.delay);

  // kEpisodeStart: fire-or-defer, and the destination pick among the
  // spec's candidates (StaticPolicy: fire now, keep the primary).
  auto candidates = [&spec] {
    std::vector<policy::HostCandidate> out;
    out.reserve(spec.candidates.size());
    for (const vmm::Host* host : spec.candidates) {
      policy::HostCandidate cand;
      cand.name = host->name();
      cand.resident_vms = static_cast<int>(host->vms().size());
      out.push_back(std::move(cand));
    }
    return out;
  };
  std::vector<int> picks;
  co_await policy::decide_start(*sim_, spec.policies, spec.source, /*vm_count=*/1, candidates,
                                "service episode", picks);
  vmm::Host* dst = spec.candidates[static_cast<std::size_t>(picks.front())];

  auto& src = spec.vm->host();  // resolved at fire time, not scheduling time
  const vmm::MigrationControl control = policy::make_migration_control(
      spec.policies, spec.source, src.migration_engine().config());
  co_await src.migrate(*spec.vm, *dst, &live_,
                       std::numeric_limits<double>::infinity(), &control);
}

ServiceEpisodeReport ServiceEpisode::report() const {
  NM_CHECK(done(), "ServiceEpisode::report before the episode completed");
  ServiceEpisodeReport r;
  r.start_at = live_.start_at;
  r.pause_at = live_.pause_at;
  r.end_at = live_.end_at;
  r.precopy = live_.pause_at - live_.start_at;
  r.blackout = live_.downtime;
  r.total = live_.total;
  return r;
}

bool ServiceEpisode::downtime_within(Duration max_downtime, double slack) const {
  NM_CHECK(done(), "ServiceEpisode::downtime_within before the episode completed");
  return live_.downtime <= max_downtime * slack;
}

}  // namespace nm::core
