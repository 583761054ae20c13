// Service-aware migration episode runner: schedules one live migration at
// a chosen instant and keeps the *live* MigrationStats readable for the
// whole episode, so a request-serving workload (workloads::KvService) can
// classify every completion against the phase the service was actually in
// — steady, pre-copy, blackout, post — while the migration is still
// running. After completion it reports the phase spans and checks the
// blackout against the engine's max_downtime promise.
//
// Decisions (when to fire, which destination, per-round throttling, the
// pause instant) route through a policy::PolicySet carried by the
// EpisodeSpec; the default set is StaticPolicy everywhere, which is the
// historical behavior bit for bit.
#pragma once

#include <memory>
#include <vector>

#include "policy/policy.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "util/units.h"
#include "vmm/migration.h"

namespace nm::vmm {
class Host;
class Vm;
}  // namespace nm::vmm

namespace nm::core {

struct ServiceEpisodeReport {
  TimePoint start_at;
  TimePoint pause_at;
  TimePoint end_at;
  Duration precopy = Duration::zero();   // start -> pause
  Duration blackout = Duration::zero();  // stop-and-copy downtime
  Duration total = Duration::zero();
};

/// Everything one episode is built from (the FlowSpec idiom): the VM, its
/// primary destination, the firing delay, optional alternate destinations
/// for the placement policy to choose among, and the decision plug-ins.
struct EpisodeSpec {
  EpisodeSpec(std::shared_ptr<vmm::Vm> vm, vmm::Host& destination)
      : vm(std::move(vm)) {
    candidates.push_back(&destination);
  }

  /// Fire `d` after start() (default: immediately).
  EpisodeSpec& after(Duration d) {
    delay = d;
    return *this;
  }
  /// Adds an alternate destination the kEpisodeStart policy may pick
  /// instead of the primary (StaticPolicy always keeps the primary).
  EpisodeSpec& or_to(vmm::Host& alternate) {
    candidates.push_back(&alternate);
    return *this;
  }
  /// Installs the decision plug-ins; `seed` binds their Rng streams.
  EpisodeSpec& with(policy::PolicySet set, std::uint64_t rng_seed = 0) {
    policies = std::move(set);
    seed = rng_seed;
    return *this;
  }
  /// Wires the observation callbacks that feed the policies (e.g.
  /// KvService::observation_source()).
  EpisodeSpec& observe(policy::ObservationSource src) {
    source = std::move(src);
    return *this;
  }

  std::shared_ptr<vmm::Vm> vm;
  /// candidates[0] is the primary destination; the rest are alternates.
  std::vector<vmm::Host*> candidates;
  Duration delay = Duration::zero();
  policy::PolicySet policies;
  policy::ObservationSource source;
  std::uint64_t seed = 0;
};

class ServiceEpisode {
 public:
  explicit ServiceEpisode(sim::Simulation& sim) : sim_(&sim) {}
  ServiceEpisode(const ServiceEpisode&) = delete;
  ServiceEpisode& operator=(const ServiceEpisode&) = delete;

  /// Schedules the episode described by `spec`; returns the joinable ref
  /// (also retained internally for done()/report()). Reusable: a finished
  /// episode object may start() again (live() resets); a second start()
  /// while one is still in flight fails loudly.
  sim::TaskRef start(EpisodeSpec spec);

  /// The live stats object the migration engine mirrors into per chunk —
  /// hand this to KvService::observe_migration before the episode starts.
  [[nodiscard]] const vmm::MigrationStats& live() const { return live_; }

  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool done() const;

  /// Phase spans of the completed episode.
  [[nodiscard]] ServiceEpisodeReport report() const;

  /// True when the measured blackout stayed within the engine's configured
  /// max_downtime (with `slack` as a multiplicative allowance for the
  /// final-drain estimate error).
  [[nodiscard]] bool downtime_within(Duration max_downtime, double slack = 1.0) const;

 private:
  [[nodiscard]] sim::Task run(EpisodeSpec spec);

  sim::Simulation* sim_;
  vmm::MigrationStats live_;
  sim::TaskRef ref_;
  bool started_ = false;
};

}  // namespace nm::core
