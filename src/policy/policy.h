// policy:: — the pluggable decision framework that closes the SLO loop on
// live migration (ROADMAP: "decisions as plug-ins over a narrow
// stats/actuation API", the Sniper policy_code idiom).
//
// The migration *mechanism* (pre-copy + hotplug windows) is fixed; every
// *decision* — when to migrate, where to, how fast to pre-copy, when to
// pause, what to admit during the blackout — used to be a hardcoded branch
// at some call site in ninja.cpp / service_episode.cpp / the examples.
// Here those decisions are plug-ins with one narrow contract:
//
//   Observation in  — a read-only snapshot assembled at a clocked hook
//                     point: live vmm::MigrationStats, a per-phase SLO
//                     digest from the service layer, destination-candidate
//                     utilization.
//   Action out      — start/defer, a destination assignment, a pre-copy
//                     bandwidth cap, pause/defer-pause, force stop-and-copy,
//                     admit/reject. A default-constructed Action always
//                     means "keep the legacy behavior", which is what makes
//                     StaticPolicy's bit-identity guarantee structural
//                     rather than a re-implementation that could drift.
//
// Determinism contract: decide() must be a pure function of the
// Observation plus the policy's own named Rng stream (and any state the
// policy itself evolved at earlier hook invocations). Hooks fire at
// clocked instants of simulated time from task context — never from inside
// a fluid settle — so policy-driven timelines are reproducible bit for bit
// (tests/policy_test.cpp pins them by value for every shipped policy).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulation.h"
#include "sim/task.h"
#include "util/rng.h"
#include "util/units.h"
#include "vmm/migration.h"

namespace nm::policy {

/// The clocked decision points the frameworks expose. One Policy instance
/// may serve any subset; PolicySet routes each hook independently.
enum class Hook {
  kEpisodeStart,   // start or defer an episode; assign destinations
  kPreCopyRound,   // before each pre-copy round: bandwidth cap / force stop
  kPauseDecision,  // downtime estimate fits: pause now or keep pre-copying?
  kAdmission,      // service layer: admit this request in the current phase?
  kWaveGrant,      // evacuation wave grant: destination-host assignment
};
inline constexpr int kHooks = 5;

/// One migration phase's slice of the service-layer SLO digest.
struct SloPhaseView {
  std::uint64_t requests = 0;
  std::uint64_t deadline_misses = 0;
  Duration p50 = Duration::zero();
  Duration p99 = Duration::zero();
  Duration p999 = Duration::zero();
};

/// Read-only SLO digest of a live request-serving workload
/// (workloads::KvService::slo_snapshot produces one). `valid` is false
/// when no service is wired into the hook point.
struct SloSnapshot {
  bool valid = false;
  std::uint64_t generated = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t deadline_misses = 0;
  Duration deadline = Duration::zero();
  std::array<SloPhaseView, vmm::kMigrationPhases> phases{};

  [[nodiscard]] const SloPhaseView& phase(vmm::MigrationPhase p) const {
    return phases[static_cast<std::size_t>(p)];
  }
};

/// A destination candidate as seen at a placement hook.
struct HostCandidate {
  std::string name;
  int resident_vms = 0;
  /// Free VM slots; negative = uncapacitated / untracked (Ninja plans do
  /// not track slots, evacuation waves do).
  int free_slots = -1;
};

/// The read-only view a hook point assembles. Everything is a snapshot at
/// the hook instant; pointers are non-owning and valid only for the
/// duration of the decide() call.
struct Observation {
  TimePoint now = TimePoint::origin();
  /// Live stats of the migration this decision concerns (null before the
  /// engine publishes its first snapshot).
  const vmm::MigrationStats* migration = nullptr;
  /// Service-layer SLO digest (valid=false when no service observes).
  SloSnapshot slo;
  /// The engine's downtime promise in force.
  Duration max_downtime = Duration::zero();
  /// The engine's per-stream send rate (vmm::MigrationConfig::send_rate(),
  /// bytes/s).
  double line_rate = std::numeric_limits<double>::infinity();
  /// kPauseDecision: estimated stop-and-copy downtime at the uncapped rate.
  Duration estimated_downtime = Duration::zero();
  /// kPreCopyRound / kPauseDecision: pre-copy rounds completed so far.
  int round = 0;
  /// kEpisodeStart / kWaveGrant: destination candidates.
  std::vector<HostCandidate> candidates;
  /// kEpisodeStart / kWaveGrant: how many VMs are being placed.
  std::size_t vm_count = 0;
};

/// What a policy decided. Default-constructed == "keep the legacy
/// behavior" at every hook — StaticPolicy returns exactly this.
struct Action {
  // -- kEpisodeStart ------------------------------------------------------
  /// Defer the episode instead of starting it; the framework re-asks after
  /// `defer_for` (or its own poll period when zero).
  bool defer = false;
  Duration defer_for = Duration::zero();
  /// Per-VM candidate index (size vm_count, values in [0, candidates)).
  /// Empty = the legacy round-robin `destinations[i % size]` expansion
  /// (kEpisodeStart) or the driver's own greedy host pick (kWaveGrant).
  std::vector<int> assignment;
  // -- kPreCopyRound ------------------------------------------------------
  /// Bandwidth cap for the next pre-copy round (bytes/s; min'd with the
  /// engine's administrative and per-call caps). Infinity = uncapped.
  double bandwidth_cap = std::numeric_limits<double>::infinity();
  /// Force stop-and-copy now even though the estimate does not fit yet.
  bool force_stop_and_copy = false;
  // -- kPauseDecision -----------------------------------------------------
  /// Run another pre-copy round instead of pausing now (the engine asks
  /// again after that round; the round cap still bounds deferral).
  bool defer_pause = false;
  // -- kAdmission ---------------------------------------------------------
  /// Reject the request (fast-fail instead of queueing into the phase).
  bool reject = false;
};

/// Base class for migration/placement decision plug-ins.
class Policy {
 public:
  explicit Policy(std::string name) : name_(std::move(name)), rng_(0) {}
  Policy(const Policy&) = delete;
  Policy& operator=(const Policy&) = delete;
  virtual ~Policy() = default;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// The decision. Must be a pure function of `obs`, this policy's named
  /// Rng stream, and state evolved at earlier hook invocations; must not
  /// touch simulation state or block.
  [[nodiscard]] virtual Action decide(Hook hook, const Observation& obs) = 0;

  /// Derives the policy's private stream ("policy/<name>") from the
  /// simulation seed. Idempotent: the first bind wins, so a PolicySet
  /// shared between frameworks keeps one draw sequence.
  void bind_seed(std::uint64_t seed) {
    if (!bound_) {
      rng_ = Rng::stream(seed, "policy/" + name_);
      bound_ = true;
    }
  }

 protected:
  [[nodiscard]] Rng& rng() { return rng_; }

 private:
  std::string name_;
  Rng rng_;
  bool bound_ = false;
};

/// Decisions as plug-ins: one shared_ptr<Policy> per hook. Defaults to
/// StaticPolicy everywhere, so `PolicySet{}` *is* the legacy behavior.
class PolicySet {
 public:
  PolicySet();

  /// Routes every hook to `p`.
  PolicySet& use(std::shared_ptr<Policy> p);
  /// Routes one hook to `p`.
  PolicySet& use(Hook hook, std::shared_ptr<Policy> p);

  [[nodiscard]] Policy& at(Hook hook) const;

  /// Binds every distinct policy's Rng stream (idempotent per policy).
  void bind_seed(std::uint64_t seed) const;

  /// Convenience: bind + decide at one hook.
  [[nodiscard]] Action decide(Hook hook, const Observation& obs) const;

 private:
  std::array<std::shared_ptr<Policy>, kHooks> hooks_;
};

/// Callbacks a framework uses to fill the dynamic Observation fields at
/// each hook. All must be cheap, pure reads of simulated state; null
/// members simply leave the corresponding field at its default.
struct ObservationSource {
  std::function<SloSnapshot()> slo;
  std::function<TimePoint()> now;
};

/// Resolves an Action's destination assignment: validates a non-empty
/// assignment (size == vm_count, indices in range) and expands the legacy
/// round-robin when empty. Returns one candidate index per VM.
[[nodiscard]] std::vector<int> resolve_assignment(const Action& action,
                                                  std::size_t vm_count,
                                                  std::size_t candidate_count,
                                                  std::string_view who);

/// The kEpisodeStart loop: asks `set` whether to start an episode placing
/// `vm_count` VMs, re-asking after every deferral (`defer_for`, or 100 ms
/// when zero) at clocked instants, then resolves the final Action into
/// one candidate index per VM in `picks`. `candidates` builds the
/// destination view afresh for every ask; `source` fills the SLO digest.
[[nodiscard]] sim::Task decide_start(sim::Simulation& sim, const PolicySet& set,
                                     const ObservationSource& source, std::size_t vm_count,
                                     std::function<std::vector<HostCandidate>()> candidates,
                                     std::string_view who, std::vector<int>& picks);

/// Builds the vmm::MigrationEngine control block that routes the engine's
/// clocked decision points (per-round cap, pause instant, forced stop)
/// through `set`. `source` fills the SLO fields of each Observation;
/// `engine` is the engine configuration in force (its max_downtime and
/// send_rate() become the Observation's max_downtime and line_rate).
/// The returned struct captures `set` and `source` by value (policies are
/// shared_ptrs, so decisions still land in the caller's policy objects).
[[nodiscard]] vmm::MigrationControl make_migration_control(PolicySet set,
                                                           ObservationSource source,
                                                           const vmm::MigrationConfig& engine);

}  // namespace nm::policy
