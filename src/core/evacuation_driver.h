// MassEvacuation: executes a plan::EvacuationPlanner schedule against a
// live Federation — the bridge between the pure planning layer and the
// simulated testbeds.
//
// Wave commit protocol (DESIGN.md §9): every scheduling decision is made at
// a wave *grant*, a fixed instant in simulated time reached from task
// context. At a grant the driver (1) recomputes the mesh routes
// (Federation::recompute_routes), so the fabrics detour around partitioned
// edges whenever an alternative path exists, (2) reads every WanLink's live
// effective rate and recomputes each wave member's route on the live mesh,
// (3) re-runs the max-min rate assignment against the live capacities, each
// stream capped at the source site's per-stream send rate
// (vmm::MigrationConfig::send_rate()), and (4) pins each migration to its
// planned rate via the per-call bandwidth cap. Members whose destination is
// unreachable are deferred and re-planned — rerouted when an alternate path
// exists, retried on a poll period until the mesh heals otherwise. Because
// planned rates never oversubscribe an edge, each migration realizes
// exactly its planned rate, so the pre-copy estimator is accurate and
// realized downtime respects MigrationConfig::max_downtime. All inputs to a
// grant are deterministic functions of simulated state at that instant, so
// an evacuation timeline is reproducible to the nanosecond (pinned by value
// in wan_federation_test and bench_gate's sweep9 row).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/federation.h"
#include "plan/evacuation_planner.h"
#include "policy/policy.h"
#include "sim/task.h"

namespace nm::core {

struct EvacuationConfig {
  /// Site to evacuate (index into the federation's sites).
  std::size_t source_site = 0;
  /// The driver overwrites `stream_rate_cap` and `per_vm_setup` with the
  /// source site's per-stream send rate (vmm::MigrationConfig::send_rate())
  /// and migration setup time (vmm::MigrationConfig::setup_time).
  plan::PlannerConfig planner;
  /// Execute the naive-sequential baseline instead of the batched plan.
  bool sequential = false;
  /// Plan and place as if every site were flat: the planner sees the
  /// leaf layer stripped (SiteGraph::without_leaves), wave rates ignore
  /// leaf capacities, and destination hosts are picked site-wide. On a
  /// Clos site the pinned rates can then oversubscribe leaf uplinks or a
  /// destination leaf, so streams realize less than planned — the
  /// topology-blind baseline the experiments compare against.
  bool topology_blind = false;
  /// Decision plug-ins: the kWaveGrant hook assigns destination *hosts*
  /// within each wave member's planned destination site. The default
  /// (static) set keeps the driver's own most-free-slots pick.
  policy::PolicySet policies;
  /// Seeds the policies' Rng streams.
  std::uint64_t seed = 0;
};

struct VmOutcome {
  std::string vm;
  std::string dst_host;
  int wave = -1;
  /// Grants at which this VM's destination was unreachable.
  int deferrals = 0;
  std::int64_t start_ns = -1;
  std::int64_t done_ns = -1;
  Duration downtime = Duration::zero();
};

struct EvacuationReport {
  std::int64_t started_ns = 0;
  std::int64_t done_ns = 0;
  int waves = 0;
  /// Re-plans of deferred VMs against the live mesh that scheduled at
  /// least one of them; retry polls that place nothing do not count.
  int replans = 0;
  std::size_t evacuated = 0;
  bool sequential_fallback = false;
  std::vector<VmOutcome> vms;

  [[nodiscard]] Duration makespan() const {
    return Duration::nanos(done_ns - started_ns);
  }
  /// p in [0, 1]: nearest-rank percentile over per-VM downtimes.
  [[nodiscard]] Duration downtime_percentile(double p) const;
  [[nodiscard]] Duration downtime_max() const;
};

class MassEvacuation {
 public:
  explicit MassEvacuation(Federation& fed, EvacuationConfig config = {});

  [[nodiscard]] const EvacuationConfig& config() const { return config_; }

  /// The planner input the next run() would use: federation mesh (nominal
  /// edge rates when `nominal`, live effective rates otherwise) with
  /// destination slots: 16 per host minus its residents and in-flight
  /// arrivals.
  [[nodiscard]] plan::SiteGraph current_graph(bool nominal = true) const;

  /// Evacuates every VM resident on the source site. Reports per-VM
  /// timeline/downtime and the overall makespan into `report`.
  [[nodiscard]] sim::Task run(EvacuationReport* report);

 private:
  struct Pending {
    std::size_t vm_index = 0;        // into vms_/moves_/report order
    std::size_t dst_site = 0;
    double planned_rate = 0.0;
    /// Planner-chosen destination leaf (index into the planning graph's
    /// leaf list); kNoLeaf on flat sites or under topology_blind.
    std::size_t dst_leaf = plan::kNoLeaf;
  };

  /// Grants one wave: live routes + rates, host selection, spawn + join.
  /// Members with no live route to their destination are appended to
  /// `deferred` instead of granted.
  [[nodiscard]] sim::Task grant_wave(std::vector<Pending> members, int wave_index,
                                     EvacuationReport& report,
                                     std::vector<std::size_t>& deferred);
  /// Destination host with the most free slots on `site` (tie: lowest
  /// index); reserves one slot. {nullptr, 0} when the site is full. With
  /// a `dst_leaf`, only hosts racked under that leaf are considered
  /// first, falling back to the whole site when the leaf has filled
  /// since planning.
  [[nodiscard]] std::pair<vmm::Host*, std::size_t> pick_dst_host(
      std::size_t site, std::size_t dst_leaf = plan::kNoLeaf);
  /// Index into the planning graph's leaf list where `site`'s leaves
  /// start (current_graph appends each Clos site's leaves in site order).
  [[nodiscard]] std::size_t leaf_base(std::size_t site) const;

  Federation* fed_;
  EvacuationConfig config_;
  // Per-run state (filled by run()).
  std::vector<std::shared_ptr<vmm::Vm>> vms_;
  std::vector<vmm::Host*> src_hosts_;
  std::vector<plan::VmToMove> moves_;
  std::vector<vmm::MigrationStats> stats_;
  std::vector<std::vector<vmm::Host*>> hosts_by_site_;
  /// In-flight reservations per destination host (parallel to
  /// hosts_by_site_); released once the migration lands (the VM then
  /// counts as a resident).
  std::vector<std::vector<int>> reserved_by_site_;
};

}  // namespace nm::core
