// Mass-evacuation planning over an N-site WAN mesh (ROADMAP: "N-site
// federation + mass-evacuation planner"). The planner is pure arithmetic —
// no simulation types — so property tests can sweep hundreds of random
// site graphs per second and a driver (core::MassEvacuation) can re-invoke
// it mid-run when the mesh changes.
//
// Model: sites are vertices, WanLinks are capacitated edges (bytes/s, with
// an optional phase schedule scaling the capacity over time — factor 0 is
// a partition). A VM migration is one stream from the source site to a
// chosen destination site along a fewest-hops route; it consumes its
// planned rate on *every* edge of the route.
//
// Intra-site topology (optional): a site built on a net::ClosFabric
// additionally exposes its leaf switches as LeafSpecs — each an uplink
// capacity (egress toward the WAN) and a downlink capacity (ingress
// toward the hosts). A stream then also consumes its rate on the source
// VM's leaf uplink and the destination leaf's downlink; wave admission
// respects leaf-uplink stream slots and a destination-leaf incast limit,
// and each stream aims at the destination leaf with the fewest inbound
// wave streams. When `leaves` is empty the planner behaves exactly as
// before (WAN edges only).
//
// The planner answers three questions, in the shapes studied by "Virtual
// Machine Migration Planning in Software-Defined Networks" (ordering and
// bandwidth-aware batching decide makespan) and "Simple Destination-Swap
// Strategies" (cheap placement heuristics + pairwise swaps):
//   1. destination selection — spread VMs over reachable sites with free
//      slots by longest-processing-time list scheduling on each site's
//      drain speed, then a bounded destination-swap pass;
//   2. batching — waves of concurrent streams, admission capped per edge
//      (stream slots = capacity / min_stream_rate) and per source host;
//   3. rates — max-min fair allocation of every wave's streams over the
//      edge capacities at grant time, each stream capped at the per-stream
//      ceiling. Feasibility invariant: the sum of planned rates crossing
//      an edge never exceeds that edge's capacity at wave grant time.
//
// plan() always computes the naive-sequential baseline too and returns it
// when batching cannot beat it, so `plan(...).makespan <=
// plan_sequential(...).makespan` holds unconditionally — the property
// tests pin this.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace nm::plan {

inline constexpr double kNever = std::numeric_limits<double>::infinity();
/// "No leaf": a flat site, or a VM whose source rack is unknown.
inline constexpr std::size_t kNoLeaf = static_cast<std::size_t>(-1);

/// One step of an edge's capacity schedule (mirrors sim::WanLinkPhase at
/// the planning layer). `at` is in seconds from plan origin.
struct EdgePhase {
  double at = 0.0;
  double capacity_factor = 1.0;
};

struct EdgeSpec {
  std::size_t a = 0;
  std::size_t b = 0;
  /// Effective edge rate at capacity factor 1, bytes/s (for a WanLink:
  /// line rate folded with the Mathis ceiling).
  double rate = 0.0;
  /// Time-varying capacity, ascending by `at`; factor 0 partitions the
  /// edge. Empty = constant `rate`.
  std::vector<EdgePhase> schedule;

  /// Capacity in effect at time `t` (factor of the latest phase with
  /// `phase.at <= t`; 1.0 before the first phase).
  [[nodiscard]] double capacity_at(double t) const;
};

struct SiteSpec {
  std::string name;
  /// VM slots this site can accept (0 for the evacuating source). For a
  /// site with leaves the planner uses the sum of its leaves' slots
  /// instead.
  int free_vm_slots = 0;
};

/// One leaf (top-of-rack) switch of a site's internal Clos fabric: the
/// planner sees it as two capacitated intra-site edges, an aggregate
/// uplink (toward the spine/WAN) and an aggregate downlink (toward the
/// hosts racked under it).
struct LeafSpec {
  std::string name;
  std::size_t site = 0;
  /// Aggregate leaf->spine capacity, bytes/s; 0 = every uplink dead.
  double uplink_rate = 0.0;
  /// Aggregate spine->leaf capacity, bytes/s.
  double downlink_rate = 0.0;
  /// VM slots on hosts under this leaf (0 at the evacuating source).
  int free_vm_slots = 0;
};

struct SiteGraph {
  std::vector<SiteSpec> sites;
  std::vector<EdgeSpec> edges;
  /// Intra-site leaf switches, any order; empty = every site is flat.
  std::vector<LeafSpec> leaves;

  /// This graph with the leaf layer stripped: sites that had leaves get
  /// the sum of their leaves' slots as free_vm_slots. The topology-blind
  /// baseline plans against this view (and both plan() and the property
  /// suite must build it the same way — hence a member).
  [[nodiscard]] SiteGraph without_leaves() const;

  /// Fewest-hops route `from` -> `to` over edges alive at time `t`
  /// (capacity_at(t) > 0), as edge indices in traversal order. BFS visits
  /// neighbours in edge-index order, so the route is deterministic. Empty
  /// when from == to or unreachable.
  [[nodiscard]] std::vector<std::size_t> route(std::size_t from, std::size_t to,
                                               double t) const;
  /// min over the route's edges of capacity_at(t); 0 for an empty route.
  [[nodiscard]] double bottleneck(const std::vector<std::size_t>& route, double t) const;
  /// Earliest schedule event strictly after `t` on any edge (kNever when
  /// no edge changes again).
  [[nodiscard]] double next_phase_after(double t) const;
};

struct VmToMove {
  std::string name;
  /// Wire payload to move (bytes).
  double bytes = 0.0;
  /// Guest memory the migration thread must walk (scan-cost input).
  double scan_bytes = 0.0;
  /// Opaque source-host key; waves admit at most
  /// PlannerConfig::max_streams_per_src_host streams per key.
  std::size_t src_host = 0;
  /// Index into SiteGraph::leaves of the rack the VM drains through, or
  /// kNoLeaf when the source site is flat.
  std::size_t src_leaf = kNoLeaf;
};

struct PlannerConfig {
  /// Per-stream rate ceiling, bytes/s (the migration thread's CPU-bound
  /// TCP send rate by default).
  double stream_rate_cap = 162.5e6;
  /// Streams are not admitted onto an edge already carved into slots
  /// thinner than this (bytes/s): it bounds per-stream blackout time.
  double min_stream_rate = 4e6;
  int max_streams_per_edge = 8;
  int max_streams_per_src_host = 2;
  /// Fixed per-migration overhead, seconds (setup + handshake).
  double per_vm_setup = 0.2;
  /// Page-walk rate of the migration thread, bytes/s.
  double scan_rate = 734.0e6;
  /// Run the destination-swap refinement after list scheduling.
  bool swap_pass = true;
  /// Incast limit: concurrent inbound streams a wave may aim at one
  /// destination leaf (further tightened by the leaf's downlink capacity
  /// in stream_rate_cap units).
  int max_streams_per_dst_leaf = 4;
};

struct Assignment {
  std::size_t vm = 0;
  std::size_t dst_site = 0;
  std::vector<std::size_t> route_edges;
  /// -1 when the planner could not schedule the VM (no reachable site
  /// with a free slot at any plan-visible time).
  int wave = -1;
  double planned_rate = 0.0;
  /// Wave grant time and estimated completion, seconds from plan origin.
  double start = 0.0;
  double finish = 0.0;
  /// Destination leaf (index into SiteGraph::leaves) when the chosen site
  /// has leaves; kNoLeaf otherwise. The driver places the VM on a host
  /// racked under it.
  std::size_t dst_leaf = kNoLeaf;
};

struct Plan {
  /// Index-aligned with the input VM list; every VM appears exactly once.
  std::vector<Assignment> assignments;
  int wave_count = 0;
  /// Last estimated finish minus plan start time.
  double makespan = 0.0;
  std::size_t unscheduled = 0;
  /// True when the naive-sequential order beat batching and was returned.
  bool sequential_fallback = false;
  /// True when the returned plan is a re-costed topology-blind shape
  /// (evaluate() of a without_leaves() plan beat the leaf-aware batching):
  /// its rates respect every leaf capacity, but its admission ignores the
  /// leaf slot/incast limits and its re-routed waves may exceed the
  /// per-edge/per-host stream slots the batching would have enforced.
  bool topology_blind = false;
};

class EvacuationPlanner {
 public:
  explicit EvacuationPlanner(SiteGraph graph, PlannerConfig config = {});

  [[nodiscard]] const SiteGraph& graph() const { return graph_; }
  [[nodiscard]] const PlannerConfig& config() const { return config_; }

  /// Batched, capacity/swap-aware plan evacuating `vms` from `src_site`
  /// starting at time `now`. Guaranteed no worse than plan_sequential on
  /// both makespan and scheduled-VM count.
  [[nodiscard]] Plan plan(std::size_t src_site, const std::vector<VmToMove>& vms,
                          double now = 0.0) const;
  /// Naive baseline: one migration at a time, input order, full bottleneck
  /// rate each.
  [[nodiscard]] Plan plan_sequential(std::size_t src_site, const std::vector<VmToMove>& vms,
                                     double now = 0.0) const;

  /// Max-min fair rates for one wave's concurrent streams at time `t`:
  /// stream s takes one unit of every edge in `*routes[s]` (capacity
  /// capacity_at(t)), of leaf uplink `src_leaf[s]` and of leaf downlink
  /// `dst_leaf[s]` (capacities max(0, uplink_rate) and
  /// max(0, downlink_rate); a missing or out-of-range index, kNoLeaf
  /// included, skips that side), every stream capped at stream_rate_cap.
  /// A routeless stream gets rate 0. Drivers re-run this at wave grant
  /// time on a graph of live capacities, so the feasibility invariant
  /// holds against the *current* mesh, not the plan-time snapshot.
  [[nodiscard]] std::vector<double> wave_rates(
      const std::vector<const std::vector<std::size_t>*>& routes,
      const std::vector<std::size_t>& src_leaf, const std::vector<std::size_t>& dst_leaf,
      double t) const;

  /// Re-costs another plan's shape (wave membership + destination sites)
  /// under *this* planner's graph: routes are recomputed per wave,
  /// destination leaves are picked the way a topology-blind driver would
  /// (most free slots, lowest index — no load spreading, no incast cap),
  /// and each wave's rates are re-run max-min against the full topology,
  /// leaf capacities included. This is what actually executing a
  /// topology-blind plan against a Clos site costs; plan() folds the
  /// evaluated blind candidates into its best-of so the topology-aware
  /// result is never worse (the property suite pins plan() <=
  /// evaluate(without_leaves() plan)).
  [[nodiscard]] Plan evaluate(std::size_t src_site, const std::vector<VmToMove>& vms,
                              const Plan& shape, double now = 0.0) const;

 private:
  [[nodiscard]] Plan plan_batched(std::size_t src_site, const std::vector<VmToMove>& vms,
                                  double now) const;
  /// True when `candidate` strictly beats `incumbent` (fewer unscheduled,
  /// or equal and a smaller makespan).
  [[nodiscard]] static bool better(const Plan& candidate, const Plan& incumbent);

  SiteGraph graph_;
  PlannerConfig config_;
};

}  // namespace nm::plan
