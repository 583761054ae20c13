// Fluid-flow resource model with max-min fair sharing. One mechanism
// models every rate-limited resource in the system:
//   - a node's CPU (capacity = cores; a vCPU flow is capped at 1.0 core),
//   - a NIC's tx/rx bandwidth (capacity = bytes/s),
//   - QEMU's single-threaded migration sender (capacity = its CPU-bound
//     throughput).
// A *flow* progresses at one rate and consumes `rate * weight` from every
// resource it crosses. Weights convert between units: a TCP flow moving R
// bytes/s can cross the host CPU with weight = core-seconds-per-byte, which
// is how protocol-processing cost (virtio/TCP) is charged. The scheduler
// continuously assigns each flow its max-min fair rate and fires a
// completion event when its work is done. CPU over-commit contention
// (Fig 8 "2 hosts (TCP)") and the 1.3 Gb/s migration cap fall out of this.
//
// The solver is *incremental and component-partitioned*: the flow/resource
// bipartite graph is maintained as connected components, and a flow
// start/finish/cap change re-solves only the affected component. Each
// component carries its own next-completion timer, so activity on host A
// never costs O(all flows in the system) — per-event cost is O(component),
// independent of how many other (clean) components exist. See DESIGN.md §5
// "Scheduler incrementality" for the determinism argument.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "sim/task.h"
#include "util/error.h"

namespace nm::sim {

class Flow;
class FluidScheduler;
class FluidNet;
class SolvePool;

/// "No rate cap" for a flow.
inline constexpr double kUncappedRate = std::numeric_limits<double>::infinity();

class FluidResource;

/// Pluggable published-capacity policy consulted by the FluidNet boundary
/// exchange (DESIGN.md §7). When a resource carries one, the exchange folds
/// the policy's offer into a ghost flow's capacity instead of publishing the
/// plain fair-share offer — this is how a WAN link (sim/wan_link.h) makes
/// its published caps follow a latency/bandwidth/loss model.
///
/// `fair_offer` is the fair-share offer the resource would extend to the
/// boundary flow (flow-rate units); `weight` is the ghost's consumption
/// weight on the resource, so a policy expressing a wire-rate model returns
/// `model_rate / weight` to convert into flow-rate units. Implementations
/// must be deterministic functions of simulation state (they run inside the
/// exchange, between compute rounds), and must never offer *more* than
/// `fair_offer` would in steady state if the split-vs-merged equivalence is
/// to be preserved for the unimpaired case.
class CapPolicy {
 public:
  virtual ~CapPolicy() = default;
  [[nodiscard]] virtual double offer(const FluidResource& res, double weight, double fair_offer,
                                     TimePoint now) = 0;
};

/// A capacity-bearing resource. Units are caller-defined (cores, bytes/s).
/// A resource registers with exactly one scheduler — eagerly when
/// constructed with one (preferred: gives it a stable dense index up
/// front), or lazily on the first flow that crosses it.
class FluidResource {
 public:
  FluidResource(std::string name, double capacity) : name_(std::move(name)), capacity_(capacity) {
    NM_CHECK(capacity >= 0.0, "negative capacity for " << name_);
  }
  FluidResource(FluidScheduler& scheduler, std::string name, double capacity);
  ~FluidResource();
  FluidResource(const FluidResource&) = delete;
  FluidResource& operator=(const FluidResource&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double capacity() const { return capacity_; }
  /// Changing capacity re-balances the flows crossing it (the component is
  /// re-solved before any simulated time passes).
  void set_capacity(double capacity);

  /// Number of flow shares currently crossing this resource (a flow that
  /// crosses it twice, e.g. a same-host transfer's src and dst CPU, counts
  /// twice).
  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }

  /// Integrated consumption (resource-unit-seconds, e.g. core-seconds for
  /// a CPU): utilization accounting for experiments like the paper's
  /// "one CPU core is saturated at 100 %" migration observation. A pure
  /// O(1) read: each solve leaves the resource's aggregate consumption
  /// rate (capacity − residual) behind, so reading extrapolates over the
  /// constant-rate window since the last solve — no component is touched,
  /// idle or otherwise, and no simulation state changes.
  [[nodiscard]] double consumed() const;
  /// Mean utilization (fraction of capacity) over [since, until].
  [[nodiscard]] double utilization_over(double consumed_before, Duration window) const;

  /// Attaches a published-capacity policy consulted by the FluidNet ghost
  /// exchange when this resource hosts ghost shares (a WanLink attaches
  /// itself to its endpoint pair; see sim/wan_link.h). nullptr detaches.
  /// Plain single-scheduler solves never consult the policy.
  void set_cap_policy(CapPolicy* policy) { cap_policy_ = policy; }

 private:
  friend class FluidScheduler;
  friend class FluidNet;
  static constexpr std::uint32_t kNoSlot = 0xffffffffU;

  std::string name_;
  double capacity_;
  /// The unfinished flows crossing this resource, in admission order, one
  /// entry per share. Appended in FluidScheduler::start, removed in
  /// finish_flow_local; when the resource binds in a solve it freezes
  /// exactly these flows, so a filling round never scans the component.
  std::vector<Flow*> flows_;
  /// Σ weights of the unfinished flows crossing this resource, maintained
  /// incrementally at admission/finish so the solver can seed its
  /// weight-sum row without walking every flow's share list. Guard
  /// decisions use the integer `flows_.size()`, never this sum: repeated
  /// add/subtract leaves fp residue behind.
  double active_wsum_ = 0.0;
  /// The progressive-filling level at which this resource became binding in
  /// its component's most recent solve (−inf when it never bound). A
  /// resource binds in at most one filling round, so the stamp is unique
  /// per solve. FluidNet's ghost-capacity offers read it to advertise the
  /// max-min fair level a boundary flow could claim here.
  double bound_level_ = -std::numeric_limits<double>::infinity();
  /// Consumption integrated up to `rate_since_` (written only at solve
  /// time, per flow-share in component-flow order, so the float summation
  /// order is independent of when readers sample).
  double consumed_ = 0.0;
  /// Aggregate consumption rate (Σ rate × weight over crossing flows) in
  /// effect since `rate_since_`; rates are piecewise constant between
  /// solves, so `consumed() = consumed_ + consume_rate_ × elapsed`.
  double consume_rate_ = 0.0;
  TimePoint rate_since_;
  FluidScheduler* scheduler_ = nullptr;
  CapPolicy* cap_policy_ = nullptr;
  /// Stable dense index in the owning scheduler's resource registry.
  std::uint32_t slot_ = kNoSlot;
};

/// One resource crossed by a flow, with the flow's consumption weight on it
/// (resource units consumed per unit of flow rate).
struct ResourceShare {
  FluidResource* resource = nullptr;
  double weight = 1.0;
};

/// FlowSpec's diagnostic label. Deliberately NOT a std::string: GCC 12
/// relocates temporaries that live across a co_await suspension point into
/// the coroutine frame bitwise, which corrupts std::string's SSO
/// self-pointer (the relocated copy still points at the old buffer and
/// free()s a frame address on destruction). A FlowSpec temporary inside a
/// `co_await router.run(FlowSpec{...}...)` statement is exactly such a
/// temporary, so every member must tolerate a bitwise move — vectors do
/// (heap pointers only), SSO strings do not. Empty labels (the hot path)
/// never allocate.
class FlowLabel {
 public:
  FlowLabel() = default;
  FlowLabel(const char* s) : chars_(s, s + std::char_traits<char>::length(s)) {}
  FlowLabel(const std::string& s) : chars_(s.begin(), s.end()) {}
  [[nodiscard]] bool empty() const { return chars_.empty(); }
  [[nodiscard]] std::string str() const { return {chars_.begin(), chars_.end()}; }

 private:
  std::vector<char> chars_;
};

/// Everything needed to start a flow, in one aggregate. Build it with
/// designated initializers, or chain `over()` to add weighted shares:
///
///   router.start(FlowSpec{.work = bytes, .name = "tx"}
///                    .over(tx).over(rx).over(cpu, 1e-9));
///
/// This is the one flow-creation entry point (see FlowRouter); the old
/// `FluidScheduler::start(work, shares, max_rate)` overloads are gone.
struct FlowSpec {
  /// Work units to move (bytes, core-seconds, ...). Zero-work flows
  /// complete immediately.
  double work = 0.0;
  /// Resources crossed, with consumption weight per unit of flow rate.
  std::vector<ResourceShare> shares;
  /// Rate cap; kUncappedRate for none.
  double max_rate = kUncappedRate;
  /// Diagnostic label carried by the flow (may be empty).
  FlowLabel name;

  FlowSpec& over(FluidResource& resource, double weight = 1.0) & {
    shares.push_back(ResourceShare{&resource, weight});
    return *this;
  }
  // By value, not FlowSpec&&: the rvalue chain must yield a prvalue so a
  // coroutine parameter initialized from `FlowSpec{...}.over(r)` never
  // binds a reference to the intermediate temporary (GCC 12 relocates such
  // temporaries into the coroutine frame bitwise, which corrupts the SSO
  // string's self-pointer).
  FlowSpec over(FluidResource& resource, double weight = 1.0) && {
    shares.push_back(ResourceShare{&resource, weight});
    return std::move(*this);
  }
};

/// Handle to an in-flight flow. Shared so both the issuing task and
/// modelling code (e.g. "pause the VM") can reach it.
class alignas(64) Flow {
 public:
  [[nodiscard]] bool finished() const;
  [[nodiscard]] double remaining() const;
  [[nodiscard]] double current_rate() const;
  [[nodiscard]] Event& completion() { return done_; }
  /// Diagnostic label from the FlowSpec (may be empty).
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Caps this flow's rate; 0 pauses it (e.g. its VM was paused). While the
  /// flow is suspended the new cap is stored and applied on resume() — it
  /// neither un-pauses the flow nor is clobbered by the pre-suspend cap.
  void set_max_rate(double max_rate);
  [[nodiscard]] double max_rate() const { return max_rate_; }
  [[nodiscard]] const std::vector<ResourceShare>& shares() const { return shares_; }

  /// Pause/resume preserving the original rate cap. Used when a VM is
  /// paused: all its flows stall without forgetting their caps.
  void suspend();
  void resume();
  [[nodiscard]] bool suspended() const { return suspended_; }

 private:
  friend class FluidScheduler;
  friend class FluidNet;
  Flow(Simulation& sim, double work, std::vector<ResourceShare> shares, double max_rate,
       std::string name)
      : remaining_(work),
        max_rate_(max_rate),
        shares_(std::move(shares)),
        name_(std::move(name)),
        done_(sim) {
    w0_ = shares_.empty() ? 0.0 : shares_.front().weight;
  }

  static constexpr std::uint32_t kNoIndex = 0xffffffffU;

  /// The cap the solver actually honors: the user cap min the tightest
  /// rate the foreign domains currently advertise (boundary flows only;
  /// boundary_cap_ stays +inf for local flows, so the min is exact).
  [[nodiscard]] double effective_cap() const { return std::min(max_rate_, boundary_cap_); }

  // Solver-hot fields first: the class is 64-byte aligned so everything the
  // per-solve passes touch (integration, completion test, cap gathering,
  // water-level freezing) lands on one cache line per flow.
  double remaining_;
  double rate_ = 0.0;
  double max_rate_;
  /// Cross-domain coupling (FluidNet): a ghost flow mirrors a boundary
  /// flow's demand into a foreign domain; the home flow's boundary_cap_
  /// is refreshed by the settle-time exchange from the ghosts' offers.
  double boundary_cap_ = std::numeric_limits<double>::infinity();
  TimePoint last_update_;
  /// Cached shares_.front().weight (shares are immutable after admission):
  /// lets the single-resource water-fill fast path skip the shares_ deref.
  double w0_ = 0.0;
  /// Connected component this flow belongs to, and its positions in the
  /// component's flow list and the scheduler's global flow list.
  std::uint32_t comp_ = kNoIndex;
  std::uint32_t comp_index_ = kNoIndex;
  std::uint32_t global_index_ = kNoIndex;
  bool ghost_ = false;
  bool suspended_ = false;
  bool finished_ = false;
  // Cold fields (admission-time or rare-path only) below.
  double saved_max_rate_ = 0.0;
  std::vector<ResourceShare> shares_;
  std::string name_;
  Event done_;  // inline member: Flow is heap-pinned, so the address is stable
  FluidScheduler* scheduler_ = nullptr;
  /// Admission order, scheduler-wide. Component flow lists are kept in this
  /// order (canonicalized on rebuild) so progressive filling sums floats in
  /// the same order the seed's global solver did.
  std::uint64_t seq_ = 0;
};

using FlowPtr = std::shared_ptr<Flow>;

/// Anything that can admit a FlowSpec: a single FluidScheduler, or the
/// multi-domain FluidNet façade (fluid_net.h) that routes each spec to the
/// owning domain and registers specs whose resources span domains as
/// boundary flows. Modelling code (fabrics, hosts, storage) holds a
/// FlowRouter& so it works unchanged under any domain partitioning.
class FlowRouter {
 public:
  virtual ~FlowRouter() = default;
  [[nodiscard]] virtual Simulation& simulation() = 0;
  /// Starts the described flow. Every resource must outlive the flow.
  virtual FlowPtr start(FlowSpec spec) = 0;
  /// Coroutine helper: start the flow and wait for its completion.
  [[nodiscard]] Task run(FlowSpec spec);
};

class FluidScheduler : public FlowRouter {
 public:
  explicit FluidScheduler(Simulation& sim) : sim_(&sim) {}
  ~FluidScheduler() override;
  FluidScheduler(const FluidScheduler&) = delete;
  FluidScheduler& operator=(const FluidScheduler&) = delete;

  [[nodiscard]] Simulation& simulation() override { return *sim_; }

  /// Starts a flow described by `spec`. A zero-work flow completes
  /// immediately. Every resource must outlive the flow; every resource must
  /// be unowned or owned by this scheduler (a spec that spans schedulers
  /// must go through FluidNet, which owns the boundary-flow machinery).
  FlowPtr start(FlowSpec spec) override;
  using FlowRouter::run;

  /// Number of connected flow/resource components currently tracked.
  [[nodiscard]] std::size_t component_count() const;

 private:
  friend class Flow;
  friend class FluidResource;
  friend class FluidNet;
  friend class SolvePool;

  static constexpr std::uint32_t kNone = 0xffffffffU;

  /// A connected component of the flow/resource bipartite graph: the unit
  /// of incremental re-solving. `timer` is its one pending next-completion
  /// entry, if any: each solve re-keys it in place, and retiring the
  /// component (merge, dissolve, rebuild) or an infinite next completion
  /// cancels it, so the event queue never holds a superseded timer.
  struct Component {
    std::uint32_t id = kNone;
    Simulation::Ticket timer;
    bool dirty = false;
    std::vector<Flow*> flows;
    std::vector<std::uint32_t> res_slots;
    /// Instant the component was last solved or integrated to. Every member
    /// flow with a nonzero rate shares it as `last_update_` (flows admitted
    /// later carry rate 0 until their first solve), so the solver hoists
    /// one uniform elapsed window instead of differencing per flow.
    /// merge_into integrates both sides first to keep the invariant.
    TimePoint last_solved;
  };

  /// Scratch for the pure compute phase of a solve, owned by the SolvePool
  /// and by each scheduler for its own solves. Rows are slot-indexed into
  /// the owning scheduler's resource registry and initialized per component
  /// before use, so one scratch can serve components from any scheduler —
  /// it only ever needs to be grown, never cleared.
  struct SolveScratch {
    /// Slot-indexed rows: residual capacity, unfrozen weight sum and
    /// unfrozen share count of each resource.
    std::vector<double> res_residual;
    std::vector<double> res_wsum;
    std::vector<std::uint32_t> res_unfrozen;
    /// Dense frozen flags; index = local flow index (position in
    /// Component::flows, admission order). Caps and residual work are read
    /// off the (cache-line-packed) Flow itself.
    std::vector<std::uint8_t> f_frozen;
    /// Slots of the resources that still carry unfrozen flows, compacted
    /// as rounds freeze them out, and each one's water level this round.
    std::vector<std::uint32_t> r_live;
    std::vector<double> r_level;
    /// (effective cap, local flow index) of every finitely capped flow,
    /// sorted once per solve and walked by a cursor: the "partial sort".
    /// The pair order breaks cap ties by admission index.
    std::vector<std::pair<double, std::uint32_t>> caps;
    /// Flows freezing in the current round, restored to admission order
    /// before their subtractive updates run.
    std::vector<std::uint32_t> freeze_batch;
  };

  /// Everything a compute phase hands to the serial commit phase: the flows
  /// that completed (strong refs, in component order) and the earliest
  /// time-to-completion among the survivors.
  struct SolveResult {
    std::vector<FlowPtr> finished;
    double next_completion_s = std::numeric_limits<double>::infinity();
  };

  void register_resource(FluidResource& res);
  void unregister_resource(FluidResource& res);

  Component* component_of_flow(const Flow& flow) {
    return flow.comp_ == kNone ? nullptr : comps_[flow.comp_].get();
  }
  Component* component_of_slot(std::uint32_t slot) {
    const auto id = slot_comp_[slot];
    return id == kNone ? nullptr : comps_[id].get();
  }

  Component& make_component();
  /// Merges `src` into `dst` (flows, resources, dirtiness) and retires it.
  void merge_into(Component& dst, Component& src);
  void mark_dirty(Component& comp);
  /// Solves every dirty component, then considers a component rebuild.
  void settle_dirty();
  /// Brings one flow's component up to date (getter entry point).
  void ensure_settled(const Flow& flow);

  /// Integrate + complete + re-solve + re-arm timer for one component:
  /// compute_component + commit_component back to back (the path without
  /// a pool).
  void solve_component(Component& comp);
  /// The pure compute phase of a solve: integrates progress, detects
  /// completions, compacts the component's flow list, and re-solves rates
  /// and consumption stamps — touching only the component's own flows and
  /// resources plus the caller's scratch, so a whole batch of components
  /// (of this or any other scheduler) can compute before any commits.
  /// Posts nothing and mutates no scheduler-global state; completions and
  /// the next timer are reported through `out` for commit_component.
  void compute_component(Component& comp, SolveScratch& scratch, SolveResult& out);
  /// Water-level filling over the rows prepared by compute_component: each
  /// round freezes the caps tied at the level (cursor over the sorted cap
  /// array) and the flow lists of the resources binding at it. Returns the
  /// earliest time-to-completion in seconds (+inf if nothing progresses).
  double water_fill(Component& comp, SolveScratch& scratch);
  /// Multi-line diagnostic dump of a component's resources (capacity,
  /// residual bookkeeping, bound levels) and flows (demand, caps, shares)
  /// for solver no-progress failures. Cold path only.
  [[nodiscard]] std::string describe_component(const Component& comp) const;
  /// The serial commit phase: retires finished flows from the global list,
  /// arms the component's next-completion timer (or dissolves an emptied
  /// component), then fires completion events. A caller that computes a
  /// batch first commits it in canonical (domain id, component id) order,
  /// so the sequence numbers its posts draw from the shared Simulation
  /// queue depend only on the batch.
  void commit_component(Component& comp, SolveResult& out);
  /// Advances progress/consumption at current rates; no completions.
  void integrate_component(Component& comp);
  /// Re-keys (or posts) the component's completion timer for the given
  /// time-to-completion; cancels it when that is infinite.
  void arm_timer(Component& comp, double next_completion_s);
  void on_timer(std::uint32_t id);
  /// Cancels a retiring component's pending completion timer.
  void cancel_timer(Component& comp);

  /// Flow-retire bookkeeping; components over-approximate connectivity
  /// until enough flows have retired, then are recomputed from scratch
  /// (epoch rebuild) so they can split again.
  void maybe_rebuild();
  void rebuild_components();

  /// Completion bookkeeping confined to the flow's own component/resources
  /// (safe in the compute phase).
  void finish_flow_local(Flow& flow);
  /// Scheduler-global completion bookkeeping (commit phase only).
  void retire_flow_global(Flow& flow);

  Simulation* sim_;
  std::vector<FlowPtr> flows_;

  // Resource registry: stable dense slots, free-listed on unregister.
  std::vector<FluidResource*> res_slots_;
  std::vector<std::uint32_t> free_res_slots_;
  std::vector<std::uint32_t> slot_comp_;

  // Component registry.
  std::vector<std::unique_ptr<Component>> comps_;
  std::vector<std::uint32_t> free_comp_ids_;
  std::size_t live_comp_count_ = 0;

  // Deferred settling: mutations mark components dirty and a zero-delay
  // callback re-solves them before any simulated time passes. When a
  // SolvePool is attached, the pool's kernel settle hook takes over: marks
  // notify the pool instead of posting, and dirty components are solved in
  // one batch at the end of the instant.
  std::vector<std::uint32_t> dirty_comps_;
  bool settle_pending_ = false;
  SolvePool* pool_ = nullptr;
  bool pool_dirty_ = false;       // this scheduler has unsettled components
  std::uint32_t pool_domain_ = 0;  // attach order = canonical domain id

  // Solve scratch/result for the serial path (ensure_settled, and every
  // solve when no pool is attached).
  SolveScratch serial_scratch_;
  SolveResult serial_result_;

  std::size_t retired_since_rebuild_ = 0;
  std::uint64_t next_flow_seq_ = 0;
};

/// A topology shard: one independently-solved FluidScheduler over a shared
/// simulation clock. When the partition follows the modelled topology's
/// connectivity (no flow ever spans domains) the split is exact: rates in
/// one domain never depend on another domain's state, and every domain's
/// timers drain through the one simulation's (time, sequence) event queue,
/// so the merged timeline is bit-identical for every valid partitioning.
/// Flows that do span domains are admitted through FluidNet (fluid_net.h)
/// as boundary flows: the settle-time ghost-capacity exchange couples the
/// domains' solves and converges to the same max-min rates the merged
/// scheduler would compute — see DESIGN.md §6 and sim_sharding_test.
class FluidDomain {
 public:
  FluidDomain(Simulation& sim, std::string name)
      : name_(std::move(name)), scheduler_(std::make_unique<FluidScheduler>(sim)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] FluidScheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] Simulation& simulation() { return scheduler_->simulation(); }

 private:
  std::string name_;
  // unique_ptr so resources keep a stable scheduler address if the owning
  // container of domains reallocates.
  std::unique_ptr<FluidScheduler> scheduler_;
};

}  // namespace nm::sim
