#include "sim/fluid.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <utility>

#include "sim/solve_pool.h"

namespace nm::sim {

namespace {
// Work below this is treated as complete (work units are bytes or
// core-seconds, so 1e-6 is far below anything observable).
constexpr double kEpsilon = 1e-6;
}  // namespace

// --- FluidResource ---------------------------------------------------------

FluidResource::FluidResource(FluidScheduler& scheduler, std::string name, double capacity)
    : FluidResource(std::move(name), capacity) {
  scheduler.register_resource(*this);
}

FluidResource::~FluidResource() {
  if (scheduler_ != nullptr) {
    scheduler_->unregister_resource(*this);
  }
}

void FluidResource::set_capacity(double capacity) {
  NM_CHECK(capacity >= 0.0, "negative capacity for " << name_);
  capacity_ = capacity;
  if (scheduler_ != nullptr && slot_ != kNoSlot) {
    if (auto* comp = scheduler_->component_of_slot(slot_)) {
      scheduler_->mark_dirty(*comp);
    }
  }
}

double FluidResource::consumed() const {
  // Pure read: rates are piecewise constant between solves, so the exact
  // integral is the solve-time prefix plus a linear extrapolation. No
  // component is integrated or settled — readers cannot perturb the
  // simulation, and idle resources cost nothing.
  if (scheduler_ == nullptr || consume_rate_ == 0.0) {
    return consumed_;
  }
  const Duration elapsed = scheduler_->simulation().now() - rate_since_;
  return consumed_ + consume_rate_ * elapsed.to_seconds();
}

double FluidResource::utilization_over(double consumed_before, Duration window) const {
  const double window_s = window.to_seconds();
  if (window_s <= 0.0 || capacity_ <= 0.0) {
    return 0.0;
  }
  return (consumed() - consumed_before) / (capacity_ * window_s);
}

// --- Flow ------------------------------------------------------------------

bool Flow::finished() const {
  if (!finished_ && scheduler_ != nullptr) {
    scheduler_->ensure_settled(*this);
  }
  return finished_;
}

double Flow::remaining() const {
  if (!finished_ && scheduler_ != nullptr) {
    scheduler_->ensure_settled(*this);
  }
  return remaining_;
}

double Flow::current_rate() const {
  if (!finished_ && scheduler_ != nullptr) {
    scheduler_->ensure_settled(*this);
  }
  return rate_;
}

void Flow::set_max_rate(double max_rate) {
  NM_CHECK(max_rate >= 0.0, "negative flow rate cap");
  if (suspended_) {
    // Applied on resume(); the flow stays paused in the meantime.
    saved_max_rate_ = max_rate;
    return;
  }
  max_rate_ = max_rate;
  if (scheduler_ != nullptr && !finished_) {
    if (auto* comp = scheduler_->component_of_flow(*this)) {
      scheduler_->mark_dirty(*comp);
    }
  }
}

void Flow::suspend() {
  if (suspended_ || finished_) {
    return;
  }
  saved_max_rate_ = max_rate_;
  suspended_ = true;
  max_rate_ = 0.0;
  if (scheduler_ != nullptr) {
    if (auto* comp = scheduler_->component_of_flow(*this)) {
      scheduler_->mark_dirty(*comp);
    }
  }
}

void Flow::resume() {
  if (!suspended_) {
    return;
  }
  suspended_ = false;
  max_rate_ = saved_max_rate_;
  if (scheduler_ != nullptr && !finished_) {
    if (auto* comp = scheduler_->component_of_flow(*this)) {
      scheduler_->mark_dirty(*comp);
    }
  }
}

// --- FluidScheduler: lifecycle and registry --------------------------------

FluidScheduler::~FluidScheduler() {
  if (pool_ != nullptr) {
    pool_->detach(*this);
  }
  for (auto* res : res_slots_) {
    if (res != nullptr) {
      // Fold the pending constant-rate window into the prefix while the
      // clock is still reachable; afterwards the resource reads flat.
      res->consumed_ = res->consumed();
      res->consume_rate_ = 0.0;
      res->scheduler_ = nullptr;
      res->slot_ = FluidResource::kNoSlot;
    }
  }
  for (auto& flow : flows_) {
    flow->scheduler_ = nullptr;
    flow->comp_ = kNone;
  }
}

void FluidScheduler::register_resource(FluidResource& res) {
  NM_CHECK(res.scheduler_ == nullptr || res.scheduler_ == this,
           "resource " << res.name_ << " belongs to another scheduler");
  if (res.slot_ != FluidResource::kNoSlot) {
    return;
  }
  res.scheduler_ = this;
  if (!free_res_slots_.empty()) {
    res.slot_ = free_res_slots_.back();
    free_res_slots_.pop_back();
    res_slots_[res.slot_] = &res;
  } else {
    res.slot_ = static_cast<std::uint32_t>(res_slots_.size());
    res_slots_.push_back(&res);
    slot_comp_.push_back(kNone);
  }
}

void FluidScheduler::unregister_resource(FluidResource& res) {
  const auto slot = res.slot_;
  res.consumed_ = res.consumed();  // fold before the clock becomes unreachable
  res.consume_rate_ = 0.0;
  if (slot == FluidResource::kNoSlot) {
    res.scheduler_ = nullptr;
    return;
  }
  if (auto* comp = component_of_slot(slot)) {
    auto& rs = comp->res_slots;
    const auto it = std::find(rs.begin(), rs.end(), slot);
    if (it != rs.end()) {
      *it = rs.back();
      rs.pop_back();
    }
  }
  slot_comp_[slot] = kNone;
  res_slots_[slot] = nullptr;
  free_res_slots_.push_back(slot);
  res.slot_ = FluidResource::kNoSlot;
  res.scheduler_ = nullptr;
}

std::size_t FluidScheduler::component_count() const { return live_comp_count_; }

// --- FluidScheduler: flow admission ----------------------------------------

FlowPtr FluidScheduler::start(FlowSpec spec) {
  NM_CHECK(spec.work >= 0.0, "negative flow work");
  NM_CHECK(!spec.shares.empty(), "a flow must cross at least one resource");
  for (const auto& share : spec.shares) {
    NM_CHECK(share.resource != nullptr, "null resource in flow");
    NM_CHECK(share.weight > 0.0, "non-positive weight on " << share.resource->name());
    register_resource(*share.resource);
  }
  // One allocation per flow: make_shared fuses the control block with the
  // (64-byte aligned) Flow. The local subclass just re-exports the private
  // constructor to make_shared; it adds no members.
  struct FlowMaker : Flow {
    FlowMaker(Simulation& sim, double work, std::vector<ResourceShare> shares, double max_rate,
              std::string name)
        : Flow(sim, work, std::move(shares), max_rate, std::move(name)) {}
  };
  FlowPtr flow = std::make_shared<FlowMaker>(*sim_, spec.work, std::move(spec.shares),
                                             spec.max_rate, spec.name.str());
  flow->scheduler_ = this;
  flow->last_update_ = sim_->now();
  flow->seq_ = next_flow_seq_++;
  if (spec.work <= kEpsilon) {
    flow->finished_ = true;
    flow->remaining_ = 0.0;
    flow->done_.set();
    return flow;
  }
  for (const auto& share : flow->shares_) {
    auto& list = share.resource->flows_;
    if (list.capacity() == 0) {
      // One allocation covers the usual list lengths (a host CPU's vCPU
      // flows, a NIC's transfers); growing from one entry would allocate at
      // 1, 2, 4 and 8 entries on every freshly built resource.
      list.reserve(8);
    }
    list.push_back(flow.get());
    share.resource->active_wsum_ += share.weight;
  }
  flow->global_index_ = static_cast<std::uint32_t>(flows_.size());
  flows_.push_back(flow);

  // Place the flow in the component connecting all its resources, merging
  // components it bridges.
  Component* target = nullptr;
  for (const auto& share : flow->shares_) {
    Component* c = component_of_slot(share.resource->slot_);
    if (c == nullptr || c == target) {
      continue;
    }
    if (target == nullptr) {
      target = c;
      continue;
    }
    if (c->flows.size() > target->flows.size()) {
      std::swap(target, c);
    }
    merge_into(*target, *c);
  }
  if (target == nullptr) {
    target = &make_component();
  }
  for (const auto& share : flow->shares_) {
    const auto slot = share.resource->slot_;
    if (slot_comp_[slot] == kNone) {
      slot_comp_[slot] = target->id;
      target->res_slots.push_back(slot);
    }
  }
  flow->comp_ = target->id;
  flow->comp_index_ = static_cast<std::uint32_t>(target->flows.size());
  target->flows.push_back(flow.get());
  mark_dirty(*target);
  return flow;
}

Task FlowRouter::run(FlowSpec spec) {
  auto flow = start(std::move(spec));
  if (!flow->finished()) {
    co_await flow->completion().wait();
  }
}

// --- FluidScheduler: components --------------------------------------------

FluidScheduler::Component& FluidScheduler::make_component() {
  std::uint32_t id;
  if (!free_comp_ids_.empty()) {
    id = free_comp_ids_.back();
    free_comp_ids_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(comps_.size());
    comps_.emplace_back();
  }
  comps_[id] = std::make_unique<Component>();
  comps_[id]->id = id;
  comps_[id]->last_solved = sim_->now();
  ++live_comp_count_;
  return *comps_[id];
}

void FluidScheduler::merge_into(Component& dst, Component& src) {
  // The two sides were last solved at different instants; bank progress to
  // `now` on both so the merged component has one uniform rate window.
  integrate_component(dst);
  integrate_component(src);
  // Both lists are sorted by admission seq; keep the merged list sorted so
  // solves sum floats in the same order the seed's global solver did.
  std::vector<Flow*> merged;
  merged.reserve(dst.flows.size() + src.flows.size());
  std::merge(dst.flows.begin(), dst.flows.end(), src.flows.begin(), src.flows.end(),
             std::back_inserter(merged),
             [](const Flow* a, const Flow* b) { return a->seq_ < b->seq_; });
  dst.flows = std::move(merged);
  for (std::size_t i = 0; i < dst.flows.size(); ++i) {
    dst.flows[i]->comp_ = dst.id;
    dst.flows[i]->comp_index_ = static_cast<std::uint32_t>(i);
  }
  for (const auto slot : src.res_slots) {
    slot_comp_[slot] = dst.id;
    dst.res_slots.push_back(slot);
  }
  if (src.dirty) {
    mark_dirty(dst);
  }
  cancel_timer(src);
  const auto id = src.id;
  comps_[id].reset();
  free_comp_ids_.push_back(id);
  --live_comp_count_;
}

void FluidScheduler::mark_dirty(Component& comp) {
  if (!comp.dirty) {
    comp.dirty = true;
    dirty_comps_.push_back(comp.id);
  }
  if (pool_ != nullptr) {
    // Pool mode: no zero-delay post — the kernel's settle hook fires the
    // pool at the end of the current instant, collecting marks from every
    // attached domain into one batch.
    pool_->notify_dirty(*this);
    return;
  }
  if (!settle_pending_) {
    // Re-solve before any simulated time passes: rates are continuous in
    // time, so deferring to the end of the current instant is exact and
    // batches all mutations made at this instant into one solve.
    settle_pending_ = true;
    sim_->post(Duration::zero(), [this] {
      settle_pending_ = false;
      settle_dirty();
    });
  }
}

void FluidScheduler::settle_dirty() {
  for (std::size_t i = 0; i < dirty_comps_.size(); ++i) {
    const auto id = dirty_comps_[i];
    auto* comp = id < comps_.size() ? comps_[id].get() : nullptr;
    if (comp != nullptr && comp->dirty) {
      solve_component(*comp);
    }
  }
  dirty_comps_.clear();
  maybe_rebuild();
}

void FluidScheduler::ensure_settled(const Flow& flow) {
  if (pool_ != nullptr && pool_->exchange_active()) {
    // Boundary flows couple domains: dirt anywhere in the pool can move
    // this flow's rate through the ghost-capacity exchange even while its
    // own component is clean (e.g. a foreign capacity change releases a
    // ghost, raising a local flow's fair share). A lone component solve
    // could also observe rates the exchange would still move. Run the
    // pool's full multi-round settle whenever anything is pending — it
    // solves every dirty component to the coupled fixed point.
    if (pool_->any_dirty()) {
      pool_->settle();
    }
    return;
  }
  if (auto* comp = component_of_flow(flow)) {
    if (comp->dirty) {
      solve_component(*comp);
    }
  }
}

// --- FluidScheduler: the incremental solve ---------------------------------

void FluidScheduler::integrate_component(Component& comp) {
  const TimePoint now = sim_->now();
  comp.last_solved = now;
  // Rates are unchanged, so each resource's aggregate consume_rate_ stays
  // valid; the prefix just advances to `now`, so re-stamp the window start
  // (otherwise readers would double-count the integrated span).
  for (const auto slot : comp.res_slots) {
    res_slots_[slot]->rate_since_ = now;
  }
  for (Flow* f : comp.flows) {
    const Duration elapsed = now - f->last_update_;
    if (elapsed.is_zero()) {
      continue;
    }
    if (f->rate_ > 0.0) {
      const double el = elapsed.to_seconds();
      f->remaining_ -= f->rate_ * el;
      // Utilization accounting: each crossed resource absorbed
      // rate * weight over the elapsed window.
      for (const auto& share : f->shares_) {
        share.resource->consumed_ += f->rate_ * share.weight * el;
      }
    }
    f->last_update_ = now;
  }
}

void FluidScheduler::solve_component(Component& comp) {
  compute_component(comp, serial_scratch_, serial_result_);
  commit_component(comp, serial_result_);
}

void FluidScheduler::compute_component(Component& comp, SolveScratch& scratch, SolveResult& out) {
  const TimePoint now = sim_->now();
  const auto nslots = res_slots_.size();
  if (scratch.res_residual.size() < nslots) {
    scratch.res_residual.resize(nslots);
    scratch.res_wsum.resize(nslots);
    scratch.res_unfrozen.resize(nslots);
  }
  // Pass 1 (fused): integrate progress at the rates valid since the last
  // solve, collect completions, compact the flow list, and gather the
  // finite caps of the survivors in one walk. The elapsed window is
  // hoisted: every member with a nonzero rate was last integrated at
  // comp.last_solved (the solve that assigned the rate, or
  // integrate_component on a merge/retire), and flows admitted since then
  // carry rate 0, so one uniform `rate * el` per flow is exact.
  // A flow is done when its residual work cannot be represented on the
  // nanosecond clock (less than half a tick at the current rate) — this
  // avoids endless zero-delay reschedules.
  out.finished.clear();
  out.next_completion_s = std::numeric_limits<double>::infinity();
  const double el = (now - comp.last_solved).to_seconds();
  comp.last_solved = now;
  auto& cf = comp.flows;
  if (scratch.f_frozen.size() < cf.size()) {
    scratch.f_frozen.resize(cf.size());
  }
  scratch.caps.clear();
  std::size_t out_idx = 0;  // stable compaction: completions fire in start order
  for (std::size_t i = 0; i < cf.size(); ++i) {
    Flow* f = cf[i];
    f->remaining_ -= f->rate_ * el;
    f->last_update_ = now;
    const double sub_tick = f->rate_ * 0.5e-9;
    if (f->remaining_ <= std::max(kEpsilon, sub_tick)) {
      // `flows_` is read-only during the compute phase (the swap-remove
      // happens in commit), so taking the strong ref here is safe even when
      // other components of this scheduler are computing concurrently.
      out.finished.push_back(flows_[f->global_index_]);
      finish_flow_local(*f);
      continue;
    }
    cf[out_idx] = f;
    f->comp_index_ = static_cast<std::uint32_t>(out_idx);
    const double cap = f->effective_cap();
    if (std::isfinite(cap)) {
      scratch.caps.emplace_back(cap, static_cast<std::uint32_t>(out_idx));
    }
    ++out_idx;
  }
  cf.resize(out_idx);
  std::fill_n(scratch.f_frozen.begin(), cf.size(), std::uint8_t{0});
  scratch.r_live.clear();
  for (const auto slot : comp.res_slots) {
    FluidResource* res = res_slots_[slot];
    const bool carries = !res->flows_.empty();
    if (!carries && res->consume_rate_ == 0.0 &&
        res->bound_level_ == -std::numeric_limits<double>::infinity()) {
      // Idle row (components keep their resources until an epoch rebuild):
      // no window to close, no stamp to clear, nothing to fill.
      continue;
    }
    // Close the constant-rate window with one fused multiply per resource:
    // rates are piecewise constant since the last solve, so the aggregate
    // consume_rate_ integrates the whole window exactly (flows admitted at
    // this instant carry rate 0 and contribute nothing).
    if (res->consume_rate_ != 0.0) {
      const Duration elapsed = now - res->rate_since_;
      if (!elapsed.is_zero()) {
        res->consumed_ += res->consume_rate_ * elapsed.to_seconds();
      }
    }
    res->consume_rate_ = 0.0;
    res->rate_since_ = now;
    // Re-stamped by water_fill in the round (if any) where the resource
    // binds; FluidNet offers read the post-solve value.
    res->bound_level_ = -std::numeric_limits<double>::infinity();
    if (!carries) {
      continue;
    }
    scratch.res_residual[slot] = res->capacity_;
    // Seeded from the incrementally maintained aggregates (start /
    // finish_flow_local), read after pass 1 so this solve's completions are
    // already reflected — pass 1 needs no per-share walk at all.
    scratch.res_wsum[slot] = res->active_wsum_;
    scratch.res_unfrozen[slot] = static_cast<std::uint32_t>(res->flows_.size());
    scratch.r_live.push_back(slot);
  }
  comp.dirty = false;
  if (cf.empty()) {
    return;
  }
  if (scratch.r_level.size() < scratch.r_live.size()) {
    scratch.r_level.resize(scratch.r_live.size());
  }
  // Pass 1 gathered the caps in admission order, so equal caps (e.g. every
  // vCPU flow at 1.0 core) are already in (cap, admission index) order.
  if (!std::is_sorted(scratch.caps.begin(), scratch.caps.end())) {
    std::sort(scratch.caps.begin(), scratch.caps.end());
  }

  out.next_completion_s = water_fill(comp, scratch);

  // Resource writeback (flow rates were written as their freeze batches
  // ran): the filling left each resource's residual behind, so its
  // aggregate consumption rate is capacity − residual — one deterministic
  // subtraction per resource, valid until the next solve (see
  // FluidResource::consumed()). Rows without flows keep the 0 set above.
  for (const auto slot : comp.res_slots) {
    FluidResource* res = res_slots_[slot];
    if (!res->flows_.empty()) {
      res->consume_rate_ = res->capacity_ - scratch.res_residual[slot];
    }
  }
}

double FluidScheduler::water_fill(Component& comp, SolveScratch& scratch) {
  // Water-level filling over the rows compute_component prepared: each
  // round takes the tightest constraint (a live resource's equal share or
  // the cap under the cursor), freezes the capped flows tied at it straight
  // off the sorted cap array and every unfrozen flow on a binding resource
  // through that resource's own flow list. Across a whole solve the cursor
  // passes each cap once and each flow is batched exactly once.
  auto& cf = comp.flows;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto& caps = scratch.caps;
  auto& live = scratch.r_live;
  auto& level = scratch.r_level;
  auto& frozen = scratch.f_frozen;
  std::size_t cursor = 0;
  double next = kInf;
  std::uint32_t left = static_cast<std::uint32_t>(cf.size());
  while (left > 0) {
    // Resource water level: the tightest equal-share among live resources,
    // compacting out resources whose flows all froze in earlier rounds.
    // Guard on the integer count, not wsum: subtractive updates of tiny
    // weights (1e-9 core-sec/byte) leave fp residue behind.
    double bound_r = kInf;
    std::size_t lw = 0;
    for (const std::uint32_t slot : live) {
      if (scratch.res_unfrozen[slot] == 0) {
        continue;
      }
      const double wsum = scratch.res_wsum[slot];
      const double lv = wsum > 0.0 ? std::max(0.0, scratch.res_residual[slot]) / wsum : kInf;
      bound_r = std::min(bound_r, lv);
      level[lw] = lv;
      live[lw++] = slot;
    }
    live.resize(lw);
    // Caps frozen by a binding resource in an earlier round are passed over.
    while (cursor < caps.size() && frozen[caps[cursor].second] != 0) {
      ++cursor;
    }
    const double cap_min = cursor < caps.size() ? caps[cursor].first : kInf;
    NM_CHECK(std::isfinite(std::min(bound_r, cap_min)),
             "unbounded fluid rate (flow with no finite constraint) in "
                 << describe_component(comp));

    const double bound = std::min(bound_r, cap_min);
    if (cursor == caps.size() && live.size() == 1 && scratch.res_unfrozen[live.front()] == left) {
      // Fast round: a single live resource, no unfrozen capped flows, and
      // as many unfrozen shares on it as unfrozen flows. A live flow keeps
      // every resource it crosses live, so each unfrozen flow has exactly
      // one share, on this resource — the whole remainder freezes at
      // `bound` in one admission-order sweep over the dense arrays, no
      // batch needed. The residual subtractions run in the same per-flow
      // sequence as the general path, so the committed consume_rate_ is
      // bit-identical. A flow crossing the resource twice must take the
      // general path, which subtracts once per share.
      const auto slot = live.front();
      res_slots_[slot]->bound_level_ = bound;
      const auto nf = static_cast<std::uint32_t>(cf.size());
      double bound_min_remaining = kInf;
      double residual = scratch.res_residual[slot];
      for (std::uint32_t i = 0; i < nf; ++i) {
        if (frozen[i] != 0) {
          continue;
        }
        Flow* f = cf[i];
        const double rate = std::min(bound, f->effective_cap());
        f->rate_ = rate;
        residual -= rate * f->w0_;
        if (rate == bound) {
          bound_min_remaining = std::min(bound_min_remaining, f->remaining_);
        } else if (rate > 0.0) {
          next = std::min(next, f->remaining_ / rate);
        }
      }
      scratch.res_residual[slot] = residual;
      scratch.res_unfrozen[slot] = 0;
      if (bound > 0.0 && std::isfinite(bound_min_remaining)) {
        next = std::min(next, bound_min_remaining / bound);
      }
      break;  // every remaining flow froze this round
    }
    auto& batch = scratch.freeze_batch;
    batch.clear();
    const double tie = bound * (1.0 + 1e-12);
    // Tied caps (the tiny-flow fast path) come straight off the cursor:
    // one step per capped flow across the whole solve.
    for (; cursor < caps.size(); ++cursor) {
      const auto [cap, idx] = caps[cursor];
      if (frozen[idx] == 0) {
        if (cap > tie) {
          break;
        }
        frozen[idx] = 1;
        batch.push_back(idx);
      }
    }
    // Resources whose equal-share sits at the level freeze every unfrozen
    // flow they carry. A cap and a resource can tie within the same round
    // (the tolerance band); both freeze in this one round, so the
    // bound_level_ stamp the FluidNet exchange reads for its capacity offers
    // is the level of the round the resource bound in.
    for (std::size_t k = 0; k < live.size(); ++k) {
      const auto slot = live[k];
      if (scratch.res_wsum[slot] <= 0.0 || level[k] > tie) {
        continue;
      }
      // The max-min level this resource saturated at; stable until the
      // next solve, so FluidNet's exchange can read it after compute.
      FluidResource* res = res_slots_[slot];
      res->bound_level_ = bound;
      for (Flow* f : res->flows_) {
        const std::uint32_t idx = f->comp_index_;
        if (frozen[idx] == 0) {
          frozen[idx] = 1;
          batch.push_back(idx);
        }
      }
    }
    NM_CHECK(!batch.empty(),
             "progressive filling made no progress in " << describe_component(comp));

    // Freeze the batch in admission order so the subtractive float updates
    // run in one deterministic order, however the batch was assembled.
    // (Pure cap rounds arrive in cap order; a lone binding resource's list
    // is already admission-ordered.)
    if (!std::is_sorted(batch.begin(), batch.end())) {
      std::sort(batch.begin(), batch.end());
    }
    // Flows frozen exactly at `bound` share one division: min(remaining)
    // over the group, divided once. Monotone, so bit-identical to dividing
    // each and taking the min.
    double bound_min_remaining = kInf;
    for (const std::uint32_t idx : batch) {
      Flow* f = cf[idx];
      const double rate = std::min(bound, f->effective_cap());
      f->rate_ = rate;
      for (const auto& share : f->shares_) {
        const auto slot = share.resource->slot_;
        scratch.res_residual[slot] -= rate * share.weight;
        scratch.res_wsum[slot] -= share.weight;
        NM_CHECK(scratch.res_unfrozen[slot] > 0, "fluid unfrozen-count underflow");
        --scratch.res_unfrozen[slot];
      }
      if (rate == bound) {
        bound_min_remaining = std::min(bound_min_remaining, f->remaining_);
      } else if (rate > 0.0) {
        next = std::min(next, f->remaining_ / rate);
      }
    }
    if (bound > 0.0 && std::isfinite(bound_min_remaining)) {
      next = std::min(next, bound_min_remaining / bound);
    }
    left -= static_cast<std::uint32_t>(batch.size());
  }
  return next;
}

std::string FluidScheduler::describe_component(const Component& comp) const {
  std::ostringstream os;
  os.precision(17);
  os << "component " << comp.id << " (" << comp.flows.size() << " flows, "
     << comp.res_slots.size() << " resources)";
  for (const auto slot : comp.res_slots) {
    const FluidResource* res = res_slots_[slot];
    os << "\n  resource[" << slot << "] " << res->name_ << ": capacity=" << res->capacity_
       << " bound_level=" << res->bound_level_ << " active_flows=" << res->flows_.size();
  }
  constexpr std::size_t kMaxFlows = 64;
  const std::size_t shown = std::min(comp.flows.size(), kMaxFlows);
  for (std::size_t i = 0; i < shown; ++i) {
    const Flow* f = comp.flows[i];
    os << "\n  flow seq=" << f->seq_;
    if (!f->name_.empty()) {
      os << " '" << f->name_ << "'";
    }
    os << ": remaining=" << f->remaining_ << " rate=" << f->rate_
       << " cap=" << f->effective_cap();
    if (f->ghost_) {
      os << " ghost";
    }
    if (f->suspended_) {
      os << " suspended";
    }
    os << " demands";
    for (const auto& share : f->shares_) {
      os << " " << share.resource->name_ << "*" << share.weight;
    }
  }
  if (shown < comp.flows.size()) {
    os << "\n  ... (" << (comp.flows.size() - shown) << " more flows)";
  }
  return os.str();
}

void FluidScheduler::commit_component(Component& comp, SolveResult& out) {
  for (const auto& flow : out.finished) {
    retire_flow_global(*flow);
  }
  if (!comp.flows.empty()) {
    arm_timer(comp, out.next_completion_s);
  } else {
    // Dissolve: a later flow on these resources starts a fresh component.
    for (const auto slot : comp.res_slots) {
      slot_comp_[slot] = kNone;
    }
    cancel_timer(comp);
    const auto id = comp.id;
    comps_[id].reset();
    free_comp_ids_.push_back(id);
    --live_comp_count_;
  }

  // Fire completions after bookkeeping so waiters observe a settled state.
  for (auto& flow : out.finished) {
    flow->done_.set();
  }
  out.finished.clear();
}

void FluidScheduler::finish_flow_local(Flow& flow) {
  flow.remaining_ = 0.0;
  flow.finished_ = true;
  flow.comp_ = kNone;
  flow.comp_index_ = Flow::kNoIndex;
  for (const auto& share : flow.shares_) {
    auto& list = share.resource->flows_;
    const auto it = std::find(list.begin(), list.end(), &flow);
    NM_CHECK(it != list.end(), "flow missing from the flow list of " << share.resource->name());
    list.erase(it);
    share.resource->active_wsum_ -= share.weight;
  }
}

void FluidScheduler::retire_flow_global(Flow& flow) {
  const auto idx = flow.global_index_;
  if (idx + 1 != flows_.size()) {
    flows_[idx] = std::move(flows_.back());
    flows_[idx]->global_index_ = idx;
  }
  flows_.pop_back();
  flow.global_index_ = Flow::kNoIndex;
  ++retired_since_rebuild_;
}

void FluidScheduler::arm_timer(Component& comp, double next_completion_s) {
  if (!std::isfinite(next_completion_s)) {
    cancel_timer(comp);  // nothing is progressing; a future mutation will re-arm
    return;
  }
  // Round up to the next nanosecond tick so the completing solve runs
  // at-or-after the true completion instant (never an instant before, which
  // would strand sub-tick work). Completions beyond the int64 nanosecond
  // horizon are clamped: the solve at the clamped instant simply re-arms.
  constexpr double kMaxDelayNs = 4.0e18;  // ~127 sim-years, safely below int64 max
  const double ns = std::ceil(std::max(next_completion_s, 0.0) * 1e9);
  const auto delay_ns = static_cast<std::int64_t>(std::min(ns, kMaxDelayNs));
  const Duration delay = Duration::nanos(std::max<std::int64_t>(delay_ns, 1));
  // Re-keying draws the sequence number a fresh post would draw here, so
  // the timer runs exactly where a replacement post would have.
  if (!sim_->reschedule(comp.timer, delay)) {
    comp.timer = sim_->post_cancelable(delay, [this, id = comp.id] { on_timer(id); });
  }
}

void FluidScheduler::cancel_timer(Component& comp) {
  sim_->cancel(comp.timer);
  comp.timer = {};
}

void FluidScheduler::on_timer(std::uint32_t id) {
  auto* comp = id < comps_.size() ? comps_[id].get() : nullptr;
  // Every path that retires a component or supersedes its timer cancels or
  // re-keys the entry, so the entry firing now is the component's own.
  NM_CHECK(comp != nullptr && comp->timer && !sim_->pending(comp->timer),
           "completion timer fired for a retired or re-armed component " << id);
  comp->timer = {};
  if (pool_ != nullptr) {
    // Pool mode: completion timers mark instead of solving inline, so every
    // timer firing at this instant — across all attached domains — lands in
    // one settle batch (the pool also drives maybe_rebuild afterwards).
    mark_dirty(*comp);
    return;
  }
  solve_component(*comp);
  maybe_rebuild();
}

// --- FluidScheduler: epoch rebuild -----------------------------------------

void FluidScheduler::maybe_rebuild() {
  // Components only over-approximate connectivity (flow retirement never
  // splits them eagerly). Once enough flows have retired, recompute the
  // partition from scratch so independent subgraphs separate again.
  if (retired_since_rebuild_ <= 64 || retired_since_rebuild_ <= flows_.size()) {
    return;
  }
  if (settle_pending_ || !dirty_comps_.empty()) {
    return;  // solve the pending mutations first; rebuild on a later event
  }
  rebuild_components();
}

void FluidScheduler::rebuild_components() {
  // Rates are unaffected by partitioning, so integrate everything to `now`
  // once and carry rates over; only timers need re-arming.
  for (auto& comp : comps_) {
    if (comp != nullptr) {
      integrate_component(*comp);
      cancel_timer(*comp);
    }
  }
  comps_.clear();
  free_comp_ids_.clear();
  live_comp_count_ = 0;
  std::fill(slot_comp_.begin(), slot_comp_.end(), kNone);
  dirty_comps_.clear();

  // Union-find over resource slots, driven by the live flows in admission
  // order (the global list is swap-removed, so restore canonical order).
  std::vector<Flow*> order;
  order.reserve(flows_.size());
  for (const auto& flow : flows_) {
    order.push_back(flow.get());
  }
  std::sort(order.begin(), order.end(), [](const Flow* a, const Flow* b) {
    return a->seq_ < b->seq_;
  });
  std::vector<std::uint32_t> parent(res_slots_.size());
  for (std::uint32_t i = 0; i < parent.size(); ++i) {
    parent[i] = i;
  }
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (Flow* flow : order) {
    const auto first = find(flow->shares_.front().resource->slot_);
    for (const auto& share : flow->shares_) {
      parent[find(share.resource->slot_)] = first;
    }
  }

  std::vector<std::uint32_t> root_comp(res_slots_.size(), kNone);
  for (Flow* flow : order) {
    const auto root = find(flow->shares_.front().resource->slot_);
    if (root_comp[root] == kNone) {
      root_comp[root] = make_component().id;
    }
    auto& comp = *comps_[root_comp[root]];
    flow->comp_ = comp.id;
    flow->comp_index_ = static_cast<std::uint32_t>(comp.flows.size());
    comp.flows.push_back(flow);
    for (const auto& share : flow->shares_) {
      const auto slot = share.resource->slot_;
      if (slot_comp_[slot] == kNone) {
        slot_comp_[slot] = comp.id;
        comp.res_slots.push_back(slot);
      }
    }
  }

  for (auto& comp : comps_) {
    if (comp == nullptr) {
      continue;
    }
    double next = std::numeric_limits<double>::infinity();
    for (const Flow* f : comp->flows) {
      if (f->rate_ > 0.0) {
        next = std::min(next, f->remaining_ / f->rate_);
      }
    }
    arm_timer(*comp, next);
    comp->dirty = false;
  }
  retired_since_rebuild_ = 0;
}

}  // namespace nm::sim
