#include "sim/solve_pool.h"

#include <algorithm>

#include "util/error.h"

namespace nm::sim {

SolvePool::SolvePool(Simulation& sim) : sim_(&sim) {
  hook_id_ = sim.add_settle_hook([this] { settle(); });
}

SolvePool::~SolvePool() {
  for (auto* sched : attached_) {
    if (sched != nullptr) {
      detach(*sched);
    }
  }
  sim_->remove_settle_hook(hook_id_);
}

void SolvePool::attach(FluidScheduler& scheduler) {
  NM_CHECK(scheduler.pool_ == nullptr, "scheduler already attached to a pool");
  NM_CHECK(scheduler.sim_ == sim_, "scheduler runs on a different simulation");
  NM_CHECK(!scheduler.settle_pending_ && scheduler.dirty_comps_.empty(),
           "attach the pool before the scheduler has pending settles");
  scheduler.pool_ = this;
  scheduler.pool_dirty_ = false;
  scheduler.pool_domain_ = static_cast<std::uint32_t>(attached_.size());
  attached_.push_back(&scheduler);
}

void SolvePool::detach(FluidScheduler& scheduler) {
  NM_CHECK(scheduler.pool_ == this, "scheduler not attached to this pool");
  attached_[scheduler.pool_domain_] = nullptr;
  scheduler.pool_ = nullptr;
  scheduler.pool_dirty_ = false;
  // Hand any still-unsettled components back to the legacy zero-delay
  // settle so nothing is stranded mid-instant.
  if (!scheduler.dirty_comps_.empty() && !scheduler.settle_pending_) {
    scheduler.settle_pending_ = true;
    sim_->post(Duration::zero(), [sched = &scheduler] {
      sched->settle_pending_ = false;
      sched->settle_dirty();
    });
  }
}

bool SolvePool::any_dirty() const {
  for (const auto* sched : attached_) {
    if (sched != nullptr && sched->pool_dirty_) {
      return true;
    }
  }
  return false;
}

void SolvePool::notify_dirty(FluidScheduler& scheduler) {
  scheduler.pool_dirty_ = true;
  sim_->request_settle();
}

void SolvePool::settle() {
  // Phase 0: collect the batch in canonical order. Schedulers are walked
  // in attach (= domain id) order and their dirty lists re-checked against
  // the authoritative per-component flag (ensure_settled may have already
  // solved some on its own; merges retire components). Component ids
  // are unique within a dirty list (the flag dedups marks) and ascending
  // within it is not guaranteed, so sort below.
  recycle_tasks();  // a batch left behind by a compute that threw
  for (std::uint32_t domain = 0; domain < attached_.size(); ++domain) {
    FluidScheduler* sched = attached_[domain];
    if (sched == nullptr || !sched->pool_dirty_) {
      continue;
    }
    sched->pool_dirty_ = false;
    for (const auto id : sched->dirty_comps_) {
      auto* comp = id < sched->comps_.size() ? sched->comps_[id].get() : nullptr;
      if (comp != nullptr && comp->dirty) {
        add_task(sched, comp, domain);
      }
    }
    sched->dirty_comps_.clear();
  }
  if (tasks_.empty()) {
    return;
  }
  const auto canonical = [](const TaskEntry& a, const TaskEntry& b) {
    return a.domain != b.domain ? a.domain < b.domain : a.comp->id < b.comp->id;
  };
  // Dirty lists are appended in mark order, which is ascending in the
  // common single-instant case — checking beats unconditionally sorting.
  if (!std::is_sorted(tasks_.begin(), tasks_.end(), canonical)) {
    std::sort(tasks_.begin(), tasks_.end(), canonical);
  }

  ++settles_;
  solved_comps_ += tasks_.size();
  max_batch_ = std::max(max_batch_, tasks_.size());

  // Phase 1: compute. Round 0 solves every collected component; when a
  // SettleExchange with live boundary flows is registered, further rounds
  // alternate an exchange (publish boundary rates, refresh ghost caps)
  // with a recompute of whatever the exchange moved, until the
  // coupled rates reach a fixed point. Nothing is committed until every
  // round is done, so the event queue sees no posts mid-iteration.
  pending_.resize(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    pending_[i] = i;
  }
  if (!exchange_active()) {
    compute_pending();
  } else {
    std::size_t rounds = 0;
    while (true) {
      compute_pending();
      ++rounds;
      // Bank completions: a later recompute of the same component clears
      // result.finished, so move them aside in canonical round order.
      for (const auto i : pending_) {
        auto& task = tasks_[i];
        for (auto& flow : task.result.finished) {
          task.finished_acc.push_back(std::move(flow));
        }
        task.result.finished.clear();
      }
      // The cap breaks *after* a full compute: every component the last
      // exchange re-dirtied has been re-solved (its dirty flag cleared),
      // so the commit below strands nothing.
      if (rounds >= kMaxExchangeRounds) {
        ++unconverged_exchanges_;
        break;
      }
      dirtied_.clear();
      exchange_->exchange(dirtied_);
      if (dirtied_.empty()) {
        break;  // fixed point
      }
      // Map the re-dirtied components onto tasks, appending entries for
      // components first touched by the exchange (e.g. a ghost's foreign
      // component that was clean when the batch was collected).
      pending_.clear();
      for (const auto& [sched, comp_id] : dirtied_) {
        std::size_t idx = tasks_.size();
        for (std::size_t t = 0; t < tasks_.size(); ++t) {
          if (tasks_[t].sched == sched && tasks_[t].comp->id == comp_id) {
            idx = t;
            break;
          }
        }
        if (idx == tasks_.size()) {
          auto* comp = comp_id < sched->comps_.size() ? sched->comps_[comp_id].get() : nullptr;
          NM_CHECK(comp != nullptr, "exchange dirtied a retired component");
          add_task(sched, comp, sched->pool_domain_);
        }
        if (std::find(pending_.begin(), pending_.end(), idx) == pending_.end()) {
          pending_.push_back(idx);
        }
      }
      const auto pending_canonical = [this](std::size_t a, std::size_t b) {
        const TaskEntry& ta = tasks_[a];
        const TaskEntry& tb = tasks_[b];
        return ta.domain != tb.domain ? ta.domain < tb.domain : ta.comp->id < tb.comp->id;
      };
      if (!std::is_sorted(pending_.begin(), pending_.end(), pending_canonical)) {
        std::sort(pending_.begin(), pending_.end(), pending_canonical);
      }
      solved_comps_ += pending_.size();
    }
    exchange_rounds_ += rounds;
    last_settle_rounds_ = rounds;
    max_settle_rounds_ = std::max(max_settle_rounds_, rounds);
    // Exchange-appended tasks arrived out of canonical order; restore it
    // for the commit, then hand each task its banked completions.
    if (!std::is_sorted(tasks_.begin(), tasks_.end(), canonical)) {
      std::sort(tasks_.begin(), tasks_.end(), canonical);
    }
    for (auto& task : tasks_) {
      task.result.finished.swap(task.finished_acc);  // result.finished was banked empty
    }
  }

  // Phase 2: commit in canonical order. This is the only phase that posts
  // timers or fires events, so the sequence numbers drawn from the shared
  // queue depend only on the batch, not on the order its marks arrived in
  // (nor, in exchange mode, on how many rounds it took to converge).
  for (auto& task : tasks_) {
    task.sched->commit_component(*task.comp, task.result);
  }
  // Per-scheduler epilogue (epoch rebuilds), still in domain order.
  FluidScheduler* last = nullptr;
  for (auto& task : tasks_) {
    if (task.sched != last) {
      last = task.sched;
      task.sched->maybe_rebuild();
    }
  }
  recycle_tasks();
}

void SolvePool::recycle_tasks() {
  for (auto& task : tasks_) {
    task.result.finished.clear();
    task.finished_acc.clear();
    spare_tasks_.push_back(std::move(task));
  }
  tasks_.clear();
}

void SolvePool::add_task(FluidScheduler* sched, FluidScheduler::Component* comp,
                         std::uint32_t domain) {
  if (spare_tasks_.empty()) {
    tasks_.emplace_back();
  } else {
    tasks_.push_back(std::move(spare_tasks_.back()));
    spare_tasks_.pop_back();
  }
  TaskEntry& entry = tasks_.back();
  entry.sched = sched;
  entry.comp = comp;
  entry.domain = domain;
}

void SolvePool::compute_pending() {
  for (const auto idx : pending_) {
    TaskEntry& task = tasks_[idx];
    task.sched->compute_component(*task.comp, scratch_, task.result);
  }
}

}  // namespace nm::sim
