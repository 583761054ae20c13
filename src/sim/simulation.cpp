#include "sim/simulation.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace nm::sim {

struct TaskRef::State {
  explicit State(Simulation& sim) : done_event(sim) {}
  Event done_event;
  bool finished = false;
};

bool TaskRef::done() const {
  NM_CHECK(state_ != nullptr, "TaskRef is empty");
  return state_->finished;
}

Event& TaskRef::completion() const {
  NM_CHECK(state_ != nullptr, "TaskRef is empty");
  return state_->done_event;
}

struct Simulation::Detached {
  Task::Handle handle;
  std::shared_ptr<TaskRef::State> state;
  std::string name;
};

namespace {
// Initial slab for the queue and callback pool. Sized so short-lived
// micro-episodes (a handful of flows plus their settle timers) never pay
// the cold geometric growths; steady-state behavior is unchanged because
// slots are free-listed and the vectors never shrink.
constexpr std::size_t kInitialSlab = 128;
}  // namespace

Simulation::Simulation(std::uint64_t seed) : seed_(seed) {
  queue_.reserve(kInitialSlab);
  callback_pool_.reserve(kInitialSlab);
  free_callback_slots_.reserve(kInitialSlab);
}

Simulation::~Simulation() {
  // Destroy any still-suspended detached tasks. Their frames may hold
  // awaiter state pointing at sim objects, so drop them before members die.
  for (auto& [id, d] : detached_) {
    if (d->handle) {
      d->handle.destroy();
    }
  }
  detached_.clear();
  drain_destroy_list();
}

void Simulation::enqueue(TimePoint at, std::coroutine_handle<> h, EventCallback fn) {
  NM_CHECK(at >= now_, "cannot schedule into the past");
  std::uint32_t slot = kNoCallback;
  if (fn) {
    if (!free_callback_slots_.empty()) {
      slot = free_callback_slots_.back();
      free_callback_slots_.pop_back();
      callback_pool_[slot] = std::move(fn);
    } else {
      slot = static_cast<std::uint32_t>(callback_pool_.size());
      callback_pool_.push_back(std::move(fn));
    }
  }
  queue_.push_back(QueueEntry{at, next_seq_++, h, slot});
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
}

Simulation::QueueEntry Simulation::pop_next() {
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  QueueEntry entry = std::move(queue_.back());
  queue_.pop_back();
  return entry;
}

void Simulation::post(Duration delay, EventCallback fn) {
  NM_CHECK(!delay.is_negative(), "negative delay");
  enqueue(now_ + delay, nullptr, std::move(fn));
}

void Simulation::post_at(TimePoint at, EventCallback fn) {
  NM_CHECK(at >= now_, "post_at instant is in the past");
  enqueue(at, nullptr, std::move(fn));
}

void Simulation::post_resume(Duration delay, std::coroutine_handle<> h) {
  NM_CHECK(!delay.is_negative(), "negative delay");
  NM_CHECK(h != nullptr, "null coroutine handle");
  enqueue(now_ + delay, h, {});
}

TaskRef Simulation::spawn(Task task, std::string name) {
  const std::uint64_t id = next_task_id_++;
  auto detached = std::make_unique<Detached>();
  detached->handle = task.release();
  detached->state = std::make_shared<TaskRef::State>(*this);
  detached->name = std::move(name);
  NM_CHECK(detached->handle != nullptr, "spawning an empty task");

  auto& promise = detached->handle.promise();
  promise.detached_owner = this;
  promise.detach_id = id;

  TaskRef ref{detached->state};
  enqueue(now_, detached->handle, {});
  detached_.emplace(id, std::move(detached));
  ++live_tasks_;
  return ref;
}

void Simulation::on_detached_done(std::uint64_t id, std::exception_ptr exception) {
  auto it = detached_.find(id);
  NM_CHECK(it != detached_.end(), "unknown detached task " << id);
  auto& d = *it->second;
  d.state->finished = true;
  d.state->done_event.set();
  if (exception && !pending_exception_) {
    pending_exception_ = exception;
  }
  destroy_list_.push_back(d.handle);
  d.handle = nullptr;
  detached_.erase(it);
  NM_CHECK(live_tasks_ > 0, "task accounting underflow");
  --live_tasks_;
}

void Simulation::drain_destroy_list() {
  for (auto h : destroy_list_) {
    h.destroy();
  }
  destroy_list_.clear();
}

std::uint64_t Simulation::add_settle_hook(std::function<void()> hook) {
  NM_CHECK(hook != nullptr, "null settle hook");
  const std::uint64_t id = next_settle_hook_id_++;
  settle_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Simulation::remove_settle_hook(std::uint64_t id) {
  for (auto it = settle_hooks_.begin(); it != settle_hooks_.end(); ++it) {
    if (it->first == id) {
      settle_hooks_.erase(it);
      return;
    }
  }
  NM_CHECK(false, "unknown settle hook " << id);
}

void Simulation::maybe_settle() {
  if (!settle_requested_) {
    return;
  }
  if (!queue_.empty() && queue_.front().at <= now_) {
    return;  // the current instant is still playing out; defer
  }
  settle_requested_ = false;
  for (auto& [id, hook] : settle_hooks_) {
    hook();
  }
}

void Simulation::dispatch_one() {
  const QueueEntry entry = pop_next();
  NM_CHECK(entry.at >= now_, "event queue went backwards");
  now_ = entry.at;
  if (entry.handle) {
    entry.handle.resume();
  } else {
    // Move the callback out and recycle its slot before invoking: the
    // callback may itself post (re-entering the pool).
    EventCallback cb = std::move(callback_pool_[entry.slot]);
    free_callback_slots_.push_back(entry.slot);
    cb();
  }
  drain_destroy_list();
  if (pending_exception_) {
    auto e = std::exchange(pending_exception_, nullptr);
    std::rethrow_exception(e);
  }
}

bool Simulation::step() {
  // Settle hooks may arm timers (so the queue can refill) or complete
  // flows at `now_`, so they must run before the empty check.
  maybe_settle();
  if (queue_.empty()) {
    return false;
  }
  dispatch_one();
  return true;
}

TimePoint Simulation::run() {
  while (step()) {
  }
  return now_;
}

TimePoint Simulation::run_until(TimePoint deadline) {
  while (true) {
    // A pending settle may arm timers at or before `deadline`, so it must
    // run before deciding whether anything is left to execute.
    maybe_settle();
    if (queue_.empty() || queue_.front().at > deadline) {
      break;
    }
    dispatch_one();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return now_;
}

std::coroutine_handle<> Task::FinalAwaiter::await_suspend(Task::Handle h) noexcept {
  auto& promise = h.promise();
  if (promise.detached_owner != nullptr) {
    promise.detached_owner->on_detached_done(promise.detach_id, promise.exception);
    return std::noop_coroutine();
  }
  if (promise.continuation) {
    return promise.continuation;
  }
  return std::noop_coroutine();
}

}  // namespace nm::sim
