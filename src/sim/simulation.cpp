#include "sim/simulation.h"

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
// Initial slab for the heap, the lane and the callback pool. Sized so
// short-lived micro-episodes (a handful of flows plus their settle timers)
// never pay the cold geometric growths; steady-state behavior is unchanged
// because slots are free-listed and the vectors never shrink.
constexpr std::size_t kInitialSlab = 128;
}  // namespace

Simulation::Simulation(std::uint64_t seed) : seed_(seed) {
  queue_.reserve(kInitialSlab);
  lane_.resize(kInitialSlab);
  callback_pool_.reserve(kInitialSlab);
  slots_.reserve(kInitialSlab);
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

std::uint32_t Simulation::store_callback(EventCallback fn) {
  if (!fn) {
    return kNoCallback;
  }
  if (!free_callback_slots_.empty()) {
    const std::uint32_t slot = free_callback_slots_.back();
    free_callback_slots_.pop_back();
    callback_pool_[slot] = std::move(fn);
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(callback_pool_.size());
  callback_pool_.push_back(std::move(fn));
  slots_.emplace_back();
  return slot;
}

void Simulation::release_slot(std::uint32_t slot) {
  ++slots_[slot].gen;  // every outstanding ticket for the slot goes stale
  free_callback_slots_.push_back(slot);
}

void Simulation::enqueue(TimePoint at, std::coroutine_handle<> h, EventCallback fn) {
  NM_CHECK(at >= now_, "cannot schedule into the past");
  const QueueEntry entry{at, next_seq_++, h, store_callback(std::move(fn)), false};
  if (at == now_) {
    lane_push(entry);
  } else {
    heap_push(entry);
  }
}

void Simulation::lane_push(const QueueEntry& entry) {
  if (lane_size_ == lane_.size()) {
    // Full: unroll the ring into one twice the size.
    std::vector<QueueEntry> grown(2 * lane_.size());
    for (std::size_t i = 0; i < lane_size_; ++i) {
      grown[i] = lane_[(lane_head_ + i) & (lane_.size() - 1)];
    }
    lane_ = std::move(grown);
    lane_head_ = 0;
  }
  lane_[(lane_head_ + lane_size_) & (lane_.size() - 1)] = entry;
  ++lane_size_;
}

void Simulation::heap_push(const QueueEntry& entry) {
  queue_.push_back(entry);
  heap_sift_up(queue_.size() - 1, entry);
}

void Simulation::heap_sift_up(std::size_t hole, const QueueEntry& entry) {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!(entry < queue_[parent])) {
      break;
    }
    heap_place(hole, queue_[parent]);
    hole = parent;
  }
  heap_place(hole, entry);
}

void Simulation::heap_fix(std::size_t i, const QueueEntry& entry) {
  if (i > 0 && entry < queue_[(i - 1) / 2]) {
    heap_sift_up(i, entry);
    return;
  }
  const std::size_t n = queue_.size();
  std::size_t hole = i;
  while (true) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && queue_[child + 1] < queue_[child]) {
      ++child;
    }
    if (!(queue_[child] < entry)) {
      break;
    }
    heap_place(hole, queue_[child]);
    hole = child;
  }
  heap_place(hole, entry);
}

Simulation::QueueEntry Simulation::heap_pop() {
  const QueueEntry top = queue_.front();
  const QueueEntry last = queue_.back();
  queue_.pop_back();
  const std::size_t n = queue_.size();
  if (n == 0) {
    return top;
  }
  // Bottom-up (Floyd): walk the hole down the smaller-child path to a leaf,
  // then sift the displaced last entry up from there. The last entry is
  // usually among the latest, so this saves the per-level comparison with
  // it that a plain sift-down makes.
  std::size_t hole = 0;
  while (true) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && queue_[child + 1] < queue_[child]) {
      ++child;
    }
    heap_place(hole, queue_[child]);
    hole = child;
  }
  heap_sift_up(hole, last);
  return top;
}

Simulation::QueueEntry Simulation::pop_next() {
  if (lane_size_ != 0 && (queue_.empty() || lane_[lane_head_] < queue_.front())) {
    const QueueEntry entry = lane_[lane_head_];
    lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
    --lane_size_;
    return entry;
  }
  return heap_pop();
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

void Simulation::resume_all(std::vector<std::coroutine_handle<>>& waiters) {
  for (auto h : waiters) {
    post_resume(Duration::zero(), h);
  }
  waiters.clear();
}

Simulation::Ticket Simulation::post_cancelable(Duration delay, EventCallback fn) {
  NM_CHECK(delay > Duration::zero(), "a cancelable post needs a positive delay");
  NM_CHECK(static_cast<bool>(fn), "null callback");
  const std::uint32_t slot = store_callback(std::move(fn));
  heap_push(QueueEntry{now_ + delay, next_seq_++, nullptr, slot, true});
  return Ticket{slot, slots_[slot].gen};
}

bool Simulation::reschedule(Ticket ticket, Duration delay) {
  NM_CHECK(delay > Duration::zero(), "a cancelable entry needs a positive delay");
  if (!pending(ticket)) {
    return false;
  }
  const std::size_t i = slots_[ticket.slot].pos;
  QueueEntry entry = queue_[i];
  entry.at = now_ + delay;
  entry.seq = next_seq_++;
  heap_fix(i, entry);
  return true;
}

bool Simulation::cancel(Ticket ticket) {
  if (!pending(ticket)) {
    return false;
  }
  const std::size_t i = slots_[ticket.slot].pos;
  const QueueEntry last = queue_.back();
  queue_.pop_back();
  if (i < queue_.size()) {
    heap_fix(i, last);
  }
  // Move the callback out and release the slot first: its captures are
  // destroyed on return, and their destructors may post.
  const EventCallback dropped = std::move(callback_pool_[ticket.slot]);
  release_slot(ticket.slot);
  return true;
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
  if (!queue_empty() && next_at() <= now_) {
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
    release_slot(entry.slot);
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
  if (queue_empty()) {
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
    if (queue_empty() || next_at() > deadline) {
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
