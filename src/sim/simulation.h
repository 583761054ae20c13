// The discrete-event simulation kernel. Single-threaded, deterministic:
// pending resumptions are ordered by (simulated time, insertion sequence),
// so a given program always executes identically for a given seed.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/inline_callback.h"
#include "sim/task.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/units.h"

namespace nm::sim {

class Event;

/// A joinable reference to a detached (spawned) task.
class TaskRef {
 public:
  TaskRef() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool done() const;
  /// Awaitable: suspends until the task finishes. Safe to call after
  /// completion (returns immediately).
  [[nodiscard]] Event& completion() const;

 private:
  friend class Simulation;
  struct State;
  explicit TaskRef(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  /// Derives a deterministic, consumer-private random stream.
  [[nodiscard]] Rng make_rng(std::string_view stream_name) const {
    return Rng::stream(seed_, stream_name);
  }

  /// Schedules a plain callback after `delay`. The callback is stored
  /// inline in the queue entry (no heap allocation) and may be move-only,
  /// so it can own resources that must be released even if the simulation
  /// is destroyed before the entry fires.
  void post(Duration delay, EventCallback fn);
  /// Schedules a plain callback at the absolute instant `at` (must not be
  /// in the past). Open-loop workload generators use this to pin a
  /// pre-drawn arrival sequence to absolute instants, so arrival times
  /// never depend on when the generator itself wakes.
  void post_at(TimePoint at, EventCallback fn);
  /// Schedules a coroutine resumption after `delay` (used by awaitables).
  void post_resume(Duration delay, std::coroutine_handle<> h);
  /// Schedules a zero-delay resumption of every handle in `waiters`, in
  /// order, and empties the list in place. The list keeps its capacity, so
  /// a primitive that parks and wakes tasks over and over allocates nothing.
  void resume_all(std::vector<std::coroutine_handle<>>& waiters);

  /// Handle to a cancelable entry (see post_cancelable). It goes stale once
  /// the entry fires or is cancelled; a later post that recycles the
  /// entry's callback slot draws a new generation, so a stale ticket never
  /// reaches it. A default-constructed ticket names no entry.
  struct Ticket {
    std::uint32_t slot = kNoCallback;
    std::uint32_t gen = 0;
    [[nodiscard]] explicit operator bool() const { return slot != kNoCallback; }
  };
  /// Schedules a callback after `delay` (> 0) that can later be re-keyed
  /// or cancelled through the returned ticket.
  Ticket post_cancelable(Duration delay, EventCallback fn);
  /// Moves a pending entry to `now() + delay` (`delay` > 0), ordered as if
  /// it were cancelled and posted afresh now: after every entry already
  /// pending for its new instant, before any posted later. Returns false,
  /// and does nothing, when the ticket is stale.
  bool reschedule(Ticket ticket, Duration delay);
  /// Removes a pending entry and destroys its callback, releasing whatever
  /// the callback owns. Returns false, and does nothing, when the ticket is
  /// stale.
  bool cancel(Ticket ticket);
  /// True while the ticket's entry is queued (posted, not yet fired or
  /// cancelled).
  [[nodiscard]] bool pending(Ticket ticket) const {
    return ticket.slot < slots_.size() && slots_[ticket.slot].gen == ticket.gen;
  }

  /// Starts `task` as a detached activity at the current time.
  TaskRef spawn(Task task, std::string name = {});

  /// Awaitable that suspends the current task for `d` of simulated time.
  [[nodiscard]] auto delay(Duration d) {
    struct Awaiter {
      Simulation& sim;
      Duration d;
      [[nodiscard]] bool await_ready() const noexcept { return d.is_zero(); }
      void await_suspend(std::coroutine_handle<> h) const { sim.post_resume(d, h); }
      void await_resume() const noexcept {}
    };
    NM_CHECK(!d.is_negative(), "cannot delay by negative duration " << d.count_nanos() << "ns");
    return Awaiter{*this, d};
  }

  /// Runs until the event queue is empty. Returns the final time.
  TimePoint run();
  /// Runs until `deadline` (events at exactly `deadline` are executed).
  TimePoint run_until(TimePoint deadline);
  TimePoint run_for(Duration d) { return run_until(now_ + d); }

  /// Registers a settle hook: a callback the kernel runs at the *end* of a
  /// simulated instant — after a settle was requested, just before the
  /// clock would advance past `now()` (or the queue drains). Lazily-settled
  /// models (the fluid SolvePool) use this to batch every same-instant
  /// dirty mark into one settle point instead of posting zero-delay events.
  /// Returns an id for remove_settle_hook(). Hooks run in registration
  /// order; they may post new events at `now()`, which then execute before
  /// time advances.
  std::uint64_t add_settle_hook(std::function<void()> hook);
  void remove_settle_hook(std::uint64_t id);
  /// Arms the settle hooks for the current instant. Idempotent; cleared
  /// once the hooks have run.
  void request_settle() { settle_requested_ = true; }

  /// Number of spawned tasks that have not yet finished. Tests use this to
  /// assert that scenarios quiesce (no deadlocked activity).
  [[nodiscard]] std::size_t live_task_count() const { return live_tasks_; }
  /// Number of pending queue entries (timers + ready resumptions).
  [[nodiscard]] std::size_t pending_event_count() const { return queue_.size() + lane_size_; }

 private:
  friend struct Task::FinalAwaiter;

  static constexpr std::uint32_t kNoCallback = 0xffffffffU;

  /// Queue entry: a trivially-copyable 32-byte key. Callback payloads live
  /// in `callback_pool_` (referenced by `slot`), so heap sifts move plain
  /// PODs — no per-level type-erased relocation — and a callback is moved
  /// exactly once on post and once on pop.
  struct QueueEntry {
    TimePoint at;
    std::uint64_t seq;
    std::coroutine_handle<> handle;  // resumption entries; null otherwise
    std::uint32_t slot;              // callback entries; kNoCallback otherwise
    bool cancelable;                 // a Ticket names it: its heap index is tracked
    bool operator<(const QueueEntry& o) const {
      return at != o.at ? at < o.at : seq < o.seq;
    }
  };
  /// Per callback slot: the heap index of its entry while a Ticket names
  /// it, and the generation a Ticket must carry to reach it (bumped every
  /// time the slot is released).
  struct SlotState {
    std::uint32_t pos = 0;
    std::uint32_t gen = 0;
  };

  void enqueue(TimePoint at, std::coroutine_handle<> h, EventCallback fn);
  std::uint32_t store_callback(EventCallback fn);
  void release_slot(std::uint32_t slot);
  void on_detached_done(std::uint64_t id, std::exception_ptr exception);
  bool step();  // runs due settle hooks + one queue entry; false when empty
  void dispatch_one();  // executes the front queue entry (queue non-empty)
  // Runs the settle hooks if a settle is pending and the current instant is
  // over (no queued entry at `now_`). Same-instant entries defer the settle
  // so all marks from one instant batch into a single hook invocation.
  void maybe_settle();
  void drain_destroy_list();
  [[nodiscard]] bool queue_empty() const { return lane_size_ == 0 && queue_.empty(); }
  /// Instant of the next entry to run (queue non-empty). Lane entries are
  /// all due at `now_`, no later than anything in the heap.
  [[nodiscard]] TimePoint next_at() const { return lane_size_ != 0 ? now_ : queue_.front().at; }
  QueueEntry pop_next();
  // The binary heap, by hand: every move goes through heap_place so the
  // heap index of a cancelable entry is always current.
  void heap_place(std::size_t i, const QueueEntry& entry) {
    queue_[i] = entry;
    if (entry.cancelable) {
      slots_[entry.slot].pos = static_cast<std::uint32_t>(i);
    }
  }
  void heap_push(const QueueEntry& entry);
  QueueEntry heap_pop();
  void heap_sift_up(std::size_t hole, const QueueEntry& entry);
  /// Re-seats `entry` at index `i` (after a re-key or an erase), sifting
  /// whichever way its key requires.
  void heap_fix(std::size_t i, const QueueEntry& entry);
  void lane_push(const QueueEntry& entry);

  TimePoint now_ = TimePoint::origin();
  std::uint64_t seed_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_task_id_ = 1;
  // Pending entries live in two structures whose union is popped in the
  // total order (at, seq) — the simulated instant, then the sequence number
  // drawn at post (or re-key) time:
  //  - `queue_`, a binary min-heap holding every entry due after the
  //    instant it was posted at. Written by hand, not with push_heap /
  //    pop_heap, so it can re-key or remove a cancelable entry in place
  //    (one sift) instead of leaving a superseded entry to drain.
  //  - `lane_`, a FIFO ring of the entries posted for the current instant
  //    (zero-delay posts, spawns, Event wake-ups). Each draws a larger seq
  //    than every entry already queued and time cannot advance while one
  //    is pending, so the lane is sorted by construction and pop_next only
  //    merges its head with the heap's front.
  // Pop order is therefore independent of heap layout, and same-instant
  // entries run in post order.
  std::vector<QueueEntry> queue_;
  std::vector<QueueEntry> lane_;  // power-of-two ring
  std::size_t lane_head_ = 0;
  std::size_t lane_size_ = 0;
  // Slab of pending callbacks, free-listed; slots are recycled so the
  // steady state allocates nothing. Destroying the simulation destroys
  // pending callbacks here, releasing whatever they still own.
  std::vector<EventCallback> callback_pool_;
  std::vector<SlotState> slots_;  // parallel to callback_pool_
  std::vector<std::uint32_t> free_callback_slots_;

  struct Detached;
  std::map<std::uint64_t, std::unique_ptr<Detached>> detached_;
  std::vector<std::coroutine_handle<>> destroy_list_;
  std::size_t live_tasks_ = 0;
  std::exception_ptr pending_exception_;

  std::vector<std::pair<std::uint64_t, std::function<void()>>> settle_hooks_;
  std::uint64_t next_settle_hook_id_ = 1;
  bool settle_requested_ = false;
};

/// A broadcast event. `set()` wakes every waiter; waiting on an already-set
/// event does not suspend. `reset()` re-arms it.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  [[nodiscard]] bool is_set() const { return set_; }

  void set() {
    if (set_) {
      return;
    }
    set_ = true;
    sim_->resume_all(waiters_);
  }

  void reset() { set_ = false; }

  /// Awaitable: suspend until set.
  [[nodiscard]] auto wait() {
    struct Awaiter {
      Event& ev;
      [[nodiscard]] bool await_ready() const noexcept { return ev.set_; }
      void await_suspend(std::coroutine_handle<> h) { ev.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation* sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace nm::sim
