// Synchronization primitives for simulation tasks: Gate (level-triggered),
// Channel<T> (unbounded mailbox), Semaphore, Barrier and Notifier. All
// wakeups are scheduled through the event queue (never resumed inline),
// which keeps execution order deterministic.
#pragma once

#include <coroutine>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "sim/task.h"
#include "util/error.h"

namespace nm::sim {

/// A level-triggered gate: tasks awaiting `opened()` pass through while the
/// gate is open and park while it is closed. Models "the VM is paused".
class Gate {
 public:
  explicit Gate(Simulation& sim, bool initially_open = true)
      : sim_(&sim), open_(initially_open) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  [[nodiscard]] bool is_open() const { return open_; }

  void open() {
    if (open_) {
      return;
    }
    open_ = true;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto h : waiters) {
      sim_->post_resume(Duration::zero(), h);
    }
  }

  void close() { open_ = false; }

  /// Awaitable: passes immediately when open, parks until open() otherwise.
  [[nodiscard]] auto opened() {
    struct Awaiter {
      Gate& gate;
      [[nodiscard]] bool await_ready() const noexcept { return gate.open_; }
      void await_suspend(std::coroutine_handle<> h) { gate.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation* sim_;
  bool open_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Unbounded FIFO channel. Multiple receivers are served in arrival order.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulation& sim) : sim_(&sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T value) {
    if (!receivers_.empty()) {
      RecvAwaiter* recv_waiter = receivers_.front();
      receivers_.pop_front();
      recv_waiter->value = std::move(value);
      sim_->post_resume(Duration::zero(), recv_waiter->handle);
    } else {
      buffer_.push_back(std::move(value));
    }
  }

  [[nodiscard]] std::size_t size() const { return buffer_.size(); }
  [[nodiscard]] bool empty() const { return buffer_.empty(); }

  /// Awaitable receive.
  [[nodiscard]] auto recv() { return RecvAwaiter{this, std::nullopt, nullptr}; }

  /// Non-blocking receive.
  [[nodiscard]] std::optional<T> try_recv() {
    if (buffer_.empty()) {
      return std::nullopt;
    }
    T v = std::move(buffer_.front());
    buffer_.pop_front();
    return v;
  }

 private:
  struct RecvAwaiter {
    Channel* ch;
    std::optional<T> value;
    std::coroutine_handle<> handle;

    [[nodiscard]] bool await_ready() {
      if (!ch->buffer_.empty()) {
        value = std::move(ch->buffer_.front());
        ch->buffer_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      ch->receivers_.push_back(this);
    }
    [[nodiscard]] T await_resume() {
      NM_CHECK(value.has_value(), "channel resumed without a value");
      return std::move(*value);
    }
  };

  Simulation* sim_;
  std::deque<T> buffer_;
  // Suspended recv() awaiters; they live in coroutine frames, which stay
  // alive while suspended.
  std::deque<RecvAwaiter*> receivers_;
};

/// Counting semaphore with FIFO wakeup.
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::size_t initial) : sim_(&sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  [[nodiscard]] std::size_t available() const { return count_; }

  void release(std::size_t n = 1) {
    count_ += n;
    while (count_ > 0 && !waiters_.empty()) {
      --count_;
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->post_resume(Duration::zero(), h);
    }
  }

  [[nodiscard]] auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      [[nodiscard]] bool await_ready() const noexcept {
        if (sem.count_ > 0 && sem.waiters_.empty()) {
          --sem.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { sem.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation* sim_;
  std::size_t count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Coroutine that joins every task in `refs`.
inline Task join_all(std::vector<TaskRef> refs) {
  for (auto& ref : refs) {
    if (!ref.done()) {
      co_await ref.completion().wait();
    }
  }
}

/// A cyclic counting barrier for a fixed party count. Reusable: the cycle
/// resets once everyone has arrived.
class Barrier {
 public:
  Barrier(Simulation& sim, std::size_t parties)
      : sim_(&sim), parties_(parties), cycle_(std::make_unique<Event>(sim)) {
    NM_CHECK(parties > 0, "barrier needs at least one party");
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  [[nodiscard]] std::size_t parties() const { return parties_; }
  [[nodiscard]] std::size_t arrived() const { return arrived_; }

  [[nodiscard]] Task arrive_and_wait() {
    ++arrived_;
    if (arrived_ >= parties_) {
      arrived_ = 0;
      auto old = std::move(cycle_);
      cycle_ = std::make_unique<Event>(*sim_);
      old->set();
      // Keep the fired event alive until its waiters have been resumed;
      // the callback owns it, so teardown with the post still pending
      // frees it instead of leaking.
      sim_->post(Duration::zero(), [owned = std::move(old)]() mutable { owned.reset(); });
      co_return;
    }
    Event& cycle = *cycle_;
    co_await cycle.wait();
  }

 private:
  Simulation* sim_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::unique_ptr<Event> cycle_;
};

/// Condition-variable-style notifier: waiters park on the current cycle;
/// notify_all() wakes every current waiter (and only them).
class Notifier {
 public:
  explicit Notifier(Simulation& sim)
      : sim_(&sim), cycle_(std::make_unique<Event>(sim)) {}
  Notifier(const Notifier&) = delete;
  Notifier& operator=(const Notifier&) = delete;

  [[nodiscard]] Task wait() {
    Event& cycle = *cycle_;
    co_await cycle.wait();
  }

  void notify_all() {
    auto old = std::move(cycle_);
    cycle_ = std::make_unique<Event>(*sim_);
    old->set();
    // As in Barrier: the post owns the retired cycle, so it is released
    // whether the callback runs or the simulation is torn down first.
    sim_->post(Duration::zero(), [owned = std::move(old)]() mutable { owned.reset(); });
  }

 private:
  Simulation* sim_;
  std::unique_ptr<Event> cycle_;
};

}  // namespace nm::sim
