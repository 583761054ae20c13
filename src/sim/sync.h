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
    sim_->resume_all(waiters_);
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

/// A cyclic counting barrier for a fixed party count. Reusable: the last
/// arrival of a cycle releases it, so a released party that arrives again,
/// even at the release instant, waits for the next cycle.
class Barrier {
 public:
  Barrier(Simulation& sim, std::size_t parties) : sim_(&sim), parties_(parties) {
    NM_CHECK(parties > 0, "barrier needs at least one party");
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  [[nodiscard]] std::size_t parties() const { return parties_; }
  [[nodiscard]] std::size_t arrived() const { return arrived_; }

  /// Awaitable: counts the caller's arrival and parks it until the cycle's
  /// last arrival, which wakes the parked parties and passes straight
  /// through.
  [[nodiscard]] auto arrive_and_wait() {
    struct Awaiter {
      Barrier& barrier;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        Barrier& b = barrier;
        if (++b.arrived_ < b.parties_) {
          b.waiters_.push_back(h);
          return true;
        }
        b.arrived_ = 0;
        b.sim_->resume_all(b.waiters_);
        return false;  // the last arrival continues at once
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Simulation* sim_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Condition-variable-style notifier: notify_all() wakes every task parked
/// in wait() at that moment, and only those; a woken task that waits again,
/// even at the same instant, parks until the next notify_all().
class Notifier {
 public:
  explicit Notifier(Simulation& sim) : sim_(&sim) {}
  Notifier(const Notifier&) = delete;
  Notifier& operator=(const Notifier&) = delete;

  /// Awaitable: parks until the next notify_all().
  [[nodiscard]] auto wait() {
    struct Awaiter {
      Notifier& notifier;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { notifier.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void notify_all() { sim_->resume_all(waiters_); }

 private:
  Simulation* sim_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace nm::sim
