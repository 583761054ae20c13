// Coroutine task type for the discrete-event simulator. Every modelled
// activity (an MPI rank, a vCPU, a migration worker, a SymVirt agent) is a
// `Task` coroutine. Tasks are lazily started:
//   - `co_await child_task()` runs the child to completion as a structured
//     sub-activity of the parent (exceptions propagate to the parent), or
//   - `Simulation::spawn(std::move(task))` runs it as a detached activity
//     owned by the simulation (join via the returned TaskRef).
// Task frames come from a recycling pool (see detail::allocate_frame), so
// a steady-state simulation creates and retires tasks without touching
// the heap.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>

namespace nm::sim {

class Simulation;

namespace detail {
/// The coroutine-frame pool behind Task::promise_type. A frame of up to
/// kMaxPooledFrame bytes takes a block of the next kFrameClass multiple,
/// and a freed block waits on its size class's free stack for the next
/// frame of that class; larger frames go to the heap. The pool is
/// process-wide and unsynchronised, which is safe because the simulator
/// starts no thread. Under AddressSanitizer a block on a free stack is
/// poisoned, so a use of a destroyed frame still reports.
inline constexpr std::size_t kFrameClass = 64;
inline constexpr std::size_t kMaxPooledFrame = 2048;
[[nodiscard]] void* allocate_frame(std::size_t size);
void free_frame(void* frame, std::size_t size) noexcept;
}  // namespace detail

class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle h) noexcept;
    void await_resume() const noexcept {}
  };

  struct promise_type {
    /// Parent coroutine awaiting this task, if any.
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;
    /// Set when the task was detached via Simulation::spawn.
    Simulation* detached_owner = nullptr;
    std::uint64_t detach_id = 0;

    Task get_return_object() noexcept { return Task{Handle::from_promise(*this)}; }
    [[nodiscard]] std::suspend_always initial_suspend() const noexcept { return {}; }
    [[nodiscard]] FinalAwaiter final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() noexcept { exception = std::current_exception(); }

    static void* operator new(std::size_t size) { return detail::allocate_frame(size); }
    static void operator delete(void* frame, std::size_t size) noexcept {
      detail::free_frame(frame, size);
    }
  };

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  /// Awaiting a task starts it immediately (symmetric transfer) and resumes
  /// the parent when it finishes; a child exception rethrows in the parent.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle h;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) const noexcept {
        h.promise().continuation = parent;
        return h;  // start the child now
      }
      void await_resume() const {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
      }
    };
    return Awaiter{h_};
  }

  /// Transfers ownership of the coroutine handle (used by Simulation::spawn).
  [[nodiscard]] Handle release() noexcept { return std::exchange(h_, {}); }

 private:
  explicit Task(Handle h) noexcept : h_(h) {}

  void destroy() noexcept {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  Handle h_{};
};

}  // namespace nm::sim
