// Lazy coroutine task with continuation chaining.
//
// Real processes in the reproduction (simulators, clients of the augmented
// snapshot) are written as coroutines returning Task<T>.  A Task is lazy: it
// starts executing only when awaited (or when the scheduler resumes the
// top-level process coroutine).  When an inner Task finishes, control is
// symmetrically transferred back to its awaiter, so arbitrarily deep call
// chains (e.g. the recursive Construct(r) of a covering simulator) suspend
// and resume as a unit at each shared-memory step.
//
// Frames come from the global operator new.  Inside the explorer's builds
// and steps that is the thread's world arena (src/util/pool.h): frames are
// part of the bytes a checkpoint copies, so a restore brings them back at
// their own addresses, and a frame made there is freed on its own thread.
// Outside the explorer it is plain heap.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

namespace revisim::runtime {

template <typename T>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;  // resumed when this coroutine finishes
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Task<T> get_return_object();
  void return_value(T v) { value = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() noexcept {}
};

}  // namespace detail

// Owning handle to a lazily started coroutine producing T.
template <typename T>
class Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return handle_ && handle_.done(); }
  [[nodiscard]] Handle handle() const noexcept { return handle_; }

  // Starts (or continues) the coroutine on the current thread.  Used by the
  // scheduler on the top-level process coroutine only.
  void resume() { handle_.resume(); }

  // Rethrows any exception that escaped the coroutine body.
  void rethrow_if_failed() const {
    if (handle_ && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

  // Result of a finished Task<T>.  Precondition: done() and no exception.
  T result() const
    requires(!std::is_void_v<T>)
  {
    rethrow_if_failed();
    return std::move(*handle_.promise().value);
  }

  // Awaiting a Task starts it and transfers control into it; the awaiter is
  // resumed when the task completes.
  auto operator co_await() & noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;
      }
      T await_resume() {
        if (handle.promise().exception) {
          std::rethrow_exception(handle.promise().exception);
        }
        if constexpr (!std::is_void_v<T>) {
          return std::move(*handle.promise().value);
        }
      }
    };
    return Awaiter{handle_};
  }
  auto operator co_await() && noexcept { return operator co_await(); }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_{};
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace revisim::runtime
