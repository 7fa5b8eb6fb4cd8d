// Cooperative, step-granular scheduler for the asynchronous shared-memory
// model of the paper (Section 2).
//
// Processes are coroutines.  Every base-object operation is one atomic step:
// the process suspends, the scheduler (playing the adversary) picks which
// poised process moves next, executes that process's operation against the
// object state, and resumes the process, which then computes locally until it
// poses its next step.  Everything runs on one OS thread, so a step is atomic
// by construction and executions are deterministic functions of the schedule,
// which makes them replayable (the model checker depends on this).
#pragma once

#include <cassert>
#include <coroutine>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/runtime/task.h"
#include "src/runtime/trace.h"
#include "src/util/fingerprint.h"
#include "src/util/small_fn.h"

namespace revisim::runtime {

class Adversary;

// Thrown when Scheduler::run hits its step budget with processes still live.
// In an asynchronous model a bounded run is a legitimate (partial) execution,
// so callers that expect non-termination catch this.
class StepLimitExceeded : public std::runtime_error {
 public:
  explicit StepLimitExceeded(std::size_t limit)
      : std::runtime_error("step limit exceeded: " + std::to_string(limit)) {}
};

class Scheduler {
 public:
  Scheduler();
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Registers a shared object; the returned id appears in trace events.
  std::size_t register_object(std::string name);

  // Adds a process.  The coroutine must have been created but not started
  // (Task is lazy).  Returns the process id (0-based; process i is the
  // paper's q_{i+1}).
  ProcessId spawn(Task<void> body, std::string name = {});

  // Runs until every process finishes or crashes, the adversary declines to
  // schedule, or `max_steps` steps have executed (then throws
  // StepLimitExceeded unless `throw_on_limit` is false).  Returns true iff
  // no live process remains (every process finished or crashed).
  bool run(Adversary& adversary, std::size_t max_steps = kDefaultMaxSteps,
           bool throw_on_limit = true);

  // Runs exactly one step by `pid`; pid must be runnable.
  void run_step(ProcessId pid);

  // Permanently retires a process at a step boundary (the crash faults of
  // the asynchronous model).  Its poised base-object operation, if any, is
  // discarded *unexecuted* - a crash lands between the operation being
  // posed and its atomic step, so the operation never takes effect - and
  // the coroutine frame is destroyed.  A crashed process is never runnable
  // again and counts as retired for all_done().  Crashing a finished or
  // already-crashed process, or crashing from inside a step, is an error.
  // With recording on, the trace gains a kCrash event (sharing the index of
  // the next step, since a crash consumes no step).
  void crash(ProcessId pid);

  // Process ids whose next step is poised (or that have not started), in
  // increasing id order.  Crashed processes are never runnable: every
  // adversary and explorer sees only live choices.
  [[nodiscard]] std::vector<ProcessId> runnable() const;

  // Allocation-free variant: clears `out` and fills it with the runnable ids.
  // The schedule explorer calls this once per tree node, so reusing one
  // buffer there removes a vector allocation from the exploration hot path.
  void runnable_into(std::vector<ProcessId>& out) const;

  // True iff no live process remains: every process finished *or crashed*.
  // (Crash-closure: a crashed process's execution is maximal, so the run is
  // complete once only crashed processes are left unfinished.)
  [[nodiscard]] bool all_done() const;
  [[nodiscard]] bool is_done(ProcessId pid) const { return procs_.at(pid)->done; }
  [[nodiscard]] bool is_crashed(ProcessId pid) const {
    return procs_.at(pid)->crashed;
  }
  [[nodiscard]] std::size_t crashed_count() const noexcept {
    return crash_count_;
  }
  [[nodiscard]] std::size_t process_count() const noexcept { return procs_.size(); }
  [[nodiscard]] std::size_t steps_taken(ProcessId pid) const {
    return procs_.at(pid)->steps;
  }
  [[nodiscard]] std::size_t total_steps() const noexcept { return step_count_; }

  // Trace recording toggle (on by default).  With recording off the
  // scheduler runs in "fast mode": steps are counted (total_steps and the
  // per-process counters stay exact, so linearization points derived from
  // them are unchanged) but no Event is appended and base objects skip
  // building step-detail strings.  Executions are step-for-step identical
  // either way; only the Trace is empty.  The schedule explorer runs with
  // recording off because nothing reads per-execution traces there.
  void set_recording(bool on) noexcept { recording_ = on; }
  [[nodiscard]] bool recording() const noexcept { return recording_; }

  // Process currently executing a step (valid only inside a step).
  [[nodiscard]] ProcessId current() const {
    assert(in_step_);
    return current_;
  }

  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] const std::string& object_name(std::size_t id) const {
    return object_names_.at(id);
  }
  // Number of base objects registered - the space census.  With the
  // register substrate every object is a plain register, so this is the
  // register count the paper's space complexity measures.
  [[nodiscard]] std::size_t object_count() const noexcept {
    return object_names_.size();
  }

  // --- state fingerprinting (transposition pruning, src/check) ----------
  // Objects whose contents are behaviour-relevant shared state register
  // themselves here during construction; a world factory therefore fixes
  // the registration order, making digests of same-factory worlds
  // comparable.  The pointer must outlive every state_digest call.
  void register_state_source(const util::Fingerprintable* source) {
    state_sources_.push_back(source);
  }

  // Feeds the canonical scheduler state to `sink`: the per-process control
  // skeleton (started/done flags, step counts, poised step kind + object)
  // followed by every registered source's contents.  Together with the
  // determinism of executions this pins the residual behaviour of worlds
  // whose process-local state is a function of (own steps taken, shared
  // contents) - see src/util/fingerprint.h for the exact contract.
  void state_digest(util::StateSink& sink) const;

  static constexpr std::size_t kDefaultMaxSteps = 1'000'000;

  // --- used by StepAwaiter (not by user code) ---
  // The poised operation is a raw trampoline into the awaiter object (which
  // lives in the coroutine frame until the step is granted), so posting a
  // step performs no allocation and no type erasure beyond one call through
  // a function pointer.
  using StepExec = void (*)(void*);
  void post_step(std::coroutine_handle<> resumer, StepExec exec,
                 void* exec_ctx, std::size_t object, StepKind kind,
                 std::string detail);

 private:
  struct Process {
    Task<void> body;
    std::string name;
    bool started = false;
    bool done = false;
    bool crashed = false;
    std::size_t steps = 0;
    // Poised step, if any.
    std::coroutine_handle<> resumer;
    StepExec exec = nullptr;
    void* exec_ctx = nullptr;
    std::size_t step_object = 0;
    StepKind step_kind = StepKind::kOther;
    std::string step_detail;
    bool poised = false;
  };

  void finish_if_done(Process& p);
  void execute_poised_step(Process& p, ProcessId pid);

  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<const util::Fingerprintable*> state_sources_;
  std::vector<std::string> object_names_;
  Trace trace_;
  std::size_t step_count_ = 0;  // == trace_.size() while recording
  ProcessId current_ = 0;
  std::size_t crash_count_ = 0;
  bool in_step_ = false;
  bool recording_ = true;
};

// Applies one serialized schedule entry (see trace.h): a plain id runs one
// step, a crash entry retires the process.  The explorer, the witness
// replayer and tests all replay schedules through this, so crash-extended
// schedules stay replayable end to end.
inline void apply_schedule_entry(Scheduler& sched, ProcessId entry) {
  if (is_crash_entry(entry)) {
    sched.crash(crash_entry_target(entry));
  } else {
    sched.run_step(entry);
  }
}

// Awaitable representing one atomic base-object step.  `op` runs when the
// scheduler grants the step; its return value is handed back to the process.
// The operation is stored in a small-buffer callable and executed through a
// trampoline into this awaiter (stable in the coroutine frame until the step
// is granted), so posing and granting a step never touches the heap for
// typical captures.
template <typename R>
class StepAwaiter {
 public:
  template <typename F>
    requires std::is_invocable_r_v<R, std::remove_cvref_t<F>&>
  StepAwaiter(Scheduler& sched, F&& op, std::size_t object, StepKind kind,
              std::string detail)
      : sched_(sched),
        op_(std::forward<F>(op)),
        object_(object),
        kind_(kind),
        detail_(std::move(detail)) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sched_.post_step(h, &StepAwaiter::exec_trampoline, this, object_, kind_,
                     std::move(detail_));
  }
  R await_resume() {
    if constexpr (!std::is_void_v<R>) {
      return std::move(*result_);
    }
  }

 private:
  static void exec_trampoline(void* self) {
    auto* awaiter = static_cast<StepAwaiter*>(self);
    if constexpr (std::is_void_v<R>) {
      awaiter->op_();
    } else {
      awaiter->result_.emplace(awaiter->op_());
    }
  }

  struct Empty {};
  Scheduler& sched_;
  util::SmallFn<R> op_;
  std::size_t object_;
  StepKind kind_;
  std::string detail_;
  [[no_unique_address]] std::conditional_t<std::is_void_v<R>, Empty,
                                           std::optional<R>> result_;
};

}  // namespace revisim::runtime
