#include "src/runtime/scheduler.h"

#include "src/runtime/adversary.h"

namespace revisim::runtime {

// Worlds are rebuilt for every explored execution, so a world's few
// processes, objects and state sources are reserved for up front instead of
// growing their vectors one reallocation at a time.
Scheduler::Scheduler() {
  constexpr std::size_t kTypical = 8;
  procs_.reserve(kTypical);
  state_sources_.reserve(kTypical);
  object_names_.reserve(kTypical);
}
Scheduler::~Scheduler() = default;

std::size_t Scheduler::register_object(std::string name) {
  object_names_.push_back(std::move(name));
  return object_names_.size() - 1;
}

ProcessId Scheduler::spawn(Task<void> body, std::string name) {
  auto p = std::make_unique<Process>();
  p->body = std::move(body);
  p->name = std::move(name);
  procs_.push_back(std::move(p));
  return procs_.size() - 1;
}

std::vector<ProcessId> Scheduler::runnable() const {
  std::vector<ProcessId> out;
  runnable_into(out);
  return out;
}

void Scheduler::runnable_into(std::vector<ProcessId>& out) const {
  out.clear();
  for (ProcessId i = 0; i < procs_.size(); ++i) {
    const Process& p = *procs_[i];
    if (!p.done && !p.crashed && (!p.started || p.poised)) {
      out.push_back(i);
    }
  }
}

bool Scheduler::all_done() const {
  for (const auto& p : procs_) {
    if (!p->done && !p->crashed) {
      return false;
    }
  }
  return true;
}

void Scheduler::crash(ProcessId pid) {
  Process& p = *procs_.at(pid);
  if (in_step_) {
    throw std::logic_error(
        "crash must happen at a step boundary, not inside a step");
  }
  if (p.done) {
    throw std::logic_error("crash on finished process");
  }
  if (p.crashed) {
    throw std::logic_error("process already crashed");
  }
  p.crashed = true;
  p.poised = false;
  p.exec = nullptr;
  p.exec_ctx = nullptr;
  p.resumer = {};
  p.step_detail.clear();
  // Destroying the frame unwinds the whole suspended call chain; the poised
  // operation (whose awaiter lived in a frame) is gone without executing.
  p.body = Task<void>{};
  ++crash_count_;
  if (recording_) {
    trace_.events.push_back(
        Event{step_count_, pid, 0, StepKind::kCrash, "crash"});
  }
}

void Scheduler::post_step(std::coroutine_handle<> resumer, StepExec exec,
                          void* exec_ctx, std::size_t object, StepKind kind,
                          std::string detail) {
  assert(in_step_ || !procs_[current_]->started);
  Process& p = *procs_[current_];
  assert(!p.poised);
  p.resumer = resumer;
  p.exec = exec;
  p.exec_ctx = exec_ctx;
  p.step_object = object;
  p.step_kind = kind;
  p.step_detail = std::move(detail);
  p.poised = true;
}

void Scheduler::state_digest(util::StateSink& sink) const {
  sink.word(procs_.size());
  for (const auto& p : procs_) {
    sink.word((p->started ? 1u : 0u) | (p->done ? 2u : 0u) |
              (p->poised ? 4u : 0u) | (p->crashed ? 8u : 0u));
    sink.word(p->steps);
    if (p->poised) {
      sink.word(p->step_object);
      sink.word(static_cast<std::uint64_t>(p->step_kind));
    }
  }
  sink.word(state_sources_.size());
  for (const util::Fingerprintable* source : state_sources_) {
    source->fingerprint_into(sink);
  }
}

void Scheduler::run_step(ProcessId pid) {
  Process& p = *procs_.at(pid);
  if (p.done) {
    throw std::logic_error("run_step on finished process");
  }
  if (p.crashed) {
    throw std::logic_error("run_step on crashed process");
  }
  current_ = pid;
  in_step_ = true;
  if (!p.started) {
    // First activation: run local prologue until the first poised step or
    // completion.  The prologue itself is free local computation, so we do
    // not charge a step unless an operation was actually posed and executed.
    p.started = true;
    p.body.resume();
    finish_if_done(p);
    if (!p.done && !p.poised) {
      in_step_ = false;
      throw std::logic_error("process suspended without posting a step");
    }
    // If the prologue immediately poised a step, grant it now so that one
    // run_step == one base-object step for started processes too.
    if (!p.done) {
      execute_poised_step(p, pid);
    }
    in_step_ = false;
    return;
  }
  if (!p.poised) {
    in_step_ = false;
    throw std::logic_error("run_step on process with no poised step");
  }
  execute_poised_step(p, pid);
  in_step_ = false;
}

void Scheduler::execute_poised_step(Process& p, ProcessId pid) {
  p.poised = false;
  if (recording_) {
    trace_.events.push_back(Event{step_count_, pid, p.step_object, p.step_kind,
                                  std::move(p.step_detail)});
  }
  ++step_count_;
  ++p.steps;
  p.exec(p.exec_ctx);  // the atomic operation on the object
  auto resumer = p.resumer;
  p.exec = nullptr;
  p.exec_ctx = nullptr;
  p.resumer = {};
  resumer.resume();  // local computation until next poised step / completion
  finish_if_done(p);
  if (!p.done && !p.poised) {
    throw std::logic_error("process suspended without posting a step");
  }
}

void Scheduler::finish_if_done(Process& p) {
  if (p.body.done()) {
    p.done = true;
    p.poised = false;
    p.body.rethrow_if_failed();
  }
}

bool Scheduler::run(Adversary& adversary, std::size_t max_steps,
                    bool throw_on_limit) {
  std::size_t steps = 0;
  while (!all_done()) {
    auto candidates = runnable();
    if (candidates.empty()) {
      return false;  // deadlock cannot happen in this model; defensive
    }
    if (steps >= max_steps) {
      if (throw_on_limit) {
        throw StepLimitExceeded(max_steps);
      }
      return false;
    }
    auto choice = adversary.pick(candidates, *this);
    if (!choice) {
      // The adversary ended the execution - possibly by crashing every
      // remaining live process (CrashAdversary), in which case the run is
      // complete rather than cut short.
      return all_done();
    }
    run_step(*choice);
    ++steps;
  }
  return true;
}

}  // namespace revisim::runtime
