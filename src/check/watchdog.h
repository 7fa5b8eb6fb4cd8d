// Progress-guarantee watchdogs: per-operation step budgets that convert
// livelock and starvation into structured, attributable verdicts.
//
// Wait-freedom (§2, §3.2) is a *per-operation* bound: every operation by a
// live process completes within a bounded number of its own steps,
// regardless of how the other processes are scheduled - or crashed.  The
// watchdog checks exactly that: each monitored operation registers when it
// begins, and the monitor compares the process's own-step consumption
// against a budget.  An execution where some operation exceeds its budget -
// whether it later completed or is still running when the execution is cut -
// yields a ProgressViolation naming the process, the operation and the step
// counts, which the explorer turns into a replayable failure witness.
//
// Crash interaction: a crashed process stops taking steps, so its in-flight
// operation's own-step count freezes and never exceeds the budget on its
// own.  Crashes therefore never create watchdog violations (a crash is not
// starvation), without any special-casing - exactly the crash-closure
// reading under which the Block-Update bound of Lemma 2 must hold.
//
// What the watchdog deliberately does NOT bound is *other* processes' steps:
// the augmented snapshot's Scan is non-blocking but not wait-free (§3.2) -
// an infinite stream of concurrent update batches starves it - so a Scan
// own-step budget would be violated by a correct implementation.  Monitor
// the operations whose contract is wait-freedom (Block-Update: 6 own steps,
// 5 when yielding) and leave merely non-blocking ones unmonitored.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/runtime/scheduler.h"

namespace revisim::check {

// A monitored operation that consumed more own-steps than its budget.
struct ProgressViolation {
  runtime::ProcessId process = 0;
  std::string operation;
  std::size_t budget = 0;
  std::size_t steps = 0;     // own steps consumed when the check ran
  bool completed = false;    // true: it finished anyway, just too slowly

  // One-line message, e.g.
  //   "progress violation: q2's Block-Update took 11 own steps
  //    (budget 10, still running)"
  [[nodiscard]] std::string message() const;
};

// Tracks operations against a shared own-step budget.  Bound to one
// scheduler; begin() is called from the operation's prologue (before its
// first shared-memory step), end() right after it returns.  check() scans
// every recorded operation - live or completed - and reports the first
// over-budget one in begin order.
class ProgressMonitor {
 public:
  // Throws std::invalid_argument if step_budget is 0 (every operation
  // charges at least one step, so a zero budget flags everything).
  ProgressMonitor(const runtime::Scheduler& sched, std::size_t step_budget);

  // Registers an operation by `pid` starting now; returns its token.
  std::size_t begin(runtime::ProcessId pid, std::string operation);

  // Marks the operation complete, fixing its final own-step count.
  void end(std::size_t token);

  // First over-budget operation in begin order, or nullopt.  A completed
  // operation that exceeded the budget is still a violation: wait-freedom
  // bounds every operation, not just the ones an adversary cut short.
  [[nodiscard]] std::optional<ProgressViolation> check() const;

  [[nodiscard]] std::size_t step_budget() const noexcept { return budget_; }
  [[nodiscard]] std::size_t operations() const noexcept { return ops_.size(); }

 private:
  struct Op {
    runtime::ProcessId pid = 0;
    std::string name;
    std::size_t start_steps = 0;            // steps_taken(pid) at begin
    std::optional<std::size_t> used;        // final count once ended
  };

  const runtime::Scheduler& sched_;
  std::size_t budget_;
  std::vector<Op> ops_;
};

}  // namespace revisim::check
