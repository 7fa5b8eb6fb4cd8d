// Exhaustive schedule exploration for the coroutine-based real system.
//
// Coroutine frames cannot be copied, so the explorer enumerates schedules by
// *replay*: it rebuilds a fresh world from the user's factory, replays a
// schedule prefix step by step, inspects which processes are runnable, and
// backtracks.  Exploration runs on the scheduler's fast mode (no trace
// recording), rebuilding one world per root-to-leaf path - the replay cost
// model's lower bound (DESIGN.md finding 7) - and the companion parallel
// explorer (src/check/parallel_explore.h) splits the search across a
// work-stealing worker pool, so instances well beyond the historical "two
// or three processes, a handful of operations" ceiling are in reach - the
// strongest evidence the reproduction has for the augmented snapshot's
// §3.3 properties, complementing the per-execution linearizer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/runtime/scheduler.h"
#include "src/util/fingerprint.h"

namespace revisim::check {

// A freshly built world: the scheduler with processes spawned, plus a
// verdict evaluated when the exploration reaches the end of an execution
// (all processes done, or the depth bound).  Return a message to flag a
// violation, std::nullopt to accept.
class ExplorableWorld {
 public:
  virtual ~ExplorableWorld() = default;
  virtual runtime::Scheduler& scheduler() = 0;
  virtual std::optional<std::string> verdict(bool complete) = 0;

  // --- transposition-pruning hooks (dedupe_states) -----------------------
  //
  // fingerprint() keys the explorer's visited-state table: a 128-bit hash
  // of the canonical global state - the scheduler's per-process control
  // skeleton (done/poised flags, step counts, poised step kind + object)
  // plus the contents of every registered shared object (register.h and the
  // snapshot implementations self-register).  Soundness contract: equal
  // fingerprints must imply identical residual subtrees.  Worlds whose
  // verdict or behaviour depends on process-local state that is *not* a
  // function of (own step count, shared contents) - a remembered earlier
  // read, an accumulated log - must fold that state in via
  // fingerprint_extra, or leave dedupe_states off.
  virtual void fingerprint_extra(util::StateSink& sink) { (void)sink; }

  virtual util::Fingerprint fingerprint() {
    util::HashSink sink;
    scheduler().state_digest(sink);
    fingerprint_extra(sink);
    return sink.digest();
  }

  // The same word stream rendered as text: the full canonical state, kept
  // behind the hash in collision-audit mode.
  virtual std::string canonical_state() {
    std::string out;
    util::TextSink sink(out);
    scheduler().state_digest(sink);
    fingerprint_extra(sink);
    return out;
  }
};

struct ScheduleExploreOptions {
  std::size_t max_steps = 64;           // depth bound per execution
  std::size_t max_executions = 500'000; // exploration cap
  // Leave trace recording on during exploration.  Off by default: no
  // explorer verdict reads per-execution traces, and fast mode makes every
  // replayed step cheaper.  Executions are step-for-step identical either
  // way (verdicts, step counts and linearization points are unchanged).
  bool record_traces = false;
  // Transposition pruning: skip subtrees rooted at a canonical global state
  // (ExplorableWorld::fingerprint) already visited.  Off by default.  The
  // violation-found / violation-free verdict is preserved - equal states
  // generate identical subtrees - but `executions` shrinks to the number of
  // distinct subtrees walked and a violation may be reported through a
  // different (the first-visited) witness schedule.  Requires the world to
  // satisfy the fingerprint soundness contract (see ExplorableWorld).
  bool dedupe_states = false;
  // With dedupe_states: retain the full canonical state behind every
  // fingerprint and throw StateFingerprintCollision if a 128-bit hash ever
  // covers two distinct states.  Memory-hungry; for validation runs.
  bool dedupe_audit = false;
  // Crash-fault branching: besides one step per runnable process, every node
  // also branches on "crash p here" for each runnable p, up to this many
  // crashes per execution.  A crash permanently retires the process with its
  // poised operation discarded unexecuted (Scheduler::crash); executions
  // where only crashed processes remain unfinished are complete
  // (crash-closure).  Crash entries appear in witness schedules with the
  // top bit set (runtime::make_crash_entry) and occupy schedule slots, so
  // they count toward max_steps.  0 (default) disables crash branching.
  std::size_t max_crashes = 0;
  // Sleep-set partial-order reduction over the access footprints the memory
  // primitives declare (src/runtime/footprint.h).  Schedules that differ
  // only by swapping adjacent independent steps reach the same state; POR
  // explores exactly the lexicographically least representative of each
  // such class and skips the rest, so `executions` shrinks - often by
  // orders of magnitude on disjoint-access workloads - while every
  // reachable final state is still visited.  For trace-invariant verdicts
  // (any predicate of the final state, which all shipped worlds use) the
  // verdict and the lex-smallest witness are preserved exactly; a verdict
  // that inspects the schedule itself may see a different-but-equivalent
  // representative.  Opt-in because soundness leans on the footprint
  // declarations: primitives that cannot bound what their continuations
  // observe stay opaque and simply earn no reduction.  Composes with
  // dedupe_states and with crash branching (crash entries are dependent
  // with everything).
  bool por = false;
  // With dedupe_states: stop fingerprinting mid-search when a window of
  // lookups closes with a negligible prune rate (a spent-vs-saved ledger
  // over table lookups).  On workloads whose states are all distinct this
  // recovers nearly the whole dedupe overhead; on workloads that do
  // transpose it never triggers.
  bool dedupe_adaptive = false;
  // Distributed workers only: pump the control channel (abort probes,
  // fingerprint verdicts) every N explored executions.  1 probes at every
  // execution boundary - the cadence used by the wire bit-parity tests -
  // at the cost of a poll syscall per execution.  Ignored by the serial
  // and in-process parallel explorers.
  std::size_t dist_probe_interval = 16;
};

struct ScheduleExploreResult {
  std::size_t executions = 0;
  // True iff every schedule was explored.  False means max_executions
  // truncated the search while unexplored schedules remained; a search that
  // ends exactly when the tree does is exhausted even if it ends at the cap.
  bool exhausted = true;
  std::optional<std::string> violation;
  std::vector<runtime::ProcessId> witness;  // schedule of the violation
  // Transposition-table statistics (0 with dedupe_states off).
  std::size_t states_seen = 0;       // distinct canonical states recorded
  std::size_t subtrees_pruned = 0;   // subtrees skipped as already-seen
  // Work-distribution statistics.  The serial explorer is one job and never
  // steals; the parallel explorer counts every schedule-prefix job its
  // stack-splitting created and every job claimed by a worker other than
  // its donor.
  //
  // Aggregation contract (in-process AND distributed runs share one merge,
  // src/check/explore_merge.h, so they agree by construction):
  //   - executions/exhausted/violation/witness replay serial accounting
  //     over the lexicographically sorted job regions - bit-identical to
  //     the serial engine with dedupe off, at any worker count.
  //   - jobs counts every record created; steals counts records claimed
  //     away from their donor, so steals <= jobs - 1 always.
  //   - por_skipped/dependent_wakeups/footprint_bytes sum over every
  //     record whose walk completed, including regions past the merge's
  //     return point: they describe work performed, not work serially
  //     accounted.  On exhausted undeduped searches por_skipped and
  //     dependent_wakeups are decomposition-invariant and equal the serial
  //     values; footprint_bytes legitimately varies with split points.
  std::size_t jobs = 0;
  std::size_t steals = 0;
  // Always 0: every engine rebuilds and replays, no step is ever skipped.
  // Kept only because the end-to-end benchmark still reports it; it goes
  // with the next change to that benchmark.
  std::uint64_t replay_steps_saved = 0;
  // Graceful-degradation summary (parallel explorer only; the serial
  // explorer propagates exceptions and has no wall clock).  `error` carries
  // the message of a worker job that kept throwing past its retry budget;
  // `timed_out` means the wall-clock limit cut the search.  Either way the
  // counts above cover the lexicographic prefix of the tree that *was*
  // explored, and exhausted is false.
  std::optional<std::string> error;
  bool timed_out = false;
  // Partial-order-reduction statistics (0 with por off).  `por_skipped`
  // counts choices skipped because a step-swap-equivalent schedule was
  // already explored (each roots a whole skipped subtree);
  // `dependent_wakeups` counts sleep entries dropped because a conflicting
  // step executed; `footprint_bytes` totals the serialized footprints
  // captured at node expansions (the memory the reduction costs).
  std::size_t por_skipped = 0;
  std::size_t dependent_wakeups = 0;
  std::uint64_t footprint_bytes = 0;
  // True iff the adaptive dedupe kill-switch stopped fingerprinting in at
  // least one job (dedupe_adaptive).
  bool dedupe_disabled_adaptively = false;

  [[nodiscard]] bool ok() const noexcept { return !violation; }
};

// Validates the option struct, throwing std::invalid_argument with a
// message naming the offending field.  explore_schedules and
// parallel_explore_schedules call this on entry.
void validate(const ScheduleExploreOptions& options);

ScheduleExploreResult explore_schedules(
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    const ScheduleExploreOptions& options = {});

}  // namespace revisim::check
