// Exhaustive schedule exploration for the coroutine-based real system.
//
// The explorer enumerates schedules depth first: it builds a world from the
// user's factory, steps it along a schedule, inspects which processes are
// runnable, and backtracks by restoring the world's arena checkpoint at the
// branch node (or, for worlds that take heap memory, by rebuilding the
// world and replaying the schedule prefix; src/check/explore_core.h has
// the cost model).  Exploration runs on the scheduler's fast mode (no trace
// recording), and the companion parallel explorer
// (src/check/parallel_explore.h) splits the search across a work-stealing
// worker pool, so instances well beyond the historical "two or three
// processes, a handful of operations" ceiling are in reach - the strongest
// evidence the reproduction has for the augmented snapshot's §3.3
// properties, complementing the per-execution linearizer.
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
//
// While the explorer builds, steps or fingerprints a world or takes its
// verdict, the global operator new serves from the thread's world arena, so
// the world the factory makes with new or std::make_unique, and the
// ordinary containers (std::vector, std::string, ...) it makes in those
// calls, walk in place: the explorer rewinds the world by copying the arena
// back (src/util/pool.h).  For that, a world keeps its state in its own
// memory: those calls must not change state outside the world (a restore
// would not rewind it) nor leave memory they made outside it (the walk then
// fails with an error naming the bytes).  A world that takes memory the
// arena does not serve - an over-aligned new, or a block larger than the
// arena has room for - is still explored correctly, by rebuild and replay.
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

  // The full canonical state as text, kept behind the hash in
  // collision-audit mode.  It is not the word stream fingerprint() hashes:
  // the hashing sink consumes the cached digests of immutable sub-objects
  // (the augmented snapshot's H logs, their embedded scan results and its
  // completed operation records) in place of their content, while TextSink
  // renders every sub-object in full - an injective encoding of the state,
  // so the audit catches any collision, sub-digest collisions included.
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
  // True iff the run's state table saturated (StateTable::saturated): past
  // that point unseen states were walked without being recorded, so dedupe
  // was partial and states_seen stopped growing.  The serial explorer reads
  // its own table, the parallel explorer its shared one, the distributed
  // coordinator its union of the workers' reports; a distributed worker's
  // own table is not reported.
  bool table_saturated = false;
  // Work-distribution statistics.  The serial explorer is one job and never
  // steals; the parallel explorer counts every schedule-prefix job its
  // stack-splitting created and every job claimed by a worker other than
  // its donor.
  //
  // Aggregation contract (in-process AND distributed runs share one merge,
  // src/check/job_ledger.h, so they agree by construction):
  //   - executions/exhausted/violation/witness replay serial accounting
  //     over the lexicographically sorted job regions - bit-identical to
  //     the serial engine with dedupe off, at any worker count.
  //   - jobs counts every record created; steals counts records claimed
  //     away from their donor, so steals <= jobs - 1 always.
  //   - replay_steps_saved sums over every record whose walk completed,
  //     including regions past the merge's return point: it describes work
  //     performed, not work serially accounted, and legitimately varies
  //     with split points.
  std::size_t jobs = 0;
  std::size_t steals = 0;
  // Steps the walks did not replay because they restored a branch node's
  // checkpoint instead of rebuilding the world (src/check/explore_core.h):
  // each restore saves the node's schedule length.  Summed over every
  // record whose walk completed: work performed, not work serially
  // accounted.  0 for worlds that take heap memory in their build
  // or steps, which are always replayed.
  std::uint64_t replay_steps_saved = 0;
  // Graceful-degradation summary (parallel explorer only; the serial
  // explorer propagates exceptions and has no wall clock).  `error` carries
  // the message of a worker job that kept throwing past its retry budget;
  // `timed_out` means the wall-clock limit cut the search.  Either way the
  // counts above cover the lexicographic prefix of the tree that *was*
  // explored, and exhausted is false.
  std::optional<std::string> error;
  bool timed_out = false;

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
