// Deterministic key-sorted merge shared by the in-process work-stealing
// explorer (src/check/parallel_explore.cpp) and the distributed coordinator
// (src/dist/coordinator.cpp).  Both reduce a run to prefix-identified jobs
// whose regions partition the schedule tree into contiguous lexicographic
// intervals; the merge sorts the job records by region key and replays the
// serial explorer's accounting over them in order, so executions /
// exhausted / violation / lex-smallest witness come out bit-identical to
// the serial engine no matter how the regions were scheduled, stolen or
// shipped.  Keeping one implementation is what makes the in-process and
// distributed explorers agree by construction.
//
// Counter aggregation contract (the merged ScheduleExploreResult):
//
//   executions, exhausted, violation, witness
//     Serial replay accounting: walk the sorted records accumulating
//     executions, return at the first violation whose serial index fits
//     under the cap, truncate at the cap.  Bit-identical to the serial
//     engine (with dedupe off); independent of job decomposition.
//
//   por_skipped, dependent_wakeups, footprint_bytes,
//   dedupe_disabled_adaptively
//     Summed (|| for the flag) over every record that COMPLETED its walk -
//     including records lexicographically past the merge's return point.
//     They describe work actually performed, not work serially accounted.
//     On an exhausted, undeduped, violation-free search the decomposition
//     is invisible: every node is expanded exactly once with an identical
//     sleep set, so por_skipped and dependent_wakeups equal the serial
//     values at any worker count (asserted in tests/dist_test.cpp).
//     footprint_bytes remains genuinely decomposition-dependent
//     telemetry (a thief captures its donated root's footprints again).
//
//   jobs, steals, states_seen, subtrees_pruned
//     Owned by the caller (they are global properties of the run, not of
//     any record): jobs = every record created, steals = records claimed
//     by a worker other than their donor (so steals <= jobs - 1), table
//     statistics from the shared/sharded store.  The merge only sums
//     per-record subtrees_pruned as a default for callers without a global
//     table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/explore_core.h"
#include "src/check/model_check.h"
#include "src/runtime/trace.h"

namespace revisim::check::detail {

// Lexicographic region order.  A job's key is its schedule prefix followed
// by its first choice - the lex-smallest schedule of its region, as a
// prefix.  Regions are disjoint contiguous intervals and a key that
// prefixes another belongs to the region that starts first (the donor's
// remaining work precedes everything it donates), so shorter-prefix-first
// lexicographic comparison is exactly serial DFS order.  Crash entries
// carry the top bit (runtime::make_crash_entry) and numerically sort after
// every step entry, matching append_node_choices' enumeration order.
bool key_less(const std::vector<runtime::ProcessId>& a,
              const std::vector<runtime::ProcessId>& b);

// One job record as the merge sees it.  Pointers alias the caller's
// storage; nothing is copied.
struct MergeJob {
  enum class State {
    kDone,        // walk completed (possibly a partial walk after an abort)
    kFailed,      // threw past its retry budget; `error` holds the message
    kUnfinished,  // never ran, or was pre-skipped as provably unreadable
  };

  const std::vector<runtime::ProcessId>* key = nullptr;
  State state = State::kUnfinished;
  const SubtreeResult* result = nullptr;  // valid when kDone
  const std::string* error = nullptr;     // valid when kFailed
};

// Sorts `jobs` by region key in place and merges them under the execution
// cap.  `attempts` is the per-job attempt budget (retries + 1), quoted in
// the kFailed error message.  A kUnfinished record at or before the merge's
// return point means work the run could not perform: with
// `unfinished_error` empty that is a wall-clock truncation (timed_out);
// nonempty, it becomes the partial summary's error - the distributed
// coordinator's every-worker-lost path.  jobs/steals/states_seen are left
// for the caller to overlay (see the contract above).
ScheduleExploreResult merge_job_results(std::vector<MergeJob>& jobs,
                                        std::uint64_t cap,
                                        std::size_t attempts,
                                        const std::string& unfinished_error);

// --- checkpoint-resume planning ---------------------------------------------
//
// A resumed run (src/dist/journal.h) replays the journaled job genealogy
// to decide what each recorded region contributes.  The invariant that
// makes this merge-exact: a job's original (prefix, choices) region equals
// its own remaining region plus the regions of everything it ever donated,
// recursively - so re-running an incomplete job from its original spec
// re-covers ALL its descendants, and those descendants (even completed
// ones) must be excluded or they would be double counted.

enum class ResumeAction : std::uint8_t {
  kReuse,    // done, all ancestors done: merge the journaled result as-is
  kRerun,    // not done, all ancestors done: re-run from the recorded spec
  kDiscard,  // an ancestor reruns; this region is re-covered by it
};

struct ResumeJob {
  std::uint64_t id = 0;
  bool has_parent = false;
  std::uint64_t parent = 0;
  bool done = false;
};

// One action per input job (same order).  A parent id that matches no job
// in the list - corruption an append-only journal cannot produce - is
// treated as an un-done ancestor, so the orphan is conservatively
// discarded rather than double counted.
std::vector<ResumeAction> plan_resume(const std::vector<ResumeJob>& jobs);

}  // namespace revisim::check::detail
