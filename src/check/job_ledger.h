// The job ledger shared by the in-process work-stealing explorer
// (parallel_explore.cpp) and the distributed coordinator
// (src/dist/coordinator.cpp).  Both split the schedule tree into
// prefix-keyed jobs whose regions are contiguous lexicographic intervals
// (key_less); the ledger owns every job record and makes each bookkeeping
// decision over them in exactly one place:
//   - claim order: the lex-least pending job (claim);
//   - the cap bound: live execution counters of lex-earlier records
//     lower-bound the serial count before a region (bound_before);
//   - the pre-skip and abort test: a job whose result the merge provably
//     cannot read - cancelled, past a secured lex-earlier violation, or at
//     or past the cap bound (unreadable);
//   - the lex-smallest violation cut-off (complete);
//   - a donation as a child record with genealogy (donate);
//   - retry (requeue_or_fail): a failed or lost attempt re-queues its job,
//     cancels every region the attempt donated (recursively) and re-runs
//     with dedupe off; past the retry budget the job fails;
//   - resume (readmit): which journaled records a resumed run keeps;
//   - the deterministic key-sorted merge (merge).
//
// One rule decides both retry and resume: a re-run walks its job's FULL
// original region, which is the job's own remaining region plus the
// regions of everything it ever donated, recursively.  The regions its
// lost attempt donated would therefore be counted twice: they are
// cancelled (pending ones never run, running ones are unreadable and
// abort, finished ones are excluded from the merge), and on resume the
// descendants of a job that re-runs are discarded.
//
// Why a re-run drops dedupe.  With dedupe on, visited-state tables - the
// in-process engine's shared StateTable, a distributed worker's session
// table - outlive attempts: they hold claims of the failed attempt and of
// the cancelled regions whose subtrees no merged record walked.  A deduped
// re-run would prune at those claims and skip a region nobody covers (a
// missed violation on an exhausted search).  The dedupe-off re-run, and
// every region it donates, walks its whole region, so every such claim is
// re-covered - including claims another job already pruned against.
//
// The merge sorts the records by region key and replays the serial
// explorer's accounting over them in order, so executions / exhausted /
// violation / lex-smallest witness come out bit-identical to the serial
// engine no matter how the regions were scheduled, stolen or shipped.
// Counter aggregation contract (the merged ScheduleExploreResult):
//
//   executions, exhausted, violation, witness
//     Serial replay accounting: walk the sorted records accumulating
//     executions, return at the first violation whose serial index fits
//     under the cap, truncate at the cap.  Bit-identical to the serial
//     engine (with dedupe off); independent of job decomposition.
//
//   replay_steps_saved
//     Summed over every record that COMPLETED its walk - including records
//     lexicographically past the merge's return point.  It describes work
//     actually performed, not work serially accounted, and depends on the
//     decomposition (a job replays its prefix from a fresh build, so where
//     the splits fall decides what restores save).
//
//   jobs, steals
//     Global properties of the run: jobs = every record created, steals =
//     records claimed by a worker other than their donor (so steals <=
//     jobs - 1).
//
//   states_seen, subtrees_pruned
//     Owned by the caller's shared/sharded state store.  The merge only
//     sums per-record subtrees_pruned as a default for callers without a
//     global table.
//
// The ledger is single-threaded: the in-process engine calls it under its
// mutex, the coordinator from its event loop.  The one exception is
// Job::live, an atomic the in-process walk publishes lock-free.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/check/explore_core.h"
#include "src/check/model_check.h"

namespace revisim::check::detail {

// How often a running walk consults its engine about aborting: on every
// kProbeInterval-th execution (the first included).  The probe runs after
// every execution, and consulting costs more than a small-step execution
// does - the in-process engine takes the pool mutex and walks the ledger
// (unreadable), a distributed worker drains its socket with a recv syscall
// - while the answer is almost always "keep going".  A late abort only
// walks executions the merge never reads, so the cadence trades at most
// kProbeInterval - 1 wasted executions per abort for that toll; steal and
// credit latency stay at a few executions.
inline constexpr std::uint64_t kProbeInterval = 16;

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

class JobLedger {
 public:
  struct Job {
    enum State : int { kPending, kRunning, kDone, kFailed, kAborted };

    std::uint64_t id = 0;
    std::vector<runtime::ProcessId> key;  // prefix + first choice; key_less
    // The region: prefix and untried choices (empty = all, the seed job).
    Donation spec;
    std::size_t donor = 0;  // worker that split this job off
    bool donated = false;   // false for the seed and for resumed jobs
    State state = kPending;
    std::size_t failures = 0;  // failed or lost attempts so far
    // Re-run of a failed deduped attempt (or a region such a re-run
    // donated): walk with dedupe off.
    bool no_dedupe = false;
    // An ancestor's re-run re-covers this region: excluded from the merge
    // and from every cap bound.
    bool cancelled = false;
    Job* parent = nullptr;
    std::vector<Job*> children;  // across every attempt
    // Executions counted so far (never more than the region's serial
    // total); the cap bound sums these.
    std::atomic<std::uint64_t> live{0};
    SubtreeResult result;  // valid once kDone
    std::string error;     // valid once kFailed
  };

  // `cap` is the run's execution cap; `dedupe` says whether re-runs must
  // switch dedupe off.
  JobLedger(std::uint64_t cap, std::size_t job_retries, bool dedupe);

  // Adds a pending record with a caller-chosen id: the seed job.
  Job& insert(std::uint64_t id, Donation spec, Job* parent);

  // Readmits a job of a prior run's journal, called in the journal's
  // creation order (every parent before its children).  The job is
  // admitted iff it has no parent, or its parent was readmitted and is
  // done; otherwise an ancestor re-runs its full original region, which
  // re-covers this one, and the call returns null.  An admitted job with
  // `done` non-null reuses that completed walk as is; without it, it
  // re-runs from `spec`.
  Job* readmit(std::uint64_t id, std::optional<std::uint64_t> parent,
               Donation spec, const SubtreeResult* done);

  // Claims the lex-least pending job for `worker`, first marking aborted
  // every lex-earlier pending job that is unreadable.  Sets `budget` to the
  // job's execution cap (the run cap minus the bound before it).  Null
  // when nothing is pending.
  Job* claim(std::size_t worker, std::uint64_t& budget);

  bool unreadable(const Job& job) const;

  // Records a donation of `parent`'s running attempt as a pending child.
  // Null (the donor keeps the work) when `parent` is cancelled: its region
  // is already re-covered by an ancestor's re-run.
  Job* donate(Job& parent, Donation&& d, std::size_t worker);

  // A walk returned.  Partial walks (abort, cap, deadline) are stored too:
  // the merge either never reads them or reports their truncation.  False
  // when the job was cancelled meanwhile and the result is discarded.
  bool complete(Job& job, SubtreeResult&& result);

  // An attempt threw or its worker was lost.  Returns the descendants this
  // call cancelled (for journal tombstones and abort credits).
  std::vector<Job*> requeue_or_fail(Job& job, const std::string& why);

  // The deterministic merge over every non-cancelled record, sorted by
  // key_less (the contract is at the top of this file).  A record that
  // never ran, or ran only partly, at or before the merge's return point
  // means work the run could not perform: with `unfinished_error` empty
  // that is a wall-clock truncation (timed_out); nonempty, it becomes the
  // partial summary's error - the coordinator's every-worker-lost path.  A
  // nonempty `unfinished_error` also poisons a run whose records all
  // resolved.
  ScheduleExploreResult merge(const std::string& unfinished_error) const;

  // Keeps `id` from ever being assigned to a new record (a resumed run's
  // journal may tombstone ids that no record carries any more).
  void reserve_id(std::uint64_t id) { next_id_ = std::max(next_id_, id + 1); }

  std::size_t pending() const { return pending_; }
  std::size_t running() const { return running_; }
  std::uint64_t next_id() const { return next_id_; }

 private:
  std::uint64_t bound_before(const std::vector<runtime::ProcessId>& key) const;
  void cancel_descendants(Job& job, std::vector<Job*>& out);

  std::uint64_t cap_;
  std::size_t job_retries_;
  bool dedupe_;
  std::vector<std::unique_ptr<Job>> jobs_;  // append-only
  std::uint64_t next_id_ = 0;
  std::size_t pending_ = 0;
  std::size_t running_ = 0;
  std::size_t steals_ = 0;
  bool have_violation_ = false;
  std::vector<runtime::ProcessId> violation_key_;
};

}  // namespace revisim::check::detail
