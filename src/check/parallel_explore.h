// Parallel schedule exploration by work stealing.  One job - the whole tree
// - seeds a worker pool; a busy worker polls a hunger hint once per node
// expansion and, when another worker is starving, splits its own DFS stack
// by donating all untried choices of its shallowest branching frame
// (explore_core's SplitHooks).  A donated job is identified by its schedule
// prefix plus its first choice and carries the donor's remaining choice
// list for that node; the thief rebuilds its root world from the factory
// and replays the prefix.  Jobs are claimed lexicographically-earliest-
// first.
//
// Splitting the shallowest frame keeps every job's region a contiguous
// lexicographic interval (the donated suffix is everything after the
// donor's remaining work at that node), so sorting finished jobs by key and
// replaying the serial explorer's accounting over them in order
// reconstructs the serial result exactly.
//
// Guarantees, independent of thread count, steal timing, and worker
// interleaving:
//   * `executions`, `exhausted`, `violation` and `witness` are bit-identical
//     to the serial explore_schedules on the same factory and options -
//     including under a max_executions cap, whose accounting is replayed in
//     lexicographic order during the merge;
//   * the reported witness is the lexicographically smallest violating
//     schedule (identical to the serial explorer's DFS-first violation).
//
// Job bookkeeping - claim order, cap bound, pre-skip, violation cut-off,
// donation records, retry and the merge hand-off - lives in the JobLedger
// (job_ledger.h) shared with the distributed coordinator; this engine
// drives it under one mutex.  Cap coupling: each job publishes a live
// execution counter; the sum over lexicographically earlier jobs
// lower-bounds the serial execution count before a job's region, so capped
// searches shrink each job's local cap at claim time and abort jobs whose
// results the merge provably cannot read (bound >= cap, or a violation
// already secured in an earlier region).  A running walk asks the ledger
// only on every kProbeInterval-th execution (job_ledger.h), the cadence the
// distributed worker uses too, so the walk itself never contends for the
// mutex; an abort lands at most kProbeInterval - 1 executions late, all of
// them in a region the merge does not read.
//
// With base.dedupe_states set, all workers share one lock-free
// transposition table (state_table.h) and the guarantee deliberately
// weakens: which worker first claims a shared state depends on
// interleaving, so `executions`, `states_seen`, `subtrees_pruned` and the
// reported witness may differ run to run and from the serial deduped
// explorer.  What is preserved is the violation-found / violation-free
// outcome on uncapped searches: the table's CAS insert is the
// claim-then-walk handshake, every claimed state's subtree is walked by its
// claiming worker, and `states_seen` cannot exceed the serial count on
// exhausted searches (each distinct state is claimed exactly once).
//
// Thread counts and the one-core reality.  The worker count is clamped to
// the hardware concurrency unless `oversubscribe` is set: extra threads on
// saturated cores cannot run subtrees faster, they only interleave them
// (the pre-rework frontier-split explorer lost 5x to exactly that).  Tests
// set `oversubscribe` to force real thread interleavings - steals,
// shared-table races - on any machine.  One worker (`threads == 1`, or a
// clamp to one core) runs the ledger on the calling thread: nobody is ever
// hungry, so it is one job walked by the serial engine, with no thread
// spawn and no serial probe.
//
// The factory is invoked concurrently from worker threads and must be
// thread-safe; worlds it returns must not share mutable state.
//
// Graceful degradation.  A job that throws is re-queued, up to
// `job_retries` times: the re-run walks the job's whole region again, so
// every region the failed attempt donated is cancelled (recursively), and
// with dedupe on the re-run - and everything it donates - walks with
// dedupe off, because the shared table holds claims of the failed attempt
// and of the cancelled regions that no merged record walked (job_ledger.h
// has the argument).  Past the budget the run degrades to a partial
// summary (`error` set, exhausted false) covering the lexicographic prefix
// merged before the failed job.  A positive `time_limit` bounds the wall
// clock: running jobs abort at their next probe, pending jobs stay
// unclaimed, and the merge returns a partial summary with `timed_out` set.
#pragma once

#include <chrono>

#include "src/check/model_check.h"

namespace revisim::check {

struct ParallelExploreOptions {
  ScheduleExploreOptions base{};
  // Worker threads; 0 means std::thread::hardware_concurrency().  1 runs
  // one job on the calling thread: the serial walk under the job ledger.
  std::size_t threads = 0;
  // Spawn `threads` workers even beyond the hardware concurrency.  Off by
  // default: oversubscribed workers add interleaving overhead without
  // adding throughput.  Tests use it to force steals deterministically of
  // the core count.
  bool oversubscribe = false;
  // Re-runs of a job whose exploration throws.  Replay is deterministic, so
  // retries recover only transient failures (resource exhaustion); a
  // deterministic throw exhausts the budget and the run degrades to a
  // partial summary with `error` set.
  std::size_t job_retries = 2;
  // Serial probe: before spawning any thread, run the serial engine for up
  // to this many executions.  If that already settles the search - the tree
  // is exhausted, a violation is found (serial DFS order makes it the
  // lex-smallest), or the probe reached the caller's own cap - the probe's
  // result is returned outright; otherwise it is discarded and the pool
  // runs as before.  Thread spawn plus shared-table synchronization costs
  // far more than a small tree costs to walk, which made parallel-4 over
  // 10x slower than parallel-2 on heavily-deduped instances whose whole
  // deduped tree fits in a few hundred executions.  0 disables the probe;
  // a one-worker run never probes.
  std::size_t serial_probe_executions = 1024;
  // Wall-clock budget; zero means unlimited.
  std::chrono::milliseconds time_limit{0};
};

ScheduleExploreResult parallel_explore_schedules(
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    const ParallelExploreOptions& options = {});

}  // namespace revisim::check
