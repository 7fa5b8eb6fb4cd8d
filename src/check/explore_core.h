// Shared DFS engine behind explore_schedules and the parallel explorer.
//
// explore_job enumerates, in lexicographic (DFS preorder) schedule order,
// every execution whose schedule extends a given prefix - optionally
// restricted to an explicit list of first-branch choices at the prefix node
// (a donated stack suffix).  The serial explorer is the empty-prefix
// instance; the work-stealing parallel explorer runs one instance per job
// and lets busy instances *split their own stack* into new jobs through the
// SplitHooks.  Keeping a single engine is what makes the serial/parallel
// parity guarantee hold by construction.
//
// Cost model.  Coroutine worlds cannot be copied or rewound, so a world's
// lifetime covers exactly one root-to-leaf path and evaluating E executions
// of depth <= D necessarily costs E factory calls and up to E*D steps - the
// replay explorer meets that lower bound exactly (DESIGN.md finding 7):
// every backtrack rebuilds a fresh world from the factory and replays the
// schedule prefix.  What this engine adds are the constant-factor levers:
// worlds run with trace recording off (Scheduler fast mode), and the
// runnable() buffer and the DFS frames are reused instead of reallocated
// per node.  No warm checkpoint worlds are parked at branch nodes: finding
// 7 makes parking cost-neutral in steps at best, and it measured a net
// loss in wall clock (DESIGN.md finding 9).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/check/model_check.h"

namespace revisim::check {
class StateStore;
}  // namespace revisim::check

namespace revisim::check::detail {

struct SubtreeOptions {
  std::size_t max_steps = 64;            // depth bound, prefix included
  std::size_t max_executions = 500'000;  // execution cap (values < 1 act as 1)
  bool record_traces = false;            // leave Scheduler fast mode off?
  // Crash branching: at every node, besides one step per runnable process,
  // the walk also branches on "crash p here" for each runnable p while the
  // schedule holds fewer than `max_crashes` crash entries.  Crash entries
  // occupy schedule slots (they count toward max_steps) and sort after all
  // step entries, so crash-free schedules are enumerated first and the
  // witness stays the lexicographically smallest violating schedule.  0
  // disables crash branching and reproduces the crash-free explorer.
  std::size_t max_crashes = 0;
  // Transposition pruning: consult a visited-state table at every node
  // strictly deeper than the job root and skip subtrees rooted at states
  // already seen.  The insert is claim-then-walk: the fingerprint goes in
  // *before* the subtree is walked, so with a shared table a racing worker
  // observes the claim and prunes instead of re-exploring.  Verdict-
  // preserving by construction (equal states generate identical subtrees),
  // but `executions` and the reported witness may legitimately differ from
  // an undeduped walk - a violation first reached through a pruned
  // transposition is reported through the schedule that visited its state
  // first.  The job root itself is never consulted: it was claimed by
  // whoever arrived at it first (the donor, for stolen jobs; nobody, for
  // the global root), so a root check would make every job prune itself.
  bool dedupe_states = false;
  // Retain full canonical states and fail loudly on a 128-bit collision
  // (only read when this call creates its own table, i.e. `table == null`).
  bool dedupe_audit = false;
  // Shared visited-state store (parallel explorer: one StateTable; the
  // distributed worker: a remote-backed store).  Null with dedupe_states
  // set means the walk creates a private table for its own lifetime.
  StateStore* table = nullptr;
  // Adaptive dedupe kill-switch (a spent-vs-saved ledger over lookups):
  // fingerprinting every node is pure overhead on workloads whose states
  // are all distinct, so when a window of kDedupeAdaptWindow lookups closes
  // with a prune rate below 1/kDedupeAdaptFactor, the walk stops consulting
  // the table for the rest of the job and reports dedupe_disabled.  Claims
  // already inserted stand (claim-then-walk stays sound: this walk still
  // explores everything it claimed).  Requires dedupe_states.
  bool dedupe_adaptive = false;
  // Sleep-set partial-order reduction.  After the walk explores choice c at
  // a node, c joins the *sleep set* of every later sibling branch and stays
  // asleep down that branch until a step with a conflicting footprint
  // executes (footprint.h defines conflicts; crash entries are dependent
  // with everything, so they never sleep and executing one wakes all).  A
  // choice found asleep at its node is skipped - the schedules it leads to
  // are step-swap equivalent to already-explored ones - and a node whose
  // every enabled choice is asleep backtracks without counting an execution
  // or evaluating a verdict.  The lexicographically least representative of
  // every Mazurkiewicz trace is never pruned, so for trace-invariant
  // verdicts (any predicate of the final state) the verdict AND the
  // lex-smallest witness match the unreduced walk exactly.  Composes with
  // dedupe_states: the sleep set is mixed into the node fingerprint, since
  // the same state under a smaller sleep set roots a strictly larger
  // subtree.
  bool por = false;
  // Live execution counter, published after every counted execution.  The
  // parallel explorer sums these across lexicographically earlier jobs to
  // bound the serial execution count before a job - the cap coupling that
  // lets capped searches abort provably-unreadable work.
  std::atomic<std::uint64_t>* live_executions = nullptr;
};

// A donated stack suffix: all untried choices of the donor's shallowest
// branching frame, packaged as an independent job.  `prefix` is the path to
// the split node; `choices` are its untried schedule entries in DFS order
// (so the donated region is a contiguous lexicographic suffix of the
// donor's region - the invariant the deterministic merge rests on).  The
// thief rebuilds its root world from the factory and replays `prefix`.
struct Donation {
  std::vector<runtime::ProcessId> prefix;
  std::vector<runtime::ProcessId> choices;
  // POR only: the split node's sleep set followed by the donor's already-
  // explored sibling choices (crash entries excluded - they are dependent
  // with everything, so they could never survive into a child sleep set).
  // Pure pid values: a sleeping process's poised operation is untouched by
  // definition, so the thief re-derives each entry's footprint from its own
  // replayed root world, and the donated branches prune exactly as they
  // would have in the donor - the serial/parallel parity guarantee extends
  // to sleep sets by construction.
  std::vector<runtime::ProcessId> sleep;
  // How many leading entries of `sleep` are the split node's *inherited*
  // sleepers (the rest are the donor's explored elder siblings).  The serial
  // walk counts a dependent_wakeup only when a conflicting step drops an
  // inherited sleeper; a dependent elder is silently not added (it only
  // starts counting once it survives into a deeper frame).  The thief must
  // preserve that split or its wakeup count inflates past the serial one.
  std::size_t sleep_inherited = 0;
};

// Work-stealing hooks, polled once per node expansion.  `want` must be
// cheap (an atomic hint load); when it returns true the engine carves off
// the shallowest untried sibling suffix and offers it to `take`, which
// returns true to accept (the donor then skips those choices) or false to
// decline (the donor keeps them).
struct SplitHooks {
  std::function<bool()> want;
  std::function<bool(Donation&)> take;
};

// Per-job context beyond the plain options: an explicit first-branch choice
// list (for donated jobs) and the split hooks.
struct JobContext {
  const std::vector<runtime::ProcessId>* root_choices = nullptr;
  // POR only: Donation::sleep for this job's split node (null = empty).
  const std::vector<runtime::ProcessId>* root_sleep = nullptr;
  // Donation::sleep_inherited for root_sleep (wakeup-counting prefix).
  std::size_t root_sleep_inherited = 0;
  SplitHooks split;
};

struct SubtreeResult {
  std::size_t executions = 0;
  // False iff the cap (or an abort) truncated the walk while unexplored
  // schedules remained; a walk that ends exactly when the subtree does is
  // fully explored even if it ends at the cap.
  bool fully_explored = true;
  std::optional<std::string> violation;      // first violation in lex order
  std::vector<runtime::ProcessId> witness;   // its full schedule (with prefix)
  std::size_t violation_index = 0;           // 1-based execution count at it
  std::size_t subtrees_pruned = 0;           // transposition hits in this walk
  // Distinct states in the consulted table when the walk ended (a global
  // snapshot if the table was shared; 0 with dedupe off).
  std::size_t states_seen = 0;
  std::size_t donations = 0;                 // jobs split off via SplitHooks
  // POR: choices skipped because they were asleep (each is a whole subtree
  // of step-swap-equivalent schedules never walked).
  std::size_t por_skipped = 0;
  // POR: sleep entries dropped on descent because the chosen step's
  // footprint conflicted with theirs.
  std::size_t dependent_wakeups = 0;
  // POR: serialized bytes of the footprints captured at node expansions.
  std::uint64_t footprint_bytes = 0;
  // Adaptive dedupe stopped fingerprinting mid-job (prune rate too low).
  bool dedupe_disabled = false;
};

// The one translation between the public option/result structs and the
// engine's.  subtree_options copies every exploration option; callers
// running a job of a larger search then override the per-job fields
// (max_executions, table, live_executions).  whole_tree_result reports a
// walk from the root as a one-job search.
SubtreeOptions subtree_options(const ScheduleExploreOptions& options);
ScheduleExploreResult whole_tree_result(SubtreeResult&& sr);

// Polled between executions; returning true abandons the walk (the caller
// decides whether the partial result is usable).  Used by the parallel
// explorer to cancel subtrees that can no longer affect the merged outcome
// and to enforce the wall-clock limit.
using AbortProbe = std::function<bool()>;

// Full engine entry point.  `ctx` may be null (plain subtree walk).
SubtreeResult explore_job(
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    const std::vector<runtime::ProcessId>& prefix, const SubtreeOptions& options,
    const AbortProbe& abort = {}, JobContext* ctx = nullptr);

// Back-compat convenience: explore_job with no context.
SubtreeResult explore_subtree(
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    const std::vector<runtime::ProcessId>& prefix, const SubtreeOptions& options,
    const AbortProbe& abort = {});

// Appends to `out` the schedule entries available at a node whose runnable
// set is `runnable`: first one plain step entry per runnable process, then -
// when `crashes_used < max_crashes` - one crash entry per runnable process.
// Both the serial engine and the parallel explorer's split/donation path
// build choices through this, so crash-extended exploration keeps the
// serial/parallel parity guarantee by construction.
//
// Canonicalization: adjacent crashes commute (crashing p then q at one step
// boundary reaches the same state as q then p), so when the previous
// schedule entry `prev` is itself a crash entry, only crash targets larger
// than its target are offered.  Every crash *set* at a boundary is still
// reached - exactly once, in increasing-pid order.
void append_node_choices(const std::vector<runtime::ProcessId>& runnable,
                         std::size_t crashes_used, std::size_t max_crashes,
                         std::optional<runtime::ProcessId> prev,
                         std::vector<runtime::ProcessId>& out);

}  // namespace revisim::check::detail
