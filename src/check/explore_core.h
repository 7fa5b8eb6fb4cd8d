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
// Cost model.  A job builds its world once and then walks it in place.
// The world lives in this thread's arena (src/util/pool.h), at a fixed
// address, so the engine pushes a copy of the arena's used bytes onto the
// arena's checkpoint stack at every node with a second choice to come back
// to, and on backtrack copies the node's checkpoint back instead of
// rebuilding the world from the factory and replaying the schedule prefix.
// No pointer moves, so none needs fixing.  A walk of a tree with E leaves,
// N branch nodes and depth <= D then costs one build, one step per tree
// edge, N saves and E - 1 restores, where rebuild-and-replay costs E builds
// and up to E*D steps (DESIGN.md finding 7: that bound holds for explorers
// that copy a world to a new place, and restoring in place beats it).
// Builds, steps, fingerprints and verdicts run inside the arena's capture
// window, so the containers and objects a world makes there are arena
// memory and walk in place.  Memory the arena does not serve - an
// over-aligned new, or a block the arena cannot fit - reaches the heap
// counter, which the engine watches around those calls; once it moves (or the checkpoint
// stack is full), the rest of the job rebuilds and replays.  Results are
// identical either way, only the cost differs; the steps restores saved
// are reported as replay_steps_saved.  Arena memory still live once the
// job has destroyed its world escaped it, and fails the job.  A job still
// starts from a fresh build plus a replay of its prefix, so jobs stay pure
// (prefix, choices) values.  The other
// constant-factor levers: worlds run with trace recording off (Scheduler
// fast mode); the runnable() buffer and the DFS frames are reused instead
// of reallocated per node; coroutine frames come from the arena
// (src/runtime/task.h), and H-log digests are sealed only when a
// fingerprint asks for them (src/augmented/hstate.h).
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
  // distributed worker: its session table, which also reports sightings).
  // Null with dedupe_states set means the walk creates a private table for
  // its own lifetime.
  StateStore* table = nullptr;
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
// list (for donated jobs; never empty - an empty list means the seed job,
// and callers pass null for it) and the split hooks.
struct JobContext {
  const std::vector<runtime::ProcessId>* root_choices = nullptr;
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
  // Whether the consulted table had saturated when the walk ended (a
  // shared table's global state; false with dedupe off).
  bool table_saturated = false;
  std::size_t donations = 0;                 // jobs split off via SplitHooks
  // Steps a replay would have re-applied at the nodes this walk restored
  // from a checkpoint instead (the node's schedule length, per restore).
  std::uint64_t replay_steps_saved = 0;
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
