#include "src/check/explore_core.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/check/state_table.h"
#include "src/util/pool.h"

namespace revisim::check::detail {
namespace {

struct Frame {
  std::vector<runtime::ProcessId> choices;  // entries available at this depth
  std::size_t next = 0;                     // next choice to try
  // Whether this node's checkpoint is on the arena's checkpoint stack.
  bool saved = false;
};

// Whether this binary routes the global operator new through the library's
// counting replacement (a program may replace it again; then the count
// stays put and no checkpoint can be trusted).
bool heap_is_counted() {
  static const bool counted = [] {
    const std::uint64_t before = util::heap_allocations();
    ::operator delete(::operator new(1));
    return util::heap_allocations() != before;
  }();
  return counted;
}

// One watched call: a build, step, fingerprint or verdict of the world.
// Inside it the capture window is open, so the world's ordinary heap
// containers come from the arena and are rewound with it; what the arena
// does not serve (over-aligned or oversized memory) still moves the heap
// counter, and then the walk stops rewinding in place.  A guard, so the
// window also closes when the call throws.
class Watch {
 public:
  explicit Watch(bool& in_place) noexcept
      : in_place_(in_place), mark_(util::heap_allocations()) {}
  ~Watch() {
    if (util::heap_allocations() != mark_) {
      in_place_ = false;
    }
  }
  Watch(const Watch&) = delete;
  Watch& operator=(const Watch&) = delete;

 private:
  util::CaptureWindow window_;
  bool& in_place_;
  std::uint64_t mark_;
};

}  // namespace

void append_node_choices(const std::vector<runtime::ProcessId>& runnable,
                         std::size_t crashes_used, std::size_t max_crashes,
                         std::optional<runtime::ProcessId> prev,
                         std::vector<runtime::ProcessId>& out) {
  out.assign(runnable.begin(), runnable.end());
  if (crashes_used >= max_crashes) {
    return;
  }
  runtime::ProcessId min_target = 0;
  if (prev && runtime::is_crash_entry(*prev)) {
    min_target = runtime::crash_entry_target(*prev) + 1;
  }
  for (runtime::ProcessId pid : runnable) {
    if (pid >= min_target) {
      out.push_back(runtime::make_crash_entry(pid));
    }
  }
}

SubtreeResult explore_job(
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    const std::vector<runtime::ProcessId>& prefix,
    const SubtreeOptions& options, const AbortProbe& abort, JobContext* ctx) {
  SubtreeResult res;
  const std::size_t cap = std::max<std::size_t>(options.max_executions, 1);

  // Transposition table: shared when the caller supplies one (the parallel
  // explorer), private otherwise.
  std::optional<StateTable> own_table;
  StateStore* table = nullptr;
  if (options.dedupe_states) {
    table = options.table;
    if (table == nullptr) {
      own_table.emplace(StateTable::Options{.audit = options.dedupe_audit});
      table = &*own_table;
    }
  }

  std::vector<runtime::ProcessId> schedule = prefix;
  schedule.reserve(std::max(options.max_steps, prefix.size()));

  // Crash entries in `schedule`, maintained incrementally (the pre-rework
  // engine recounted the whole schedule at every node).
  std::size_t crashes = static_cast<std::size_t>(
      std::count_if(schedule.begin(), schedule.end(),
                    [](runtime::ProcessId e) {
                      return runtime::is_crash_entry(e);
                    }));
  auto sched_push = [&](runtime::ProcessId e) {
    crashes += runtime::is_crash_entry(e) ? 1 : 0;
    schedule.push_back(e);
  };
  auto sched_pop = [&] {
    crashes -= runtime::is_crash_entry(schedule.back()) ? 1 : 0;
    schedule.pop_back();
  };
  auto sched_replace_back = [&](runtime::ProcessId e) {
    crashes -= runtime::is_crash_entry(schedule.back()) ? 1 : 0;
    crashes += runtime::is_crash_entry(e) ? 1 : 0;
    schedule.back() = e;
  };

  // Frames cover local depths only (schedule[prefix.size() + i]).  The frame
  // vector never shrinks, so `choices` buffers keep their capacity across
  // backtracks and steady-state exploration allocates nothing per node.
  std::vector<Frame> stack;
  std::size_t depth = 0;

  // The world lives in this thread's arena, so every branch node's state is
  // pushed onto the arena's checkpoint stack at expansion and copied back on
  // backtrack (src/util/pool.h).  That is sound only while the world holds
  // no heap memory, so every call into the world - build, step, fingerprint
  // and verdict - is a Watch: once one of them reaches the heap, `in_place`
  // drops and the rest of the walk rebuilds and replays instead.
  util::ArenaScope arena;
  bool in_place = arena.active() && heap_is_counted();
  auto step = [&](ExplorableWorld& w, runtime::ProcessId entry) {
    Watch watch(in_place);
    runtime::apply_schedule_entry(w.scheduler(), entry);
  };

  // A fresh world that has executed schedule[0..len).
  auto world_at = [&](std::size_t len) {
    std::unique_ptr<ExplorableWorld> w;
    {
      Watch watch(in_place);
      w = factory();
    }
    if (!options.record_traces) {
      w->scheduler().set_recording(false);
    }
    for (std::size_t i = 0; i < len; ++i) {
      step(*w, schedule[i]);
    }
    return w;
  };

  std::unique_ptr<ExplorableWorld> world = world_at(prefix.size());

  // Canonical-state callback for collision audit; one std::function serves
  // every node of the walk.  The claim may come after the node's first step
  // (see the loop), so an auditing walk renders each node's state before
  // anything moves the world, and the callback returns that text.
  const bool audit = table != nullptr && table->audit();
  std::string node_text;
  std::function<std::string()> canonical;
  if (audit) {
    canonical = [&node_text] { return node_text; };
  }

  // Offer the shallowest untried sibling suffix to the split hooks.  The
  // donated region is everything lexicographically after the donor's
  // remaining work within that frame's subtree, so the donor's region stays
  // contiguous - the invariant the deterministic merge needs.
  auto try_donate = [&] {
    for (std::size_t i = 0; i < depth; ++i) {
      Frame& fr = stack[i];
      if (fr.next >= fr.choices.size()) {
        continue;
      }
      const std::size_t node_len = prefix.size() + i;
      Donation d;
      d.prefix.assign(schedule.begin(),
                      schedule.begin() + static_cast<std::ptrdiff_t>(node_len));
      d.choices.assign(fr.choices.begin() + static_cast<std::ptrdiff_t>(fr.next),
                       fr.choices.end());
      if (ctx->split.take(d)) {
        fr.next = fr.choices.size();
        ++res.donations;
      }
      return;
    }
  };

  std::vector<runtime::ProcessId> runnable;
  for (;;) {
    // Consult the transposition table at every node strictly deeper than the
    // job root.  Claim-then-walk: the insert happens before the subtree is
    // walked, so a hit means an identical canonical state already roots a
    // walk (here or, with a shared table, in another worker): its subtree -
    // executions, verdicts and all - is a replay of that one, and it is
    // skipped without counting an execution or evaluating a verdict.
    //
    // The insert's first load is a miss into a table far larger than the
    // caches, so the slot is prefetched as soon as the fingerprint is known,
    // and the insert (`claim`) waits until the node's own work is done: a
    // leaf's runnable set, or an interior node's choices, checkpoint and
    // first step.  A pruned interior node undoes that work, and counts
    // none of it.
    const bool consult = table != nullptr && schedule.size() > prefix.size();
    util::Fingerprint fp;
    if (consult) {
      {
        Watch watch(in_place);
        fp = world->fingerprint();
      }
      table->prefetch(fp);
      if (audit) {
        node_text = world->canonical_state();
      }
    }
    auto claim = [&] { return !consult || table->insert(fp, canonical); };
    world->scheduler().runnable_into(runnable);
    const bool complete = runnable.empty();
    const bool root_interior = schedule.size() == prefix.size() &&
                               ctx != nullptr && ctx->root_choices != nullptr;
    bool count_execution = false;
    bool pruned = false;
    if (!root_interior &&
        (complete || schedule.size() >= options.max_steps)) {
      pruned = !claim();
      count_execution = !pruned;
    } else {
      // Expand.
      if (depth == stack.size()) {
        stack.emplace_back();
      }
      Frame& f = stack[depth];
      if (depth == 0 && ctx != nullptr && ctx->root_choices != nullptr) {
        // A donated job: the split node's untried choices, verbatim.  The
        // donor already expanded this node, so leaf/table checks are skipped
        // above (root_interior) - by construction it branches.
        f.choices.assign(ctx->root_choices->begin(), ctx->root_choices->end());
      } else {
        std::optional<runtime::ProcessId> prev;
        if (!schedule.empty()) {
          prev = schedule.back();
        }
        append_node_choices(runnable, crashes, options.max_crashes, prev,
                            f.choices);
      }
      // Save the node, then take its first choice before the claim: the
      // step hides the table's miss.  On a prune the walk backtracks from
      // here, and rewinding to an earlier branch node undoes the step.
      const bool save = in_place && f.choices.size() > 1;
      f.saved = save && arena.push_checkpoint();
      sched_push(f.choices[0]);
      step(*world, schedule.back());
      pruned = !claim();
      if (pruned) {
        sched_pop();
        if (f.saved) {
          arena.pop_checkpoint();
          f.saved = false;
        }
      } else {
        if (save && !f.saved) {
          in_place = false;  // a full checkpoint stack, like the heap
        }
        f.next = 1;
        ++depth;
        // One cheap steal poll per node expansion: donate the shallowest
        // untried sibling suffix (possibly this very frame's) when
        // another worker is hungry.
        if (ctx != nullptr && ctx->split.want && ctx->split.want()) {
          try_donate();
        }
        continue;
      }
    }
    if (pruned) {
      ++res.subtrees_pruned;
    }
    // Backtrack: every expansion continued above.
    if (count_execution) {
      ++res.executions;
      if (options.live_executions != nullptr) {
        options.live_executions->store(res.executions,
                                       std::memory_order_relaxed);
      }
      std::optional<std::string> v;
      {
        Watch watch(in_place);
        v = world->verdict(complete);
      }
      if (v) {
        // A copy, on the heap: the verdict's string is arena memory, and the
        // result crosses threads.
        res.violation.emplace(*v);
        res.witness = schedule;
        res.violation_index = res.executions;
        break;
      }
    }
    // Backtrack to the deepest frame with an untried choice.  The order
    // matters for cap accounting: a walk that ends exactly at the cap with
    // nothing left to explore is exhausted, not truncated.
    while (depth > 0 &&
           stack[depth - 1].next >= stack[depth - 1].choices.size()) {
      --depth;
      sched_pop();
      if (stack[depth].saved) {
        arena.pop_checkpoint();
        stack[depth].saved = false;
      }
    }
    if (depth == 0) {
      break;
    }
    if (res.executions >= cap || (abort && abort())) {
      res.fully_explored = false;
      break;
    }
    Frame& f = stack[depth - 1];
    sched_replace_back(f.choices[f.next++]);
    // Bring the world back to this node, then take its next choice.  While
    // the walk is in place, every branch node on the stack was saved, and
    // this node's checkpoint is the top one.
    if (in_place) {
      // The world object keeps its address, so `world` still points at it.
      arena.restore_checkpoint();
      res.replay_steps_saved += schedule.size() - 1;
    } else {
      world.reset();  // the walk holds one world at a time
      world = world_at(schedule.size() - 1);
    }
    if (f.saved && f.next == f.choices.size()) {
      arena.pop_checkpoint();  // the node will not be visited again
      f.saved = false;
    }
    step(*world, schedule.back());
  }
  if (table != nullptr) {
    res.states_seen = table->states();
    res.table_saturated = table->saturated();
  }
  // Arena memory still live once the world is gone was made in a build,
  // step or fingerprint and kept outside the world, where a restore could
  // have handed it out again: refuse the walk rather than trust it.  The
  // arena keeps such memory valid until it is freed.
  world.reset();
  if (arena.active() && arena.live_bytes() > arena.carried_bytes()) {
    throw std::runtime_error(
        "explore: " +
        std::to_string(arena.live_bytes() - arena.carried_bytes()) +
        " bytes of arena memory made by the world's build, steps, "
        "fingerprints or verdicts outlived the world");
  }
  return res;
}

SubtreeOptions subtree_options(const ScheduleExploreOptions& options) {
  SubtreeOptions sub;
  sub.max_steps = options.max_steps;
  sub.max_executions = options.max_executions;
  sub.record_traces = options.record_traces;
  sub.max_crashes = options.max_crashes;
  sub.dedupe_states = options.dedupe_states;
  sub.dedupe_audit = options.dedupe_audit;
  return sub;
}

ScheduleExploreResult whole_tree_result(SubtreeResult&& sr) {
  ScheduleExploreResult res;
  res.executions = sr.executions;
  res.exhausted = sr.fully_explored;
  res.violation = std::move(sr.violation);
  res.witness = std::move(sr.witness);
  res.states_seen = sr.states_seen;
  res.subtrees_pruned = sr.subtrees_pruned;
  res.table_saturated = sr.table_saturated;
  res.jobs = 1;
  res.replay_steps_saved = sr.replay_steps_saved;
  return res;
}

}  // namespace revisim::check::detail
