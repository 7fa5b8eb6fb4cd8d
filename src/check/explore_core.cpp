#include "src/check/explore_core.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "src/check/state_table.h"

namespace revisim::check::detail {
namespace {

struct Frame {
  std::vector<runtime::ProcessId> choices;  // entries available at this depth
  std::size_t next = 0;                     // next choice to try
  // POR only (unused, empty otherwise).  `fps` holds one footprint per
  // surviving choice, captured at expansion from the poised operations of
  // the node's world (crash entries: opaque); `sleep`/`sleep_fps` hold the
  // node's incoming sleep set.  A sleeping process's poised operation is
  // literally unchanged until it executes, so a footprint captured once at
  // this node stays valid for every later descent through it.
  std::vector<runtime::Footprint> fps;
  std::vector<runtime::ProcessId> sleep;
  std::vector<runtime::Footprint> sleep_fps;
  // Leading entries of `sleep` that count a dependent_wakeup when a
  // conflicting step drops them; entries past this are elder siblings
  // folded in by a donation, which the serial walk drops silently at this
  // frame (they only start counting once they survive a level deeper).
  std::size_t sleep_inherited = 0;
};

// Adaptive dedupe: evaluate the prune rate every this-many table lookups...
constexpr std::uint64_t kDedupeAdaptWindow = 4'096;
// ...and stop fingerprinting when fewer than 1-in-this-many lookups pruned.
constexpr std::uint64_t kDedupeAdaptFactor = 64;

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
  // `table` may be nulled mid-job by the adaptive kill-switch; final
  // statistics still come from the real table.
  StateStore* stats_table = table;
  std::uint64_t dedupe_lookups = 0;
  std::uint64_t dedupe_prunes = 0;

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

  // A fresh world that has executed schedule[0..len).
  auto world_at = [&](std::size_t len) {
    auto w = factory();
    if (!options.record_traces) {
      w->scheduler().set_recording(false);
    }
    for (std::size_t i = 0; i < len; ++i) {
      runtime::apply_schedule_entry(w->scheduler(), schedule[i]);
    }
    return w;
  };

  std::unique_ptr<ExplorableWorld> world = world_at(prefix.size());

  // Canonical-state callback for collision audit; captures the live world by
  // reference so one std::function serves every node of the walk.  Invoked
  // by the table only in audit mode.
  std::function<std::string()> canonical;
  if (table != nullptr && table->audit()) {
    canonical = [&world] { return world->canonical_state(); };
  }

  // POR: sleep set of the node the loop is about to process, computed on
  // descent from the parent frame's sleep set and already-explored sibling
  // choices.  Empty at the job root (a donated root uses ctx->root_sleep).
  std::vector<runtime::ProcessId> node_sleep;
  std::vector<runtime::Footprint> node_sleep_fps;

  // Sleep set of the child reached via frame choice k:
  //   { e in sleep(node) : indep(e, c_k) }  ++  { c_j : j < k, indep(c_j, c_k) }
  // in that order (the order is deterministic, which keeps the POR+dedupe
  // fingerprint mixing bit-identical between the serial walk and any
  // parallel decomposition).  A crash choice's footprint is opaque, so it
  // conflicts with everything: descending through a crash empties the sleep
  // set, and explored crash siblings never join it.
  auto compute_child_sleep = [&](const Frame& f, std::size_t k) {
    if (!options.por) {
      return;
    }
    node_sleep.clear();
    node_sleep_fps.clear();
    const runtime::Footprint& cfp = f.fps[k];
    for (std::size_t i = 0; i < f.sleep.size(); ++i) {
      if (runtime::footprints_conflict(f.sleep_fps[i], cfp)) {
        if (i < f.sleep_inherited) {
          ++res.dependent_wakeups;
        }
      } else {
        node_sleep.push_back(f.sleep[i]);
        node_sleep_fps.push_back(f.sleep_fps[i]);
      }
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (runtime::is_crash_entry(f.choices[j])) {
        continue;
      }
      if (!runtime::footprints_conflict(f.fps[j], cfp)) {
        node_sleep.push_back(f.choices[j]);
        node_sleep_fps.push_back(f.fps[j]);
      }
    }
  };

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
      if (options.por) {
        // Split-node sleep set, then the donor's explored siblings, in the
        // exact order compute_child_sleep would consider them.  Crash
        // entries are skipped: being dependent with everything, they could
        // never survive into a donated branch's sleep set anyway.
        d.sleep.assign(fr.sleep.begin(), fr.sleep.end());
        d.sleep_inherited = fr.sleep_inherited;
        for (std::size_t j = 0; j < fr.next; ++j) {
          if (!runtime::is_crash_entry(fr.choices[j])) {
            d.sleep.push_back(fr.choices[j]);
          }
        }
      }
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
    bool pruned = false;
    if (table != nullptr && schedule.size() > prefix.size()) {
      util::Fingerprint fp = world->fingerprint();
      if (options.por) {
        // Same state, smaller sleep set => strictly larger subtree, so the
        // sleep set is part of the node's identity: mix its entries (order
        // is deterministic, see compute_child_sleep) into the fingerprint.
        for (runtime::ProcessId e : node_sleep) {
          fp.lo ^= (static_cast<std::uint64_t>(e) + 0x9e3779b97f4a7c15ull) *
                   0xff51afd7ed558ccdull;
          fp.hi = fp.hi * 0xc4ceb9fe1a85ec53ull + fp.lo;
        }
      }
      // insert_at carries the node's DFS depth so pipelined stores (the
      // distributed async fingerprint service) can track speculation along
      // the current path; in-process tables ignore it.
      pruned = !table->insert_at(fp, schedule.size(), canonical);
      if (options.dedupe_adaptive) {
        dedupe_lookups++;
        dedupe_prunes += pruned ? 1 : 0;
        if (dedupe_lookups >= kDedupeAdaptWindow) {
          if (dedupe_prunes * kDedupeAdaptFactor < dedupe_lookups) {
            // The window closed at a loss: fingerprinting every node costs
            // more than the prunes it earns.  Stop consulting the table for
            // the rest of this job; claims already made stand (this walk
            // still explores everything it claimed, so racing workers that
            // pruned against those claims stay covered).
            table = nullptr;
            res.dedupe_disabled = true;
          }
          dedupe_lookups = 0;
          dedupe_prunes = 0;
        }
      }
    }
    world->scheduler().runnable_into(runnable);
    const bool complete = runnable.empty();
    const bool root_interior = schedule.size() == prefix.size() &&
                               ctx != nullptr && ctx->root_choices != nullptr;
    bool backtrack = false;
    bool count_execution = false;
    if (!root_interior &&
        (pruned || complete || schedule.size() >= options.max_steps)) {
      backtrack = true;
      count_execution = !pruned;
      if (pruned) {
        ++res.subtrees_pruned;
      }
    } else {
      // Expand.
      if (depth == stack.size()) {
        stack.emplace_back();
      }
      Frame& f = stack[depth];
      if (depth == 0 && ctx != nullptr && ctx->root_choices != nullptr) {
        // A donated job: the split node's untried choices, verbatim.  The
        // donor already expanded this node (and already sleep-filtered the
        // choices), so leaf/table checks are skipped above (root_interior) -
        // by construction it branches.
        f.choices.assign(ctx->root_choices->begin(), ctx->root_choices->end());
        if (options.por) {
          f.sleep.clear();
          f.sleep_fps.clear();
          f.sleep_inherited = ctx->root_sleep_inherited;
          if (ctx->root_sleep != nullptr) {
            for (runtime::ProcessId e : *ctx->root_sleep) {
              // Re-derive the donated entries' footprints from this job's
              // own root world: a sleeping process's poised operation is
              // unchanged, so these equal the donor's bit for bit.
              f.sleep.push_back(e);
              f.sleep_fps.push_back(world->scheduler().poised_footprint(e));
            }
          }
        }
      } else {
        std::optional<runtime::ProcessId> prev;
        if (!schedule.empty()) {
          prev = schedule.back();
        }
        append_node_choices(runnable, crashes, options.max_crashes, prev,
                            f.choices);
        if (options.por) {
          f.sleep.assign(node_sleep.begin(), node_sleep.end());
          f.sleep_fps.assign(node_sleep_fps.begin(), node_sleep_fps.end());
          // Every entry here survived a compute_child_sleep filter, so all
          // of them count as wakeups when dropped (elders included: they
          // became full sleepers the moment they survived a level).
          f.sleep_inherited = f.sleep.size();
          if (!f.sleep.empty()) {
            // Skip asleep choices: every schedule through them is a step
            // swap of one through an already-explored sibling.  (Crash
            // entries never match - sleep sets hold plain step entries.)
            std::size_t out = 0;
            for (std::size_t j = 0; j < f.choices.size(); ++j) {
              bool asleep = false;
              for (runtime::ProcessId e : f.sleep) {
                if (e == f.choices[j]) {
                  asleep = true;
                  break;
                }
              }
              if (asleep) {
                ++res.por_skipped;
              } else {
                f.choices[out++] = f.choices[j];
              }
            }
            f.choices.resize(out);
          }
        }
      }
      if (f.choices.empty()) {
        // Sleep-blocked interior node: everything enabled here is asleep.
        // The subtree is fully covered by earlier siblings, so backtrack
        // without counting an execution or evaluating a verdict.
        backtrack = true;
      } else {
        if (options.por) {
          f.fps.clear();
          auto& sched = world->scheduler();
          for (runtime::ProcessId e : f.choices) {
            runtime::Footprint fp =
                runtime::is_crash_entry(e)
                    ? runtime::Footprint::opaque_footprint()
                    : sched.poised_footprint(e);
            res.footprint_bytes += fp.byte_size();
            f.fps.push_back(fp);
          }
        }
        f.next = 1;
        ++depth;
        compute_child_sleep(f, 0);
        sched_push(f.choices[0]);
        // One cheap steal poll per node expansion: donate the shallowest
        // untried sibling suffix (possibly this very frame's) when another
        // worker is hungry.
        if (ctx != nullptr && ctx->split.want && ctx->split.want()) {
          try_donate();
        }
        runtime::apply_schedule_entry(world->scheduler(), schedule.back());
        continue;
      }
    }
    assert(backtrack);
    if (count_execution) {
      ++res.executions;
      if (options.live_executions != nullptr) {
        options.live_executions->store(res.executions,
                                       std::memory_order_relaxed);
      }
      if (auto v = world->verdict(complete)) {
        res.violation = std::move(v);
        res.witness = schedule;
        res.violation_index = res.executions;
        if (stats_table != nullptr) {
          res.states_seen = stats_table->states();
        }
        return res;
      }
    }
    // Backtrack to the deepest frame with an untried choice.  The order
    // matters for cap accounting: a walk that ends exactly at the cap with
    // nothing left to explore is exhausted, not truncated.
    while (depth > 0 &&
           stack[depth - 1].next >= stack[depth - 1].choices.size()) {
      --depth;
      sched_pop();
    }
    if (depth == 0) {
      if (stats_table != nullptr) {
        res.states_seen = stats_table->states();
      }
      return res;
    }
    if (res.executions >= cap || (abort && abort())) {
      res.fully_explored = false;
      if (stats_table != nullptr) {
        res.states_seen = stats_table->states();
      }
      return res;
    }
    Frame& f = stack[depth - 1];
    compute_child_sleep(f, f.next);
    sched_replace_back(f.choices[f.next++]);
    world.reset();  // the walk holds one world at a time
    world = world_at(schedule.size());
  }
}

SubtreeResult explore_subtree(
    const std::function<std::unique_ptr<ExplorableWorld>()>& factory,
    const std::vector<runtime::ProcessId>& prefix,
    const SubtreeOptions& options, const AbortProbe& abort) {
  return explore_job(factory, prefix, options, abort, nullptr);
}

SubtreeOptions subtree_options(const ScheduleExploreOptions& options) {
  SubtreeOptions sub;
  sub.max_steps = options.max_steps;
  sub.max_executions = options.max_executions;
  sub.record_traces = options.record_traces;
  sub.max_crashes = options.max_crashes;
  sub.dedupe_states = options.dedupe_states;
  sub.dedupe_audit = options.dedupe_audit;
  sub.dedupe_adaptive = options.dedupe_adaptive;
  sub.por = options.por;
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
  res.jobs = 1;
  res.por_skipped = sr.por_skipped;
  res.dependent_wakeups = sr.dependent_wakeups;
  res.footprint_bytes = sr.footprint_bytes;
  res.dedupe_disabled_adaptively = sr.dedupe_disabled;
  return res;
}

}  // namespace revisim::check::detail
