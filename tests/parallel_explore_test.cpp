// Parallel schedule exploration and explorer-core semantics on worlds whose
// schedule trees are known in closed form.
//
// Each ScriptWorld (tests/test_worlds.h) process performs a fixed number
// of writes, and every write appends the process id to a world-local order
// log, so a completed execution's log *is* its schedule.  Leaf counts are
// multinomial coefficients and a planted violation's DFS index is the
// lexicographic rank of its schedule - which pins down cap-boundary
// accounting, the lexicographically-smallest-witness guarantee, and
// bit-identical results across thread counts and steal timings.  Parallel
// runs set `oversubscribe` so real worker threads (and therefore real
// steals and shared-table races) happen even on a single-core machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/linearizer.h"
#include "src/check/model_check.h"
#include "src/check/parallel_explore.h"
#include "src/check/worlds.h"
#include "src/runtime/scheduler.h"
#include "tests/test_worlds.h"

namespace revisim {
namespace {

using aug::AugmentedSnapshot;
using check::ExplorableWorld;
using check::explore_schedules;
using check::parallel_explore_schedules;
using check::ParallelExploreOptions;
using check::ScheduleExploreOptions;
using check::ScheduleExploreResult;
using runtime::ProcessId;
using runtime::Scheduler;
using runtime::StepKind;
using runtime::Task;

using test_worlds::last_writer_factory;
using test_worlds::Schedule;
using test_worlds::script_factory;
using test_worlds::ScriptWorld;

// Two processes on one augmented snapshot: q2 runs a Block-Update then a
// Scan, q1 the same or only the Scan.  The verdict is the §3.3 linearizer
// over the object's history, which the object's own fingerprint covers (op
// log, own-component mirrors, H).
auto aug_mixed_factory(bool q1_updates) {
  return check::make_world_factory(q1_updates ? "aug-script:2,u0s,u0s"
                                              : "aug-script:2,s,u0s");
}

void expect_same(const ScheduleExploreResult& got,
                 const ScheduleExploreResult& want, const std::string& what) {
  EXPECT_EQ(got.executions, want.executions) << what;
  EXPECT_EQ(got.exhausted, want.exhausted) << what;
  EXPECT_EQ(got.violation, want.violation) << what;
  EXPECT_EQ(got.witness, want.witness) << what;
}

// --- cap accounting at the boundary (serial explorer) ---

TEST(ExploreCap, ExactlyAtTreeSizeIsExhausted) {
  // Two processes, two writes each: C(4,2) = 6 leaves.
  ScheduleExploreOptions opt;
  opt.max_executions = 6;
  auto res = explore_schedules(script_factory({2, 2}), opt);
  EXPECT_EQ(res.executions, 6u);
  EXPECT_TRUE(res.exhausted);  // the cap coincided with the end of the tree
  EXPECT_FALSE(res.violation);
}

TEST(ExploreCap, BelowTreeSizeTruncates) {
  ScheduleExploreOptions opt;
  opt.max_executions = 5;
  auto res = explore_schedules(script_factory({2, 2}), opt);
  EXPECT_EQ(res.executions, 5u);
  EXPECT_FALSE(res.exhausted);
}

TEST(ExploreCap, AboveTreeSizeIsExhausted) {
  ScheduleExploreOptions opt;
  opt.max_executions = 7;
  auto res = explore_schedules(script_factory({2, 2}), opt);
  EXPECT_EQ(res.executions, 6u);
  EXPECT_TRUE(res.exhausted);
}

TEST(ExploreCap, ViolationExactlyAtCapIsReported) {
  // Lex order of {0,0,1,1} schedules: 0011, 0101, 0110, 1001, 1010, 1100;
  // 0110 is the 3rd execution.
  const Schedule planted{0, 1, 1, 0};
  ScheduleExploreOptions opt;
  opt.max_executions = 3;
  auto res = explore_schedules(script_factory({2, 2}, {planted}), opt);
  ASSERT_TRUE(res.violation.has_value());
  EXPECT_EQ(res.executions, 3u);
  EXPECT_EQ(res.witness, planted);
}

TEST(ExploreCap, CapJustBeforeViolationTruncatesWithoutIt) {
  const Schedule planted{0, 1, 1, 0};
  ScheduleExploreOptions opt;
  opt.max_executions = 2;
  auto res = explore_schedules(script_factory({2, 2}, {planted}), opt);
  EXPECT_FALSE(res.violation);
  EXPECT_EQ(res.executions, 2u);
  EXPECT_FALSE(res.exhausted);
}

// --- explorer core: trace mode and the replay cost model ---

TEST(ExploreCore, RecordTracesDoesNotChangeResults) {
  const Schedule planted{1, 0, 0, 1, 0, 1, 1, 0};
  for (bool record : {false, true}) {
    ScheduleExploreOptions opt;
    opt.record_traces = record;
    auto res = explore_schedules(script_factory({3, 3, 2}), opt);
    EXPECT_EQ(res.executions, 560u) << record;  // 8! / (3!3!2!)
    EXPECT_TRUE(res.exhausted) << record;

    auto viol = explore_schedules(script_factory({4, 4}, {planted}), opt);
    ASSERT_TRUE(viol.violation.has_value()) << record;
    EXPECT_EQ(viol.witness, planted) << record;
    // Rank of 10010110 among {0,1}-sequences with four of each, plus one:
    // C(7,3) + C(4,1) + 1 + 1 = 41 smaller sequences.
    EXPECT_EQ(viol.executions, 42u) << record;
  }
}

// Forwards to a ScriptWorld and tallies worlds built, worlds alive at once,
// and - on destruction - the steps its scheduler ran, replayed prefix and
// live steps alike.  It holds an OffArena block from its build on, so the
// explorer never rewinds it in place.
struct BuildTally {
  std::size_t worlds = 0;
  std::size_t alive = 0;
  std::size_t peak_alive = 0;
  std::size_t steps = 0;
};

class TalliedWorld final : public ExplorableWorld {
 public:
  TalliedWorld(std::unique_ptr<ExplorableWorld> inner, BuildTally& tally)
      : inner_(std::move(inner)), tally_(tally) {
    ++tally_.worlds;
    tally_.peak_alive = std::max(tally_.peak_alive, ++tally_.alive);
  }
  ~TalliedWorld() override {
    --tally_.alive;
    tally_.steps += inner_->scheduler().total_steps();
  }

  Scheduler& scheduler() override { return inner_->scheduler(); }
  std::optional<std::string> verdict(bool complete) override {
    return inner_->verdict(complete);
  }
  void fingerprint_extra(util::StateSink& sink) override {
    inner_->fingerprint_extra(sink);
  }

 private:
  std::unique_ptr<ExplorableWorld> inner_;
  BuildTally& tally_;
  std::unique_ptr<test_worlds::OffArena> held_ =
      std::make_unique<test_worlds::OffArena>();
};

TEST(ExploreCore, SerialWalkMeetsTheReplayLowerBoundExactly) {
  // DESIGN.md finding 7: TalliedWorld holds memory the arena does not
  // serve, so the walk cannot rewind it in place and rebuilds and replays
  // it, and a replayed world covers one root-to-leaf path: E executions of
  // depth D
  // cost at least E factory calls and E*D steps.  The replay path must meet
  // that bound exactly - one world per execution, each replayed and stepped
  // to its leaf once, and only one alive at a time - so no hidden rebuild
  // (warm-world parking, re-replay) can creep back in.  A capped walk must
  // pay for exactly what it counts.
  for (std::size_t cap : {std::size_t{560}, std::size_t{100}}) {
    BuildTally tally;
    auto inner = script_factory({3, 3, 2});
    ScheduleExploreOptions opt;
    opt.max_executions = cap;
    auto res = explore_schedules(
        [&] { return std::make_unique<TalliedWorld>(inner(), tally); }, opt);
    EXPECT_EQ(res.executions, cap);
    EXPECT_EQ(res.exhausted, cap == 560u);
    EXPECT_EQ(tally.worlds, cap);
    EXPECT_EQ(tally.steps, cap * 8u);
    EXPECT_EQ(tally.peak_alive, 1u);
    EXPECT_EQ(tally.alive, 0u);
    EXPECT_EQ(res.replay_steps_saved, 0u);
  }
}

TEST(ExploreCore, InPlaceWalkBuildsOnceAndStepsEachEdgeOnce) {
  // The bare ScriptWorld's order log is a std::vector its steps grow, which
  // the arena serves, so the walk rewinds it in place: one build, and one
  // step per edge of the schedule tree.  The tree of {3,3,2} has one edge
  // per nonempty schedule prefix: the sum over (a,b,c) <= (3,3,2), other
  // than zero, of (a+b+c)! / (a! b! c!), which is 1748.
  std::size_t builds = 0;
  std::size_t steps = 0;
  auto inner = script_factory({3, 3, 2}, {}, &steps);
  auto res = explore_schedules([&] {
    ++builds;
    return inner();
  });
  EXPECT_EQ(res.executions, 560u);
  EXPECT_TRUE(res.exhausted);
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(steps, 1748u);
  EXPECT_GT(res.replay_steps_saved, 0u);
}

// --- scheduler fast mode: step-for-step identical executions ---

Task<void> aug_mixed(AugmentedSnapshot& m, ProcessId me) {
  std::vector<std::size_t> comps{0};
  std::vector<Val> vals{Val(10 * (me + 1))};
  co_await m.BlockUpdate(me, comps, vals);
  co_await m.Scan(me);
}

TEST(FastMode, StepForStepIdenticalExecutions) {
  // The same fixed schedule, traced and untraced: identical step counts,
  // identical linearizer verdict, identical object census; only the trace
  // differs (recorded vs empty).
  auto run = [](bool record) {
    Scheduler sched;
    sched.set_recording(record);
    AugmentedSnapshot m(sched, "M", 2, 2);
    sched.spawn(aug_mixed(m, 0), "q1");
    sched.spawn(aug_mixed(m, 1), "q2");
    std::vector<ProcessId> schedule{0, 1, 0, 1, 1, 0, 0, 1, 1, 0};
    for (ProcessId pid : schedule) {
      if (!sched.is_done(pid)) {
        sched.run_step(pid);
      }
    }
    while (!sched.all_done()) {
      auto r = sched.runnable();
      sched.run_step(r.front());
    }
    auto lin = aug::linearize(m.log(), 2);
    return std::tuple{sched.total_steps(), sched.steps_taken(0),
                      sched.steps_taken(1), sched.object_count(),
                      sched.trace().size(), lin.ok()};
  };
  auto [steps_t, q1_t, q2_t, objs_t, trace_t, ok_t] = run(true);
  auto [steps_f, q1_f, q2_f, objs_f, trace_f, ok_f] = run(false);
  EXPECT_EQ(steps_t, steps_f);
  EXPECT_EQ(q1_t, q1_f);
  EXPECT_EQ(q2_t, q2_f);
  EXPECT_EQ(objs_t, objs_f);
  EXPECT_TRUE(ok_t);
  EXPECT_TRUE(ok_f);
  EXPECT_EQ(trace_t, steps_t);  // traced mode records every step
  EXPECT_EQ(trace_f, 0u);       // fast mode records nothing
}

TEST(FastMode, RunnableIntoMatchesRunnable) {
  ScriptWorld world({2, 1, 2}, {});
  std::vector<ProcessId> buf{99, 99};  // stale contents must be cleared
  world.scheduler().runnable_into(buf);
  EXPECT_EQ(buf, world.scheduler().runnable());
  world.scheduler().run_step(0);
  world.scheduler().runnable_into(buf);
  EXPECT_EQ(buf, world.scheduler().runnable());
}

// --- parallel explorer: bit-identical results for any thread count ---

// Worker threads a parallel run starts (parallel_explore.cpp's clamp).
std::size_t pool_workers(std::size_t threads, bool oversubscribe) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return oversubscribe ? threads : std::min(threads, cores);
}

// Walks `factory` on the pool with the serial probe off, so the pool runs
// even the small trees below, and checks the result against `serial`.  One
// worker walks one job.  With more, the walk runs under StealForcingWorld
// (tests/test_worlds.h): the seed's worker donates and a thief claims the
// donation, so the run must steal for real.
template <typename Factory>
void expect_pool_walk_matches(const Factory& factory,
                              ParallelExploreOptions opt,
                              const ScheduleExploreResult& serial,
                              const std::string& what) {
  opt.serial_probe_executions = 0;
  if (pool_workers(opt.threads, opt.oversubscribe) == 1) {
    auto res = parallel_explore_schedules(factory, opt);
    expect_same(res, serial, what);
    EXPECT_EQ(res.jobs, 1u) << what;
    return;
  }
  test_worlds::StealGate gate;
  auto res = parallel_explore_schedules(
      test_worlds::steal_forcing_factory(factory, gate), opt);
  expect_same(res, serial, what);
  EXPECT_GT(res.steals, 0u) << what;
  EXPECT_GT(res.jobs, 1u) << what;
}

TEST(ParallelExplore, DeterministicAcrossThreadsAndStealing) {
  auto serial = explore_schedules(script_factory({3, 3, 2}));
  EXPECT_EQ(serial.executions, 560u);
  EXPECT_EQ(serial.jobs, 1u);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (bool oversubscribe : {false, true}) {
      ParallelExploreOptions opt;
      opt.threads = threads;
      opt.oversubscribe = oversubscribe;
      expect_pool_walk_matches(
          script_factory({3, 3, 2}), opt, serial,
          "threads=" + std::to_string(threads) +
              " oversubscribe=" + std::to_string(oversubscribe));
    }
  }
}

TEST(ParallelExplore, ForcedStealsStayBitIdentical) {
  // With the serial probe off the pool walks the tree from its seed job,
  // and StealForcingWorld (tests/test_worlds.h) makes the seed's worker
  // donate at its first expansion and a thief claim the donation, however
  // fast the walk: every configuration steals for real, and the merged
  // result must not budge.
  auto serial = explore_schedules(script_factory({4, 4, 3}));
  EXPECT_EQ(serial.executions, 11550u);  // 11! / (4!4!3!)
  for (std::size_t threads : {2u, 4u, 8u}) {
    ParallelExploreOptions opt;
    opt.threads = threads;
    opt.oversubscribe = true;
    opt.serial_probe_executions = 0;
    test_worlds::StealGate gate;
    auto res = parallel_explore_schedules(
        test_worlds::steal_forcing_factory(script_factory({4, 4, 3}), gate),
        opt);
    expect_same(res, serial, "threads=" + std::to_string(threads));
    EXPECT_GT(res.steals, 0u) << threads;
    EXPECT_GT(res.jobs, 1u) << threads;  // the seed was split at least once
  }
}

TEST(ParallelExplore, SingleThreadIsTheSerialEngineInline) {
  // threads == 1 is one worker on the calling thread: nobody is ever
  // hungry, so one job, zero steals, results bit-identical to
  // explore_schedules - with and without a cap or a planted violation.
  const Schedule planted{0, 1, 1, 0};
  for (std::size_t cap : {3u, 500'000u}) {
    ScheduleExploreOptions base;
    base.max_executions = cap;
    auto factory = script_factory({2, 2}, {planted});
    auto serial = explore_schedules(factory, base);
    ParallelExploreOptions opt;
    opt.base = base;
    opt.threads = 1;
    auto res = parallel_explore_schedules(factory, opt);
    expect_same(res, serial, "cap=" + std::to_string(cap));
    EXPECT_EQ(res.jobs, 1u);
    EXPECT_EQ(res.steals, 0u);
  }
}

TEST(ParallelExplore, LexicographicallySmallestWitness) {
  // Two planted violations; every configuration must report the smaller.
  const Schedule small{0, 1, 1, 0};
  const Schedule large{1, 0, 0, 1};
  auto factory = script_factory({2, 2}, {large, small});
  auto serial = explore_schedules(factory);
  ASSERT_TRUE(serial.violation.has_value());
  EXPECT_EQ(serial.witness, small);
  EXPECT_EQ(serial.executions, 3u);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelExploreOptions opt;
    opt.threads = threads;
    opt.oversubscribe = true;
    expect_pool_walk_matches(factory, opt, serial,
                             "threads=" + std::to_string(threads));
  }
}

TEST(ParallelExplore, CapAccountingMatchesSerial) {
  for (std::size_t cap : {1u, 99u, 559u, 560u, 561u}) {
    ScheduleExploreOptions base;
    base.max_executions = cap;
    auto serial = explore_schedules(script_factory({3, 3, 2}), base);
    for (std::size_t threads : {1u, 2u, 4u}) {
      ParallelExploreOptions opt;
      opt.base = base;
      opt.threads = threads;
      opt.oversubscribe = true;
      const std::string what = "cap=" + std::to_string(cap) +
                               " threads=" + std::to_string(threads);
      if (cap == 1 && threads > 1) {
        // The one leaf in budget is the seed's first, so a region it
        // donates lies past the cap and is dropped once the seed's leaf is
        // counted: a forced steal would wait for a thief that never builds.
        opt.serial_probe_executions = 0;
        auto res = parallel_explore_schedules(script_factory({3, 3, 2}), opt);
        expect_same(res, serial, what);
        continue;
      }
      expect_pool_walk_matches(script_factory({3, 3, 2}), opt, serial, what);
    }
  }
}

// --- transposition dedupe: verdict parity across thread counts ---

TEST(ParallelDedupe, VerdictParityAcrossThreadCounts) {
  // Uncapped searches: the violation-found / violation-free verdict must
  // agree between undeduped serial, deduped serial and deduped parallel at
  // every thread count.  Counts and witnesses may differ by design.
  for (Val banned : {Val{0}, Val{-7}}) {  // planted / absent
    auto factory = last_writer_factory({3, 3, 2}, banned);
    auto plain = explore_schedules(factory);
    ScheduleExploreOptions base;
    base.dedupe_states = true;
    auto serial = explore_schedules(factory, base);
    EXPECT_EQ(serial.violation.has_value(), plain.violation.has_value());
    EXPECT_TRUE(serial.exhausted);
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      ParallelExploreOptions opt;
      opt.base = base;
      opt.threads = threads;
      opt.oversubscribe = true;
      auto res = parallel_explore_schedules(factory, opt);
      const std::string what =
          "banned=" + std::to_string(banned) +
          " threads=" + std::to_string(threads);
      EXPECT_EQ(res.violation.has_value(), plain.violation.has_value())
          << what;
      EXPECT_TRUE(res.exhausted) << what;
      EXPECT_LE(res.executions * 2, plain.executions) << what;  // >= 2x win
      EXPECT_GT(res.states_seen, 0u) << what;
      // Claim-then-walk: the CAS insert claims a state before its subtree
      // is walked, so racing workers prune instead of re-claiming and the
      // parallel explorer never records more distinct states than the
      // serial one on an exhausted violation-free search (each distinct
      // reachable state is claimed exactly once).  With a violation the
      // comparison is meaningless either way: both searches cut early at
      // interleaving-dependent points.
      if (!plain.violation.has_value()) {
        EXPECT_LE(res.states_seen, serial.states_seen) << what;
      }
    }
  }
}

TEST(ParallelDedupe, AuditModeAcrossThreadCounts) {
  ScheduleExploreOptions base;
  base.dedupe_states = true;
  base.dedupe_audit = true;
  for (std::size_t threads : {2u, 4u}) {
    ParallelExploreOptions opt;
    opt.base = base;
    opt.threads = threads;
    opt.oversubscribe = true;
    auto res =
        parallel_explore_schedules(last_writer_factory({3, 3, 2}, 0), opt);
    EXPECT_TRUE(res.violation.has_value()) << threads;
    EXPECT_GT(res.subtrees_pruned, 0u) << threads;
  }
}

TEST(ParallelDedupe, FingerprintExtraKeepsUniqueStatesBitIdentical) {
  // ScriptWorld folds its order log into the fingerprint, making every
  // state unique: dedupe finds no transpositions and must reproduce the
  // undeduped explorer bit-for-bit - including executions and witness.
  const Schedule planted{0, 1, 1, 0};
  auto factory = script_factory({2, 2}, {planted});
  auto plain = explore_schedules(factory);
  ASSERT_TRUE(plain.violation.has_value());

  ScheduleExploreOptions base;
  base.dedupe_states = true;
  auto serial = explore_schedules(factory, base);
  expect_same(serial, plain, "serial dedupe, unique states");
  EXPECT_EQ(serial.subtrees_pruned, 0u);

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelExploreOptions opt;
    opt.base = base;
    opt.threads = threads;
    opt.oversubscribe = true;
    auto res = parallel_explore_schedules(factory, opt);
    expect_same(res, plain, "threads=" + std::to_string(threads));
    EXPECT_EQ(res.subtrees_pruned, 0u) << threads;
  }
}

struct DedupeCounts {
  std::size_t executions;
  std::size_t states_seen;
  std::size_t subtrees_pruned;
};

void expect_counts(const ScheduleExploreResult& res, DedupeCounts want,
                   const std::string& what) {
  EXPECT_FALSE(res.violation) << what;
  EXPECT_FALSE(res.error) << what;
  EXPECT_TRUE(res.exhausted) << what;
  EXPECT_EQ(res.executions, want.executions) << what;
  EXPECT_EQ(res.states_seen, want.states_seen) << what;
  EXPECT_EQ(res.subtrees_pruned, want.subtrees_pruned) << what;
}

// Exact dedupe accounting on the augmented snapshot, as recorded with a
// fingerprint that hashed every H log and embedded view in full: a
// fingerprint that merged distinct states would lower states_seen, one that
// split equal states would raise it.  On an
// exhausted violation-free search every engine claims each reachable state
// exactly once, so the counts do not depend on the thread count.
TEST(ParallelDedupe, AugmentedCountsArePinned) {
  const auto factory = aug_mixed_factory(/*q1_updates=*/false);
  auto plain = explore_schedules(factory);
  expect_counts(plain, {1'144, 0, 0}, "undeduped");

  const DedupeCounts want{1'004, 4'235, 68};
  ScheduleExploreOptions base;
  base.dedupe_states = true;
  expect_counts(explore_schedules(factory, base), want, "serial");
  for (std::size_t threads : {2u, 4u}) {
    ParallelExploreOptions opt;
    opt.base = base;
    opt.threads = threads;
    opt.oversubscribe = true;
    expect_counts(parallel_explore_schedules(factory, opt), want,
                  "threads=" + std::to_string(threads));
  }
  // Collision audit: the full canonical text behind every hash; a
  // fingerprint covering two distinct states throws.
  base.dedupe_audit = true;
  expect_counts(explore_schedules(factory, base), want, "serial audit");
}

TEST(ParallelDedupe, AugmentedCountsArePinnedOnTheLargerWorld) {
  // Both processes Block-Update then Scan: 30x the states of the world
  // above and 38x its prunes.
  ScheduleExploreOptions base;
  base.dedupe_states = true;
  expect_counts(explore_schedules(aug_mixed_factory(true), base),
                {32'636, 131'912, 2'609}, "serial");
}

TEST(ParallelExplore, ViolationExactlyAtCapAcrossThreads) {
  const Schedule planted{0, 1, 1, 0};
  ScheduleExploreOptions base;
  base.max_executions = 3;
  auto factory = script_factory({2, 2}, {planted});
  auto serial = explore_schedules(factory, base);
  ASSERT_TRUE(serial.violation.has_value());
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelExploreOptions opt;
    opt.base = base;
    opt.threads = threads;
    opt.oversubscribe = true;
    auto res = parallel_explore_schedules(factory, opt);
    expect_same(res, serial, "threads=" + std::to_string(threads));
  }
}

// --- graceful degradation: failing jobs, retries, wall-clock abort ---

// Wraps ScriptWorld; verdict() throws until the shared countdown hits zero.
// With `first_leaf_calls` set, it also counts the verdicts evaluated at the
// lexicographically first leaf - which only the seed job's region holds,
// and which each of its attempts reaches first.
class FlakyWorld final : public ExplorableWorld {
 public:
  FlakyWorld(std::vector<std::size_t> writes, std::atomic<int>* throws_left,
             std::vector<Schedule> planted = {},
             std::atomic<int>* first_leaf_calls = nullptr)
      : first_leaf_(first_leaf(writes)),
        inner_(std::move(writes), std::move(planted)),
        throws_left_(throws_left),
        first_leaf_calls_(first_leaf_calls) {}
  Scheduler& scheduler() override { return inner_.scheduler(); }
  std::optional<std::string> verdict(bool complete) override {
    if (first_leaf_calls_ != nullptr && inner_.order() == first_leaf_) {
      first_leaf_calls_->fetch_add(1);
    }
    if (throws_left_->fetch_add(-1) > 0) {
      throw std::runtime_error("injected verdict fault");
    }
    return inner_.verdict(complete);
  }
  void fingerprint_extra(util::StateSink& sink) override {
    inner_.fingerprint_extra(sink);
  }

 private:
  static Schedule first_leaf(const std::vector<std::size_t>& writes) {
    Schedule leaf;
    for (ProcessId p = 0; p < writes.size(); ++p) {
      leaf.insert(leaf.end(), writes[p], p);
    }
    return leaf;
  }

  Schedule first_leaf_;
  ScriptWorld inner_;
  std::atomic<int>* throws_left_;
  std::atomic<int>* first_leaf_calls_;
};

TEST(ParallelDegrade, PersistentlyThrowingJobYieldsErrorNotDeadlock) {
  // Every verdict throws: each job exhausts its retry budget and is marked
  // failed; the merge must return a partial summary naming the fault
  // instead of deadlocking or propagating the exception.
  std::atomic<int> always(1 << 20);
  ParallelExploreOptions opt;
  opt.threads = 2;
  opt.oversubscribe = true;
  opt.job_retries = 1;
  auto res = parallel_explore_schedules(
      [&] { return std::make_unique<FlakyWorld>(std::vector<std::size_t>{2, 2},
                                                &always); },
      opt);
  ASSERT_TRUE(res.error.has_value());
  EXPECT_NE(res.error->find("injected verdict fault"), std::string::npos);
  EXPECT_NE(res.error->find("2 attempt"), std::string::npos);  // 1 + 1 retry
  EXPECT_FALSE(res.exhausted);
  EXPECT_FALSE(res.violation);
}

TEST(ParallelDegrade, TransientFaultIsAbsorbedByRetry) {
  // One injected throw: some job fails once, its retry succeeds, and the
  // final summary is bit-identical to the fault-free serial exploration.
  auto serial = explore_schedules(script_factory({2, 2}));
  std::atomic<int> once(1);
  ParallelExploreOptions opt;
  opt.threads = 2;
  opt.job_retries = 2;
  auto res = parallel_explore_schedules(
      [&] { return std::make_unique<FlakyWorld>(std::vector<std::size_t>{2, 2},
                                                &once); },
      opt);
  expect_same(res, serial, "transient fault absorbed");
  EXPECT_FALSE(res.error.has_value());
  EXPECT_FALSE(res.timed_out);
}

TEST(ParallelDegrade, TransientFaultUnderDedupeRequeuesSoundly) {
  // One injected throw under dedupe, with no serial probe to absorb it.  The
  // failing attempt may have donated regions, and it claimed states in the
  // shared table whose subtrees it never walked.  Its re-run must cancel
  // those donations and walk the whole region with dedupe off: a re-run
  // against the shared table prunes at the failed attempt's own claims and
  // loses executions - or the planted violation.  Every ScriptWorld state
  // is unique, so a sound deduped run prunes nothing and matches serial
  // exactly.
  const std::vector<std::size_t> writes{2, 2, 2};
  for (bool plant : {false, true}) {
    std::vector<Schedule> planted;
    if (plant) {
      planted.push_back({0, 1, 0, 1, 2, 2});
    }
    ScheduleExploreOptions base;
    base.dedupe_states = true;
    const auto serial = explore_schedules(script_factory(writes, planted), base);
    if (!plant) {
      ASSERT_EQ(serial.executions, 90u);  // 6! / (2!2!2!)
    }
    ASSERT_EQ(serial.violation.has_value(), plant);
    for (int iter = 0; iter < 20; ++iter) {
      std::atomic<int> once(1);
      ParallelExploreOptions opt;
      opt.base = base;
      opt.threads = 2;
      opt.oversubscribe = true;
      opt.serial_probe_executions = 0;
      const auto res = parallel_explore_schedules(
          [&] { return std::make_unique<FlakyWorld>(writes, &once, planted); },
          opt);
      const std::string what =
          "planted=" + std::to_string(plant) + " iter=" + std::to_string(iter);
      expect_same(res, serial, what);
      EXPECT_FALSE(res.error.has_value()) << what << ": " << *res.error;
      EXPECT_LT(once.load(), 1) << what;  // the fault did fire
    }
  }
}

TEST(ParallelDegrade, FailedJobQuotesTheAttemptsThatRan) {
  // Every verdict throws, so the seed job fails; each of its attempts
  // reaches the lexicographically first leaf first and throws there.  With
  // two hungry workers the seed donates before it throws, and its retries
  // must still run (cancel the donations, re-run), so the error's attempt
  // count is the number of attempts that really reached that leaf.
  for (std::size_t threads : {1u, 2u}) {
    std::atomic<int> always(1 << 20);
    std::atomic<int> seed_attempts(0);
    ParallelExploreOptions opt;
    opt.threads = threads;
    opt.oversubscribe = true;
    opt.serial_probe_executions = 0;
    opt.job_retries = 2;
    const auto res = parallel_explore_schedules(
        [&] {
          return std::make_unique<FlakyWorld>(std::vector<std::size_t>{2, 2, 2},
                                              &always, std::vector<Schedule>{},
                                              &seed_attempts);
        },
        opt);
    ASSERT_TRUE(res.error.has_value()) << threads;
    EXPECT_NE(res.error->find("failed after 3 attempt(s)"), std::string::npos)
        << *res.error;
    EXPECT_EQ(seed_attempts.load(), 3) << threads;
    EXPECT_FALSE(res.exhausted);
  }
}

Task<void> slow_writes(Scheduler& sched, std::size_t obj, ProcessId /*me*/,
                       std::size_t writes) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await runtime::StepAwaiter<void>(
        sched,
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(10)); },
        obj, StepKind::kWrite, {});
  }
}

class SlowWorld final : public ExplorableWorld {
 public:
  explicit SlowWorld(std::vector<std::size_t> writes) {
    const std::size_t obj = sched_.register_object("r");
    for (ProcessId p = 0; p < writes.size(); ++p) {
      sched_.spawn(slow_writes(sched_, obj, p, writes[p]), "q");
    }
  }
  Scheduler& scheduler() override { return sched_; }
  std::optional<std::string> verdict(bool) override { return std::nullopt; }

 private:
  Scheduler sched_;
};

TEST(ParallelDegrade, WallClockLimitReturnsPartialSummary) {
  // Steps sleep 10ms and the deadline is 1ms: it has passed before any
  // worker claims a job, so every subtree is left unexplored and the merge
  // must report a timed-out partial summary rather than block.
  ParallelExploreOptions opt;
  opt.threads = 2;
  opt.oversubscribe = true;
  opt.time_limit = std::chrono::milliseconds(1);
  auto res = parallel_explore_schedules(
      [] { return std::make_unique<SlowWorld>(std::vector<std::size_t>{2, 2}); },
      opt);
  EXPECT_TRUE(res.timed_out);
  EXPECT_FALSE(res.exhausted);
  EXPECT_FALSE(res.violation);
  EXPECT_FALSE(res.error.has_value());
}

TEST(ParallelDegrade, OptionValidationAppliesToParallelEntry) {
  ParallelExploreOptions opt;
  opt.base.max_steps = 0;
  EXPECT_THROW(parallel_explore_schedules(script_factory({1, 1}), opt),
               std::invalid_argument);
}

TEST(ParallelCrash, CrashBranchingMatchesSerial) {
  // Crash-extended trees must stay bit-identical between the serial and the
  // parallel explorer (shared choice generation): two 1-step writers have
  // 2 / 6 / 7 executions at 0 / 1 / 2 allowed crashes.
  for (std::size_t crashes : {0u, 1u, 2u}) {
    ScheduleExploreOptions base;
    base.max_crashes = crashes;
    auto serial = explore_schedules(script_factory({1, 1}), base);
    EXPECT_EQ(serial.executions, crashes == 0 ? 2u : (crashes == 1 ? 6u : 7u))
        << crashes;
    for (std::size_t threads : {1u, 2u, 4u}) {
      ParallelExploreOptions opt;
      opt.base = base;
      opt.threads = threads;
      opt.oversubscribe = true;
      auto res = parallel_explore_schedules(script_factory({1, 1}), opt);
      expect_same(res, serial,
                  "crashes=" + std::to_string(crashes) +
                      " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelCrash, StealsDuringCrashBranchingStayBitIdentical) {
  // Oversubscribed workers steal while crash branches are being
  // enumerated (the serial probe is off, and StealForcingWorld makes the
  // seed donate and a thief claim, however fast the walk): donated choice
  // lists carry crash entries (top bit set), and the key order must still
  // replay the serial result exactly - planted violation included.  The
  // planted order log is only reachable by crashing process 1 after its
  // first write, so the reported witness necessarily contains a crash
  // entry.
  const Schedule planted{1, 0, 0, 0};
  for (auto writes : {std::vector<std::size_t>{3, 3}}) {
    ScheduleExploreOptions base;
    base.max_crashes = 2;
    auto factory = script_factory(writes, {planted});
    auto serial = explore_schedules(factory, base);
    ASSERT_TRUE(serial.violation.has_value());
    EXPECT_TRUE(std::any_of(serial.witness.begin(), serial.witness.end(),
                            runtime::is_crash_entry));
    for (std::size_t threads : {2u, 4u, 8u}) {
      ParallelExploreOptions opt;
      opt.base = base;
      opt.threads = threads;
      opt.oversubscribe = true;
      opt.serial_probe_executions = 0;
      test_worlds::StealGate gate;
      auto res = parallel_explore_schedules(
          test_worlds::steal_forcing_factory(factory, gate), opt);
      expect_same(res, serial, "threads=" + std::to_string(threads));
      EXPECT_GT(res.steals, 0u) << threads;
    }
  }
}

}  // namespace
}  // namespace revisim
