// In-place walks against rebuild-and-replay walks.
//
// The explorer rewinds a world to a branch node by restoring its arena
// checkpoint while the world stays off the heap, and rebuilds and replays it
// once the world takes memory the arena does not serve
// (src/check/explore_core.h).  Which of the two a walk uses must never show
// in its results.  The tests here explore registry worlds, and a world that
// makes plain std::vector arguments in its steps, bare and wrapped in
// test_worlds::HeapTouchingWorld - over-aligned memory from the build on
// (replay from the start) or from a mid-walk step (a switch in the middle) -
// and require the same executions, exhaustion, verdict, witness, table
// statistics, serial, in-process parallel and distributed.
//
// The ArenaEscapes tests hold the arena to its rules when world memory
// leaves the world: an exception thrown out of a watched call, a verdict
// that moves a step-made string out, and a world that stashes step-made
// memory outside itself.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
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
#include "src/dist/coordinator.h"
#include "src/util/pool.h"
#include "tests/test_worlds.h"

namespace revisim {
namespace {

using check::ScheduleExploreOptions;
using check::ScheduleExploreResult;
using runtime::ProcessId;
using test_worlds::heap_touching_factory;
using test_worlds::Schedule;

// The wrapped world's second variant takes heap memory in its fourth step.
constexpr std::size_t kMidWalkStep = 3;

// Caps every walk: the bigger trees here run to hundreds of thousands of
// executions, and cap accounting is part of what must match.
constexpr std::size_t kCap = 600;

struct Spec {
  std::string world;
  bool dedupe_capable;
};

// Simulation worlds with and without a direct simulator, an augmented
// snapshot script, Block-Updates under a progress monitor, and the
// non-wait-free mutant, whose violation makes the witness part of the
// comparison.
const Spec kSpecs[] = {
    {"sim-racing:2,1,0,1", false}, {"sim-racing:2,1,1,1", false},
    {"aug-script:2,u0s,u0s", true}, {"aug-bu:2,2,6", true},
    {"aug-mutant:2,2,10", true},
};

void expect_parity(const ScheduleExploreResult& got,
                   const ScheduleExploreResult& want, const std::string& what) {
  EXPECT_EQ(got.executions, want.executions) << what;
  EXPECT_EQ(got.exhausted, want.exhausted) << what;
  EXPECT_EQ(got.violation, want.violation) << what;
  EXPECT_EQ(got.witness, want.witness) << what;
  EXPECT_EQ(got.states_seen, want.states_seen) << what;
  EXPECT_EQ(got.subtrees_pruned, want.subtrees_pruned) << what;
}

ScheduleExploreOptions options(std::size_t crashes) {
  ScheduleExploreOptions opt;
  opt.max_crashes = crashes;
  opt.max_executions = kCap;
  return opt;
}

TEST(Checkpoints, SerialWalksMatchReplayAtEveryCrashBudget) {
  for (const Spec& spec : kSpecs) {
    for (std::size_t crashes = 0; crashes <= 2; ++crashes) {
      for (const bool dedupe : {false, true}) {
        ScheduleExploreOptions opt = options(crashes);
        opt.dedupe_states = dedupe;
        if (dedupe && !spec.dedupe_capable) {
          continue;
        }
        const std::string what = spec.world + " crashes " +
                                 std::to_string(crashes) +
                                 (dedupe ? " dedupe" : " plain");
        const auto bare = check::explore_schedules(
            check::make_world_factory(spec.world), opt);
        const auto from_build = check::explore_schedules(
            heap_touching_factory(spec.world, 0), opt);
        const auto mid_walk = check::explore_schedules(
            heap_touching_factory(spec.world, kMidWalkStep), opt);
        expect_parity(from_build, bare, what + " (heap at build)");
        expect_parity(mid_walk, bare, what + " (heap mid-walk)");
        // The bare walk restores in place, the one with heap memory from
        // its build never does, and the mid-walk one stops partway.
        EXPECT_GT(bare.replay_steps_saved, 0u) << what;
        EXPECT_EQ(from_build.replay_steps_saved, 0u) << what;
        EXPECT_LT(mid_walk.replay_steps_saved, bare.replay_steps_saved)
            << what;
      }
    }
  }
}

TEST(Checkpoints, ParallelWalksMatchTheSerialOneAtOneToFourThreads) {
  for (const Spec& spec : kSpecs) {
    const ScheduleExploreOptions opt = options(1);
    const auto serial =
        check::explore_schedules(check::make_world_factory(spec.world), opt);
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      check::ParallelExploreOptions par;
      par.base = opt;
      par.threads = threads;
      par.oversubscribe = true;
      par.serial_probe_executions = 0;
      const std::string what =
          spec.world + " threads " + std::to_string(threads);
      expect_parity(check::parallel_explore_schedules(
                        check::make_world_factory(spec.world), par),
                    serial, what + " (bare)");
      expect_parity(check::parallel_explore_schedules(
                        heap_touching_factory(spec.world, kMidWalkStep), par),
                    serial, what + " (heap mid-walk)");
    }
  }
}

// With dedupe on, only a one-thread parallel walk is deterministic (which
// worker claims a state first decides the counts otherwise).
TEST(Checkpoints, OneThreadDedupeWalkMatchesTheSerialOne) {
  for (const Spec& spec : kSpecs) {
    if (!spec.dedupe_capable) {
      continue;
    }
    ScheduleExploreOptions opt = options(1);
    opt.dedupe_states = true;
    const auto serial =
        check::explore_schedules(check::make_world_factory(spec.world), opt);
    check::ParallelExploreOptions par;
    par.base = opt;
    par.threads = 1;
    expect_parity(check::parallel_explore_schedules(
                      heap_touching_factory(spec.world, kMidWalkStep), par),
                  serial, spec.world + " (heap mid-walk)");
  }
}

TEST(Checkpoints, DistributedWalksMatchTheSerialOneAtOneAndTwoWorkers) {
  for (const Spec& spec : kSpecs) {
    const ScheduleExploreOptions opt = options(1);
    const auto serial =
        check::explore_schedules(check::make_world_factory(spec.world), opt);
    for (std::size_t workers = 1; workers <= 2; ++workers) {
      dist::DistExploreOptions d;
      d.base = opt;
      d.workers = workers;
      const std::string what =
          spec.world + " workers " + std::to_string(workers);
      const auto bare = dist::dist_explore_schedules(
          check::make_world_factory(spec.world), d);
      expect_parity(bare, serial, what + " (bare)");
      EXPECT_GT(bare.replay_steps_saved, 0u) << what;
      expect_parity(dist::dist_explore_schedules(
                        heap_touching_factory(spec.world, kMidWalkStep), d),
                    serial, what + " (heap mid-walk)");
    }
  }
}

// --- plain containers made in steps ------------------------------------------

// The end-to-end benchmark's augmented-snapshot world
// (e2ebench/e2e_bench.cpp): each process makes its Block-Update arguments
// as std::vector in its first step, then scans; the verdict is the §3.3
// linearizer.  The arena serves those vectors, so it walks in place.
runtime::Task<void> update_then_scans(aug::AugmentedSnapshot& m, ProcessId me,
                                      std::size_t comp, Val val,
                                      std::size_t scans) {
  std::vector<std::size_t> comps{comp};
  std::vector<Val> vals{val};
  co_await m.BlockUpdate(me, std::move(comps), std::move(vals));
  for (std::size_t i = 0; i < scans; ++i) {
    co_await m.Scan(me);
  }
}

class VectorArgsAugWorld final : public check::ExplorableWorld {
 public:
  VectorArgsAugWorld() : m_(sched_, "M", 2, 2) {
    sched_.spawn(update_then_scans(m_, 0, 0, 10, 1), "p0");
    sched_.spawn(update_then_scans(m_, 1, 1, 20, 2), "p1");
  }

  runtime::Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    if (!complete) {
      return "execution did not finish within the depth bound";
    }
    auto lin = aug::linearize(m_.log(), 2);
    if (!lin.ok()) {
      return lin.violations.front();
    }
    return std::nullopt;
  }

 private:
  runtime::Scheduler sched_;
  aug::AugmentedSnapshot m_;
};

std::unique_ptr<check::ExplorableWorld> vector_args_world() {
  return std::make_unique<VectorArgsAugWorld>();
}

// With dedupe on, only serial and one-worker walks are deterministic; the
// others are held to the dedupe contract: the same verdict.
void expect_engine_parity(const ScheduleExploreResult& got,
                          const ScheduleExploreResult& want, bool exact,
                          const std::string& what) {
  if (exact) {
    expect_parity(got, want, what);
  } else {
    EXPECT_EQ(got.violation, want.violation) << what;
    EXPECT_LE(got.executions, kCap) << what;
  }
}

TEST(Checkpoints, VectorArgumentsWalkInPlaceAndMatchReplayInEveryEngine) {
  const auto replay = heap_touching_factory(vector_args_world, 0);
  for (bool dedupe : {false, true}) {
    ScheduleExploreOptions opt = options(0);
    opt.dedupe_states = dedupe;
    const std::string mode = dedupe ? "dedupe" : "plain";
    const auto want = check::explore_schedules(replay, opt);
    const auto got = check::explore_schedules(vector_args_world, opt);
    expect_parity(got, want, mode + " serial");
    EXPECT_GT(got.replay_steps_saved, 0u) << mode;
    EXPECT_EQ(want.replay_steps_saved, 0u) << mode;
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      check::ParallelExploreOptions par;
      par.base = opt;
      par.threads = threads;
      par.oversubscribe = true;
      par.serial_probe_executions = 0;
      const std::string what = mode + " threads " + std::to_string(threads);
      const bool exact = !dedupe || threads == 1;
      const auto in_place =
          check::parallel_explore_schedules(vector_args_world, par);
      expect_engine_parity(in_place, want, exact, what + " (in place)");
      EXPECT_GT(in_place.replay_steps_saved, 0u) << what;
      expect_engine_parity(check::parallel_explore_schedules(replay, par),
                           want, exact, what + " (replay)");
    }
    for (std::size_t workers = 1; workers <= 2; ++workers) {
      dist::DistExploreOptions d;
      d.base = opt;
      d.workers = workers;
      const std::string what = mode + " workers " + std::to_string(workers);
      const bool exact = !dedupe || workers == 1;
      const auto in_place =
          dist::dist_explore_schedules(vector_args_world, d);
      expect_engine_parity(in_place, want, exact, what + " (in place)");
      EXPECT_GT(in_place.replay_steps_saved, 0u) << what;
      expect_engine_parity(dist::dist_explore_schedules(replay, d), want,
                           exact, what + " (replay)");
    }
  }
}

// --- arena escapes ---------------------------------------------------------------

// A sim-racing world refuses dedupe by throwing from its fingerprint, a
// watched call, so the exception's message is arena memory carried out of
// the walk.  It stays valid while the thread walks again, and the next
// scope keeps it out of the memory it hands out.
TEST(ArenaEscapes, AnExceptionFromAWatchedCallOutlivesTheNextWalk) {
  std::thread([] {
    ScheduleExploreOptions opt;
    opt.dedupe_states = true;
    std::exception_ptr refusal;
    try {
      (void)check::explore_schedules(
          check::make_world_factory("sim-racing:2,1,0,1"), opt);
      ADD_FAILURE() << "dedupe ran on sim-racing";
    } catch (const std::invalid_argument&) {
      refusal = std::current_exception();
    }
    {
      util::ArenaScope probe;
      ASSERT_TRUE(probe.active());
      EXPECT_GT(probe.carried_bytes(), 0u);
    }
    opt.dedupe_states = false;
    const auto again = check::explore_schedules(
        check::make_world_factory("sim-racing:2,1,0,1"), opt);
    EXPECT_TRUE(again.exhausted);
    EXPECT_FALSE(again.violation.has_value());
    EXPECT_GT(again.replay_steps_saved, 0u);
    try {
      std::rethrow_exception(refusal);
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.find("world sim-racing does not support dedupe"), 0u)
          << what;
    }
    refusal = nullptr;  // freed on its own thread, back into its arena
    util::ArenaScope after;
    EXPECT_EQ(after.carried_bytes(), 0u);
  }).join();
}

// Each step appends to a note, a std::string the world keeps: arena memory.
// At the planted schedule the verdict moves the note out as its message.
runtime::Task<void> noted_script(runtime::Scheduler& sched, std::size_t obj,
                                 Schedule& order, std::string& note,
                                 ProcessId me, std::size_t writes) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await runtime::StepAwaiter<void>(
        sched,
        [&order, &note, me] {
          order.push_back(me);
          note += ' ';
          note += static_cast<char>('0' + me);
        },
        obj, runtime::StepKind::kWrite, {});
  }
}

class MovedVerdictWorld final : public check::ExplorableWorld {
 public:
  explicit MovedVerdictWorld(Schedule planted)
      : planted_(std::move(planted)) {
    const std::size_t obj = sched_.register_object("r");
    for (ProcessId p = 0; p < 3; ++p) {
      sched_.spawn(noted_script(sched_, obj, order_, note_, p, 3), "q");
    }
  }

  runtime::Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    if (complete && order_ == planted_) {
      return std::move(note_);
    }
    return std::nullopt;
  }

 private:
  runtime::Scheduler sched_;
  Schedule order_;
  std::string note_ = "schedule:";
  Schedule planted_;
};

// A parallel walk with more than one worker runs every job on a spawned
// thread, so the message is made on a worker thread and crosses into the
// merge on the calling thread; StealForcingWorld makes the walk split.
TEST(ArenaEscapes, AMovedOutVerdictCrossesTheMerge) {
  const Schedule planted{2, 2, 2, 1, 1, 1, 0, 0, 0};
  const auto serial = check::explore_schedules(
      [&] { return std::make_unique<MovedVerdictWorld>(planted); });
  ASSERT_TRUE(serial.violation.has_value());
  EXPECT_EQ(*serial.violation, "schedule: 2 2 2 1 1 1 0 0 0");
  EXPECT_EQ(serial.witness, planted);
  EXPECT_EQ(serial.executions, 1680u);  // 9! / (3!3!3!), the last one
  check::ParallelExploreOptions par;
  par.threads = 2;
  par.oversubscribe = true;
  par.serial_probe_executions = 0;
  test_worlds::StealGate gate;
  const auto parallel = check::parallel_explore_schedules(
      test_worlds::steal_forcing_factory(
          [&] { return std::make_unique<MovedVerdictWorld>(planted); }, gate),
      par);
  expect_parity(parallel, serial, "parallel-2");
  EXPECT_GT(parallel.steals, 0u);
}

// Every step leaves a fresh string in `*stash`, outside the world, and
// never frees the one before: memory a restore may hand out again.  The
// walk must fail, name the escaped bytes, and keep the last string valid
// until it is freed, across the thread's next walk.  The strings a restore
// rewound stay live in the thread's arena for good, so the test runs on a
// thread of its own.
class StashingWorld final : public check::ExplorableWorld {
 public:
  explicit StashingWorld(std::string** stash) {
    const std::size_t obj = sched_.register_object("r");
    for (ProcessId p = 0; p < 2; ++p) {
      sched_.spawn(stashing_script(sched_, obj, stash), "q");
    }
  }

  runtime::Scheduler& scheduler() override { return sched_; }
  std::optional<std::string> verdict(bool /*complete*/) override {
    return std::nullopt;
  }

 private:
  static runtime::Task<void> stashing_script(runtime::Scheduler& sched,
                                             std::size_t obj,
                                             std::string** stash) {
    for (int i = 0; i < 2; ++i) {
      co_await runtime::StepAwaiter<void>(
          sched, [stash] { *stash = new std::string(64, 'x'); }, obj,
          runtime::StepKind::kWrite, {});
    }
  }

  runtime::Scheduler sched_;
};

TEST(ArenaEscapes, StepMadeMemoryStashedOutsideTheWorldFailsTheWalk) {
  std::thread([] {
    std::string* stash = nullptr;
    try {
      (void)check::explore_schedules(
          [&stash] { return std::make_unique<StashingWorld>(&stash); });
      ADD_FAILURE() << "the walk ignored the escaped memory";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("bytes of arena memory"), std::string::npos)
          << what;
      EXPECT_NE(what.find("outlived the world"), std::string::npos) << what;
    }
    ASSERT_NE(stash, nullptr);
    EXPECT_EQ(*stash, std::string(64, 'x'));
    const auto next = check::explore_schedules(
        check::make_world_factory("aug-script:2,u0s,u0s"));
    EXPECT_TRUE(next.ok());
    EXPECT_GT(next.replay_steps_saved, 0u);
    EXPECT_EQ(*stash, std::string(64, 'x'));
    delete stash;
  }).join();
}

}  // namespace
}  // namespace revisim
