// In-place walks against rebuild-and-replay walks.
//
// The explorer rewinds a world to a branch node by restoring its arena
// checkpoint while the world stays off the heap, and rebuilds and replays it
// once the world takes heap memory (src/check/explore_core.h).  Which of the
// two a walk uses must never show in its results.  Every test here explores
// registry worlds bare and wrapped in test_worlds::HeapTouchingWorld - heap
// memory from the build on (replay from the start) or from a mid-walk step
// (a switch in the middle) - and requires the same executions, exhaustion,
// verdict, witness, table statistics and POR skips, serial, in-process
// parallel and distributed.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "src/check/model_check.h"
#include "src/check/parallel_explore.h"
#include "src/check/worlds.h"
#include "src/dist/coordinator.h"
#include "tests/test_worlds.h"

namespace revisim {
namespace {

using check::ScheduleExploreOptions;
using check::ScheduleExploreResult;
using test_worlds::heap_touching_factory;

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
  EXPECT_EQ(got.por_skipped, want.por_skipped) << what;
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
      for (int mode = 0; mode < 3; ++mode) {
        ScheduleExploreOptions opt = options(crashes);
        opt.dedupe_states = mode == 1;
        opt.por = mode == 2;
        if (opt.dedupe_states && !spec.dedupe_capable) {
          continue;
        }
        const std::string what = spec.world + " crashes " +
                                 std::to_string(crashes) + " mode " +
                                 std::to_string(mode);
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

}  // namespace
}  // namespace revisim
