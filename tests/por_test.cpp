// Sleep-set partial-order reduction: verdict/witness parity with the
// unreduced explorer, composition with dedupe, crash branching and the
// parallel explorer, and the reduction itself.
//
// POR's contract (ScheduleExploreOptions::por): explore exactly the
// lexicographically least representative of every Mazurkiewicz trace.  For
// trace-invariant verdicts - every world here decides on the final state of
// its leaf - that means the violation-found outcome AND the lex-smallest
// witness are preserved exactly, while `executions` shrinks by the number
// of step-swap-equivalent schedules skipped.  Opaque-footprint worlds (the
// augmented snapshot) must come out bit-identical to the unreduced walk:
// opacity means "never prune against me", not "explore differently".
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/check/model_check.h"
#include "src/check/parallel_explore.h"
#include "src/check/worlds.h"
#include "src/memory/collect_snapshot.h"
#include "src/memory/register.h"
#include "src/runtime/scheduler.h"
#include "tests/test_worlds.h"

namespace revisim {
namespace {

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
using test_worlds::register_factory;

// Mixed sharing: every process writes its own register, then a shared one,
// then its own again, so the tree holds both genuinely independent and
// genuinely dependent step pairs.  Verdict: a specific reachable final
// state (trace-invariant).
class MixedWorld final : public ExplorableWorld {
 public:
  explicit MixedWorld(std::size_t procs) {
    shared_ = std::make_unique<mem::TypedRegister<int>>(sched_, "s", 0);
    regs_.reserve(procs);
    for (std::size_t p = 0; p < procs; ++p) {
      regs_.push_back(std::make_unique<mem::TypedRegister<int>>(
          sched_, "r" + std::to_string(p), 0));
    }
    for (std::size_t p = 0; p < procs; ++p) {
      sched_.spawn(script(*regs_[p], *shared_, static_cast<int>(p) + 1), "q");
    }
  }

  static Task<void> script(mem::TypedRegister<int>& own,
                           mem::TypedRegister<int>& shared, int mark) {
    co_await own.write(mark);
    co_await shared.write(mark);
    co_await own.write(mark + 100);
  }

  Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool /*complete*/) override {
    // Process 1 finished while process 0's shared write landed after
    // process 1's: reachable, but not on the DFS-first schedule, so the
    // explorer has to walk several executions before the witness.
    if (shared_->peek() == 1 && regs_[1]->peek() == 102) {
      return "p1 overtaken on the shared register";
    }
    return std::nullopt;
  }

 private:
  Scheduler sched_;
  std::unique_ptr<mem::TypedRegister<int>> shared_;
  std::vector<std::unique_ptr<mem::TypedRegister<int>>> regs_;
};

// Collect-snapshot writers on distinct cells: POR must see through the
// from-registers construction (the cells keep precise footprints; §2's
// snapshot-vs-register interimplementability evidence).
class CollectWorld final : public ExplorableWorld {
 public:
  CollectWorld() : snap_(sched_, "C", 3, 3) {
    for (ProcessId p = 0; p < 3; ++p) {
      sched_.spawn(script(snap_, p), "q");
    }
  }

  // Two updates per writer: a process's *first* step is opaque (nothing is
  // poised to introspect before it starts), so single-step writers would
  // earn no reduction at all; the second updates are precise disjoint
  // register writes and must commute.
  static Task<void> script(mem::CollectSnapshot& s, ProcessId me) {
    co_await s.update(me, me, Val(static_cast<int>(me)));
    co_await s.update(me, me, Val(static_cast<int>(me) + 10));
  }

  Scheduler& scheduler() override { return sched_; }

  std::optional<std::string> verdict(bool complete) override {
    if (complete) {
      for (std::size_t j = 0; j < 3; ++j) {
        auto cell = snap_.peek(j);
        if (!cell || *cell != Val(static_cast<int>(j) + 10)) {
          return "lost update in cell " + std::to_string(j);
        }
      }
    }
    return std::nullopt;
  }

 private:
  Scheduler sched_;
  mem::CollectSnapshot snap_;
};

void expect_parity(const ScheduleExploreResult& por,
                   const ScheduleExploreResult& plain, const std::string& what) {
  EXPECT_EQ(por.exhausted, plain.exhausted) << what;
  EXPECT_EQ(por.violation, plain.violation) << what;
  EXPECT_EQ(por.witness, plain.witness) << what;
  EXPECT_LE(por.executions, plain.executions) << what;
}

// --- serial parity and reduction ----------------------------------------

TEST(Por, TwoByTwoDisjointAnchor) {
  // 2 processes x 2 disjoint writes: 6 interleavings, 4 Mazurkiewicz traces
  // (the opaque first steps are dependent with everything; only the second
  // steps commute).  Sleep sets explore exactly one representative each.
  ScheduleExploreOptions opt;
  auto plain = explore_schedules(register_factory(0, 2, 2), opt);
  ASSERT_TRUE(plain.exhausted);
  EXPECT_EQ(plain.executions, 6u);
  opt.por = true;
  auto por = explore_schedules(register_factory(0, 2, 2), opt);
  expect_parity(por, plain, "2x2 disjoint");
  EXPECT_EQ(por.executions, 4u);
  EXPECT_GT(por.por_skipped, 0u);
  EXPECT_GT(por.footprint_bytes, 0u);
}

TEST(Por, DisjointThreeProcsLargeReduction) {
  ScheduleExploreOptions opt;
  auto plain = explore_schedules(register_factory(0, 3, 4), opt);
  ASSERT_TRUE(plain.exhausted);
  EXPECT_EQ(plain.executions, 34650u);  // 12! / (4!)^3
  opt.por = true;
  auto por = explore_schedules(register_factory(0, 3, 4), opt);
  expect_parity(por, plain, "3x4 disjoint");
  // The reduction target the bench gates on is 2x; disjoint-access worlds
  // collapse far harder than that.
  EXPECT_LT(por.executions * 10, plain.executions);
}

TEST(Por, PlantedFinalStateKeepsLexSmallestWitness) {
  // Violation on a final register state only some truncated leaves reach:
  // both processes stepped exactly twice when the depth bound cut in.
  ScheduleExploreOptions opt;
  opt.max_steps = 4;  // truncate: leaves with differing partial states
  auto plain = explore_schedules(register_factory(0, 2, 3, {2, 2}), opt);
  ASSERT_TRUE(plain.violation.has_value());
  opt.por = true;
  auto por = explore_schedules(register_factory(0, 2, 3, {2, 2}), opt);
  expect_parity(por, plain, "planted disjoint");
}

TEST(Por, MixedSharingKeepsLexSmallestWitness) {
  ScheduleExploreOptions opt;
  auto plain = explore_schedules(
      [] { return std::make_unique<MixedWorld>(2); }, opt);
  ASSERT_TRUE(plain.violation.has_value());
  opt.por = true;
  auto por = explore_schedules(
      [] { return std::make_unique<MixedWorld>(2); }, opt);
  expect_parity(por, plain, "mixed 2");
  EXPECT_LT(por.executions, plain.executions);
}

TEST(Por, MixedThreeProcsNoViolationParity) {
  ScheduleExploreOptions opt;
  opt.max_steps = 7;  // truncated leaves as well as complete ones
  auto plain = explore_schedules(
      [] { return std::make_unique<MixedWorld>(3); }, opt);
  opt.por = true;
  auto por = explore_schedules(
      [] { return std::make_unique<MixedWorld>(3); }, opt);
  expect_parity(por, plain, "mixed 3 truncated");
  EXPECT_LT(por.executions, plain.executions);
  // Shared-register writes conflict with sleeping own-register writers'
  // entries often enough that some sleep entries get woken.
  EXPECT_GT(por.dependent_wakeups, 0u);
}

TEST(Por, CollectSnapshotWritersReduce) {
  ScheduleExploreOptions opt;
  auto plain = explore_schedules(
      [] { return std::make_unique<CollectWorld>(); }, opt);
  ASSERT_TRUE(plain.exhausted);
  ASSERT_FALSE(plain.violation);
  opt.por = true;
  auto por = explore_schedules(
      [] { return std::make_unique<CollectWorld>(); }, opt);
  expect_parity(por, plain, "collect");
  EXPECT_LT(por.executions, plain.executions);
}

TEST(Por, OpaqueAugmentedWorldIsUntouched) {
  // Every augmented-H step is opaque, so POR must walk the identical tree:
  // same executions, zero skips.
  // Two single-component Block-Updates on a small augmented snapshot.
  const auto factory = check::make_world_factory("aug-script:2,u0,u1");
  ScheduleExploreOptions opt;
  auto plain = explore_schedules(factory, opt);
  ASSERT_TRUE(plain.exhausted);
  ASSERT_FALSE(plain.violation);
  opt.por = true;
  auto por = explore_schedules(factory, opt);
  EXPECT_EQ(por.executions, plain.executions);
  EXPECT_EQ(por.por_skipped, 0u);
  EXPECT_EQ(por.exhausted, plain.exhausted);
}

// --- crash branching -----------------------------------------------------

TEST(Por, CrashBranchingParity) {
  ScheduleExploreOptions opt;
  opt.max_crashes = 1;
  opt.max_steps = 8;
  auto plain = explore_schedules(
      [] { return std::make_unique<MixedWorld>(2); }, opt);
  opt.por = true;
  auto por = explore_schedules(
      [] { return std::make_unique<MixedWorld>(2); }, opt);
  expect_parity(por, plain, "mixed 2 crash");
  EXPECT_LT(por.executions, plain.executions);  // still reduces under crashes
}

TEST(Por, CrashBranchingDisjointParity) {
  ScheduleExploreOptions opt;
  opt.max_crashes = 1;
  opt.max_steps = 5;
  auto plain = explore_schedules(register_factory(0, 2, 2), opt);
  opt.por = true;
  auto por = explore_schedules(register_factory(0, 2, 2), opt);
  expect_parity(por, plain, "disjoint crash");
}

// --- parallel explorer ---------------------------------------------------

TEST(Por, ParallelParityAcrossThreadCounts) {
  ScheduleExploreOptions base;
  base.por = true;
  auto serial = explore_schedules(register_factory(0, 3, 3), base);
  ASSERT_TRUE(serial.exhausted);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelExploreOptions opt;
    opt.base = base;
    opt.threads = threads;
    opt.oversubscribe = true;
    opt.serial_probe_executions = 0;  // force the real worker pool
    auto par = parallel_explore_schedules(register_factory(0, 3, 3), opt);
    EXPECT_EQ(par.executions, serial.executions) << threads;
    EXPECT_EQ(par.exhausted, serial.exhausted) << threads;
    EXPECT_EQ(par.violation, serial.violation) << threads;
    EXPECT_EQ(par.witness, serial.witness) << threads;
  }
}

TEST(Por, ParallelParityWithViolationAndCrashes) {
  ScheduleExploreOptions base;
  base.por = true;
  base.max_crashes = 1;
  base.max_steps = 8;
  auto factory = [] { return std::make_unique<MixedWorld>(2); };
  auto serial = explore_schedules(factory, base);
  ASSERT_TRUE(serial.violation.has_value());
  for (std::size_t threads : {2u, 4u, 8u}) {
    ParallelExploreOptions opt;
    opt.base = base;
    opt.threads = threads;
    opt.oversubscribe = true;
    opt.serial_probe_executions = 0;
    auto par = parallel_explore_schedules(factory, opt);
    EXPECT_EQ(par.violation, serial.violation) << threads;
    EXPECT_EQ(par.witness, serial.witness) << threads;
    EXPECT_EQ(par.executions, serial.executions) << threads;
  }
}

// --- composition with dedupe ---------------------------------------------

TEST(Por, ComposesWithDedupe) {
  // Sleep sets are mixed into the state fingerprint, so por+dedupe must
  // stay exhausted and agree on the verdict (executions may legitimately
  // differ: transpositions prune some representatives first).
  ScheduleExploreOptions opt;
  opt.por = true;
  auto por = explore_schedules(register_factory(0, 3, 3), opt);
  opt.dedupe_states = true;
  auto both = explore_schedules(register_factory(0, 3, 3), opt);
  EXPECT_TRUE(both.exhausted);
  EXPECT_EQ(both.violation, por.violation);
  EXPECT_LE(both.executions, por.executions);
}

TEST(Por, ComposesWithDedupeOnViolation) {
  ScheduleExploreOptions opt;
  opt.por = true;
  opt.dedupe_states = true;
  auto factory = [] { return std::make_unique<MixedWorld>(2); };
  auto both = explore_schedules(factory, opt);
  // Dedupe may reroute the witness; the violation itself must survive.
  EXPECT_TRUE(both.violation.has_value());
}

}  // namespace
}  // namespace revisim
