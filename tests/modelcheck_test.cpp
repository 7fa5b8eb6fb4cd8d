// Exhaustive schedule exploration of the augmented snapshot on tiny
// instances: every interleaving of two (and bounded three) real processes
// must produce an execution passing all §3.3 linearization checks.
#include <gtest/gtest.h>

#include "src/augmented/augmented_snapshot.h"
#include "src/check/model_check.h"
#include "src/check/parallel_explore.h"
#include "src/check/worlds.h"
#include "src/runtime/scheduler.h"

namespace revisim {
namespace {

using aug::AugmentedSnapshot;
using check::ExplorableWorld;
using check::explore_schedules;
using check::ScheduleExploreOptions;
using runtime::ProcessId;
using runtime::Scheduler;
using runtime::Task;

Task<void> bu_script(AugmentedSnapshot& m, ProcessId me,
                     std::vector<std::pair<std::size_t, Val>> writes) {
  for (auto [j, v] : writes) {
    std::vector<std::size_t> comps{j};
    std::vector<Val> vals{v};
    co_await m.BlockUpdate(me, comps, vals);
  }
}

// The registry's augmented-snapshot script worlds (src/check/worlds.h):
// one op word per process, verdict = the §3.3 linearizer.
const char* const kTwoSingles = "aug-script:2,u0,u1";
const char* const kWideVsScan = "aug-script:2,w,ss";
const char* const kWideVsWide = "aug-script:2,w,w";
const char* const kThreeMixed = "aug-script:2,u0,w,ss";

TEST(ScheduleExplorer, TwoSingleBlockUpdatesExhaustive) {
  auto res = explore_schedules(check::make_world_factory(kTwoSingles));
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.violation) << *res.violation << " witness size "
                              << res.witness.size();
  // Not C(12,6) = 924: q2's Block-Update returns early (5 steps, skipping
  // the helping-read scan) on the branches where q1 makes it yield, so the
  // deterministic leaf count is smaller.  The exact value is a regression
  // anchor: it changes iff the augmented snapshot's step structure changes.
  EXPECT_EQ(res.executions, 577u);
}

TEST(ScheduleExplorer, WideBlockUpdateVersusScanExhaustive) {
  auto res = explore_schedules(check::make_world_factory(kWideVsScan));
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.violation) << *res.violation;
  EXPECT_GT(res.executions, 100u);
}

TEST(ScheduleExplorer, WideVersusWideExhaustive) {
  auto res = explore_schedules(check::make_world_factory(kWideVsWide));
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.violation) << *res.violation;
}

TEST(ScheduleExplorer, ThreeProcessesBounded) {
  ScheduleExploreOptions opt;
  opt.max_executions = 60'000;
  auto res = explore_schedules(check::make_world_factory(kThreeMixed), opt);
  EXPECT_FALSE(res.violation) << *res.violation;
  EXPECT_GE(res.executions, 10'000u);
}

// The explorer must actually find planted violations.
class BrokenWorld final : public ExplorableWorld {
 public:
  BrokenWorld() {
    m_ = std::make_unique<AugmentedSnapshot>(sched_, "M", 2, 2);
    sched_.spawn(bu_script(*m_, 0, {{0, 1}}), "q1");
    sched_.spawn(bu_script(*m_, 1, {{0, 2}}), "q2");
  }
  Scheduler& scheduler() override { return sched_; }
  std::optional<std::string> verdict(bool complete) override {
    // Deliberately bogus property: "component 0 never holds 2".
    if (complete && m_->peek_view()[0] == std::optional<Val>(2)) {
      return "component 0 holds 2";
    }
    return std::nullopt;
  }

 private:
  Scheduler sched_;
  std::unique_ptr<AugmentedSnapshot> m_;
};

// The parallel explorer must reproduce the serial explorer bit-for-bit on
// the seed instances, for any thread count.
TEST(ScheduleExplorer, ParallelParityOnSeedInstances) {
  struct Case {
    const char* world;
    std::size_t max_executions;
  };
  const Case cases[] = {
      {kTwoSingles, 500'000},
      {kWideVsScan, 500'000},
      {kWideVsWide, 500'000},
      {kThreeMixed, 20'000},  // cap exercised in the merge
  };
  for (const Case& c : cases) {
    auto factory = check::make_world_factory(c.world);
    check::ScheduleExploreOptions base;
    base.max_executions = c.max_executions;
    auto serial = explore_schedules(factory, base);
    for (std::size_t threads : {1u, 2u, 4u}) {
      check::ParallelExploreOptions opt;
      opt.base = base;
      opt.threads = threads;
      auto par = check::parallel_explore_schedules(factory, opt);
      const auto what =
          std::string(c.world) + " threads=" + std::to_string(threads);
      EXPECT_EQ(par.executions, serial.executions) << what;
      EXPECT_EQ(par.exhausted, serial.exhausted) << what;
      EXPECT_EQ(par.violation, serial.violation) << what;
      EXPECT_EQ(par.witness, serial.witness) << what;
    }
  }
}

TEST(ScheduleExplorer, FindsPlantedViolationWithWitness) {
  auto res =
      explore_schedules([] { return std::make_unique<BrokenWorld>(); });
  ASSERT_TRUE(res.violation.has_value());
  EXPECT_FALSE(res.witness.empty());
  // Replaying the witness reproduces the violation deterministically.
  BrokenWorld world;
  for (ProcessId pid : res.witness) {
    world.scheduler().run_step(pid);
  }
  EXPECT_TRUE(world.verdict(world.scheduler().all_done()).has_value());
}

}  // namespace
}  // namespace revisim
