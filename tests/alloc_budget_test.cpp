// Heap allocations of the registry worlds between world build and leaf.
//
// The explorers rewind a world to a branch point by copying its arena back
// (src/util/pool.h, src/check/explore_core.h).  That is sound only while
// the world takes no heap memory, so the engine watches the library's heap
// counter around every build, step and fingerprint and replays instead once
// it moves.  These tests read the same counter and pin 0 heap allocations
// in the build and the steps of the paper's worlds, so that every one of
// them is walked in place; they check that a walk of each builds one world
// and nothing more, and hold whole executions, verdict included, to a
// budget.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/check/model_check.h"
#include "src/check/worlds.h"
#include "src/protocols/racing_agreement.h"
#include "src/runtime/adversary.h"
#include "src/runtime/trace.h"
#include "src/sim/driver.h"
#include "src/sim/replay.h"
#include "src/util/pool.h"

namespace revisim {
namespace {

struct HeapUse {
  std::uint64_t build = 0;
  std::uint64_t steps = 0;
};

struct Spec {
  std::string world;
  bool fingerprints;  // dedupe-capable: fingerprints count as steps
};

// The simulation at several (n,k,x,m), then the augmented-snapshot worlds.
const Spec kSpecs[] = {
    {"sim-racing:4,3,0,1", false}, {"sim-racing:6,2,0,2", false},
    {"sim-racing:9,2,0,3", false}, {"sim-racing:2,1,1,1", false},
    {"aug-bu:2,2,6", true},        {"aug-script:2,u0s,u1ss", true},
};

// Runs `executions` executions of `spec` after as many warm-up ones, each
// in a fresh arena like an explorer job, along schedules a fixed generator
// picks (one crash entry in every third execution), and counts the heap
// allocations made while building the worlds and while stepping and
// fingerprinting them.  Like the explorer, it makes those calls inside a
// capture window.
HeapUse heap_use(const Spec& spec, std::size_t executions) {
  const auto factory = check::make_world_factory(spec.world);
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  HeapUse use;
  std::vector<runtime::ProcessId> runnable;
  for (std::size_t e = 0; e < 2 * executions; ++e) {
    util::ArenaScope arena;
    const bool measured = e >= executions;
    std::uint64_t mark = util::heap_allocations();
    std::unique_ptr<check::ExplorableWorld> world;
    {
      util::CaptureWindow window;
      world = factory();
    }
    runtime::Scheduler& sched = world->scheduler();
    sched.set_recording(false);
    if (measured) {
      use.build += util::heap_allocations() - mark;
    }
    bool crash_left = e % 3 == 0;
    for (std::size_t depth = 0; depth < 10'000; ++depth) {
      sched.runnable_into(runnable);
      if (runnable.empty()) {
        break;
      }
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      runtime::ProcessId entry = runnable[(rng >> 33) % runnable.size()];
      if (crash_left && (rng >> 20) % 7 == 0) {
        entry = runtime::make_crash_entry(entry);
        crash_left = false;
      }
      mark = util::heap_allocations();
      {
        util::CaptureWindow window;
        runtime::apply_schedule_entry(sched, entry);
        if (spec.fingerprints) {
          (void)world->fingerprint();
        }
      }
      if (measured) {
        use.steps += util::heap_allocations() - mark;
      }
    }
  }
  return use;
}

TEST(AllocBudget, RegistryWorldsBuildAndStepWithoutTheHeap) {
  for (const Spec& spec : kSpecs) {
    SCOPED_TRACE(spec.world);
    const HeapUse use = heap_use(spec, 60);
    EXPECT_EQ(use.build, 0u);
    EXPECT_EQ(use.steps, 0u);
  }
}

// Whole executions, verdict and explorer bookkeeping included, as the
// end-to-end benchmark's sim-covering workload runs them: the verdict runs
// in the arena like the steps, so what reaches the heap is the explorer's
// amortized bookkeeping.
TEST(AllocBudget, SimCoveringExecutionsStayWithinBudget) {
  constexpr double kBudgetPerExecution = 1;
  const auto factory = check::make_world_factory("sim-racing:4,3,0,1");
  check::ScheduleExploreOptions opt;
  // A first run takes the one-time allocations (function-local statics).
  opt.max_executions = 200;
  ASSERT_TRUE(check::explore_schedules(factory, opt).ok());

  opt.max_executions = 5'000;
  const std::uint64_t before = util::heap_allocations();
  const check::ScheduleExploreResult res =
      check::explore_schedules(factory, opt);
  const std::uint64_t allocations = util::heap_allocations() - before;
  ASSERT_TRUE(res.ok()) << *res.violation;
  ASSERT_EQ(res.executions, opt.max_executions);
  const double per_execution =
      static_cast<double>(allocations) / static_cast<double>(res.executions);
  RecordProperty("allocations_per_execution", std::to_string(per_execution));
  EXPECT_LE(per_execution, kBudgetPerExecution)
      << allocations << " heap allocations over " << res.executions
      << " executions";
}

// Heap allocations of one call, made outside a capture window so that each
// one reaches the counter; the call runs once untimed first, so that
// one-time allocations (function-local statics) are not counted.
template <typename Call>
std::uint64_t allocations_of(const Call& call) {
  call();
  const std::uint64_t before = util::heap_allocations();
  call();
  return util::heap_allocations() - before;
}

// The leaf verdicts, per call: the §3.3 linearizer and the Lemma-26
// validator borrow what they only read from the op log and build each
// table once.  A budget is the count the checkers make today, so a change
// that adds a copy or a rebuilt table fails here.
TEST(AllocBudget, LeafVerdictsStayWithinBudget) {
  {
    // A sim-racing:4,3,0,1 leaf (the sim-covering workload's world): four
    // Scans, no Block-Update and no revision.
    SCOPED_TRACE("validate_simulation, sim-racing:4,3,0,1");
    runtime::Scheduler sched;
    proto::RacingAgreement protocol(4, 1);
    sim::SimulationDriver::Options opt;
    opt.n = 4;
    sim::SimulationDriver driver(sched, protocol, {10, 20, 30, 40}, opt);
    runtime::RoundRobinAdversary adv;
    ASSERT_TRUE(driver.run(adv));
    bool ok = false;
    const std::uint64_t n = allocations_of(
        [&] { ok = sim::validate_simulation(driver).ok(); });
    EXPECT_TRUE(ok);
    EXPECT_LE(n, 9u);
  }
  {
    // An aug-script:2,u0s,u1ss leaf, whose verdict is the linearizer alone.
    SCOPED_TRACE("linearize, aug-script:2,u0s,u1ss");
    const auto world = check::make_world_factory("aug-script:2,u0s,u1ss")();
    world->scheduler().set_recording(false);
    runtime::RoundRobinAdversary adv;
    ASSERT_TRUE(world->scheduler().run(adv));
    bool ok = false;
    const std::uint64_t n =
        allocations_of([&] { ok = !world->verdict(true).has_value(); });
    EXPECT_TRUE(ok);
    EXPECT_LE(n, 7u);
  }
  {
    // The run bench_micro's BM_ReplayValidation validates: 12 linearized
    // ops and one revision.
    SCOPED_TRACE("validate_simulation, racing(4,2) seed 3");
    runtime::Scheduler sched;
    proto::RacingAgreement protocol(4, 2);
    sim::SimulationDriver driver(sched, protocol, {10, 20});
    runtime::RandomAdversary adv(3);
    ASSERT_TRUE(driver.run(adv, 10'000'000));
    sim::ReplayReport report;
    const std::uint64_t n =
        allocations_of([&] { report = sim::validate_simulation(driver); });
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.linearized_ops, 12u);
    EXPECT_EQ(report.revisions_validated, 1u);
    EXPECT_LE(n, 19u);
  }
}

TEST(AllocBudget, HeapCounterSeesEveryFormOfOperatorNew) {
  const std::uint64_t before = util::heap_allocations();
  const std::uint64_t bytes = util::heap_allocated_bytes();
  auto one = std::make_unique<std::uint64_t>(1);
  auto many = std::make_unique<std::uint64_t[]>(4);
  std::vector<char> chars(100);
  EXPECT_EQ(util::heap_allocations() - before, 3u);
  EXPECT_EQ(*one + many[3] + chars.size(), 101u);
  EXPECT_EQ(util::heap_allocated_bytes() - bytes, 8u + 32u + 100u);
}

// With nothing reaching the heap, a walk builds its one world and rewinds
// it in place at every backtrack; replay_steps_saved reports the steps that
// saved.
TEST(AllocBudget, WalksOfTheRegistryWorldsBuildOneWorld) {
  for (const Spec& spec : kSpecs) {
    SCOPED_TRACE(spec.world);
    const auto bare = check::make_world_factory(spec.world);
    std::size_t builds = 0;
    const auto counted = [&] {
      ++builds;
      return bare();
    };
    check::ScheduleExploreOptions opt;
    opt.max_executions = 2'000;
    opt.max_steps = 1'000;  // deep enough for every spec above
    const auto res = check::explore_schedules(counted, opt);
    ASSERT_TRUE(res.ok()) << *res.violation;
    EXPECT_EQ(builds, 1u);
    EXPECT_GT(res.replay_steps_saved, res.executions);
  }
}

// Witness files and the distributed worker's hello hand outside text to
// make_world_factory, so parsing a spec builds nothing whose size a
// parameter sets: a million simulators cost the parse no more than two.
TEST(AllocBudget, ParsingAWorldSpecBuildsNoWorld) {
  const std::uint64_t before = util::heap_allocated_bytes();
  const auto factory =
      check::make_world_factory("sim-racing:1000001,1000000,1000001,1");
  EXPECT_LE(util::heap_allocated_bytes() - before, 4096u);
  EXPECT_TRUE(static_cast<bool>(factory));
}

}  // namespace
}  // namespace revisim
