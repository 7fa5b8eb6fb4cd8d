// Protocol-level tests: exhaustive model checking of the consensus and k-set
// protocols on small instances, obstruction-freedom probes, randomized
// stress on larger instances, and the approximate-agreement halving
// invariant.  These are the substrate facts the reproduction's experiments
// build on (EXPERIMENTS.md E7, E10).
#include <gtest/gtest.h>

#include "src/check/protocol_check.h"
#include "src/protocols/approx_agreement.h"
#include "src/protocols/ca_consensus.h"
#include "src/protocols/racing_agreement.h"
#include "src/tasks/task_spec.h"

namespace revisim {
namespace {

using check::explore;
using check::ExploreOptions;
using check::stress;
using proto::ApproxAgreement;
using proto::CAConsensus;
using proto::GroupedKSet;
using proto::RacingAgreement;
using tasks::ApproxAgreementTask;
using tasks::KSetAgreement;

TEST(CAConsensus, SequentialSoloDecidesOwnInput) {
  CAConsensus p(3);
  proto::ProtocolRun run(p, {7, 8, 9});
  ASSERT_TRUE(run.run_solo(1, 1000));
  EXPECT_EQ(run.output(1), std::optional<Val>(8));
}

TEST(CAConsensus, ExhaustiveTwoProcesses) {
  // Full state-space proof for the instance: safety in every reachable
  // configuration and solo termination from every reachable configuration.
  CAConsensus p(2);
  KSetAgreement consensus(1);
  ExploreOptions opt;
  opt.solo_budget = 2000;
  opt.max_depth = 24;
  auto res = explore(p, {0, 1}, consensus, opt);
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.safety_violation) << *res.safety_violation;
  EXPECT_FALSE(res.termination_violation) << *res.termination_violation;
  EXPECT_GT(res.states_visited, 100u);
}

TEST(CAConsensus, ExhaustiveThreeProcessesSafetyOnly) {
  // n = 3 with termination probes at every state is expensive; check safety
  // exhaustively and termination on the initial configuration's subsets.
  CAConsensus p(3);
  KSetAgreement consensus(1);
  ExploreOptions opt;
  opt.check_termination = false;
  opt.max_states = 4'000'000;
  opt.max_depth = 18;
  auto res = explore(p, {0, 1, 1}, consensus, opt);
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.safety_violation) << *res.safety_violation;
}

TEST(CAConsensus, RandomizedStressManyProcesses) {
  CAConsensus p(6);
  KSetAgreement consensus(1);
  auto res = stress(p, {0, 1, 2, 3, 4, 5}, consensus, 300, 12345);
  EXPECT_EQ(res.violations, 0u) << *res.example;
  EXPECT_EQ(res.unfinished, 0u);  // random fair-ish schedules terminate
}

TEST(CAConsensus, SoloTerminationFromAdversarialMidStates) {
  // Obstruction-freedom probe: random partial runs, then solo completion.
  CAConsensus p(4);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    proto::ProtocolRun run(p, {3, 1, 4, 1});
    run.run_random(seed, 20 + seed % 60);  // partial execution
    for (std::size_t i = 0; i < 4; ++i) {
      proto::ProtocolRun probe = run;
      EXPECT_TRUE(probe.run_solo(i, 5000))
          << "process " << i << " stuck, seed " << seed;
    }
  }
}

TEST(GroupedKSet, ExhaustiveThreeProcessesTwoSet) {
  GroupedKSet p(3, 2);
  KSetAgreement task(2);
  ExploreOptions opt;
  opt.solo_budget = 2000;
  opt.x = 1;  // obstruction-freedom; x = 2 would be wait-free 2-process
              // consensus inside a group, which FLP forbids
  opt.max_depth = 14;
  auto res = explore(p, {5, 6, 7}, task, opt);
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.safety_violation) << *res.safety_violation;
  EXPECT_FALSE(res.termination_violation) << *res.termination_violation;
}

TEST(GroupedKSet, TwoSameGroupRunnersMayLivelock) {
  // Complementary negative probe: lockstep scheduling of two processes of
  // one consensus group must be able to run forever (otherwise the group
  // would solve wait-free 2-process consensus).  The checker detects this.
  GroupedKSet p(3, 2);  // group 0 = {0, 2}
  proto::ProtocolRun run(p, {5, 6, 7});
  EXPECT_FALSE(run.run_fair({0, 2}, 5'000));
}

TEST(Racing, FairSubsetsConvergeForEveryX) {
  // Conflict escalation adopts the maximum conflicting value, so processes
  // racing fairly merge values and terminate: racing instances are
  // x-obstruction-free-terminating for every x, which is what the
  // simulation's direct simulators rely on (Theorem 21, second case).
  for (std::size_t x = 1; x <= 4; ++x) {
    RacingAgreement p(4, 3);
    proto::ProtocolRun run(p, {1, 2, 3, 4});
    std::vector<std::size_t> set;
    for (std::size_t i = 0; i < x; ++i) {
      set.push_back(i);
    }
    EXPECT_TRUE(run.run_fair(set, 100'000)) << "x=" << x;
  }
}

TEST(GroupedKSet, StressFiveProcessesTwoSet) {
  GroupedKSet p(5, 2);
  KSetAgreement task(2);
  auto res = stress(p, {1, 2, 3, 4, 5}, task, 200, 777);
  EXPECT_EQ(res.violations, 0u) << *res.example;
}

TEST(Racing, SoloAlwaysDecides) {
  for (std::size_t m = 1; m <= 4; ++m) {
    RacingAgreement p(3, m);
    proto::ProtocolRun run(p, {4, 5, 6});
    EXPECT_TRUE(run.run_solo(2, 1000)) << "m=" << m;
    EXPECT_EQ(run.output(2), std::optional<Val>(6));
  }
}

TEST(Racing, ObstructionFreeFromEveryReachableState) {
  // Termination is what the reduction needs from racing instances, safe or
  // not; probe it exhaustively for a small space-starved instance.
  RacingAgreement p(3, 2);
  KSetAgreement two_set(2);  // 3 processes, 2 values max would be 2-set
  ExploreOptions opt;
  opt.solo_budget = 5000;
  opt.max_states = 500'000;
  opt.max_depth = 12;
  opt.check_termination = true;
  auto res = explore(p, {0, 1, 2}, two_set, opt);
  // Safety may or may not fail (that is E7's subject); termination must not.
  EXPECT_FALSE(res.termination_violation) << *res.termination_violation;
}

TEST(Racing, SafetyBoundaryConsensusTwoProcs) {
  // m = 1 must admit a consensus violation (paper: 1 register never
  // suffices); the checker should find one.
  RacingAgreement starved(2, 1);
  KSetAgreement consensus(1);
  ExploreOptions opt;
  opt.check_termination = false;
  opt.max_depth = 30;
  auto res1 = explore(starved, {0, 1}, consensus, opt);
  EXPECT_TRUE(res1.safety_violation.has_value())
      << "racing with m=1 unexpectedly safe for 2-process consensus";
}

TEST(ApproxAgreement, SequentialConvergence) {
  ApproxAgreement p(3, 3, 0.01);
  proto::ProtocolRun run(p,
                         {to_fixed(0.0), to_fixed(1.0), to_fixed(0.5)});
  ASSERT_TRUE(run.run_fair({0, 1, 2}, 100'000));
  ApproxAgreementTask task(0.01);
  auto v = task.validate(
      std::vector<Val>{to_fixed(0.0), to_fixed(1.0), to_fixed(0.5)},
      run.outputs());
  EXPECT_TRUE(v.ok) << v.reason;
}

class ApproxStress
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(ApproxStress, RandomSchedulesStayWithinEpsilon) {
  const auto [n, eps] = GetParam();
  ApproxAgreement p(n, n, eps);
  ApproxAgreementTask task(eps);
  std::vector<Val> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(to_fixed(static_cast<double>(i % 2)));  // worst spread
  }
  auto res = stress(p, inputs, task, 150, 42 + n, 500'000);
  EXPECT_EQ(res.violations, 0u) << *res.example;
  EXPECT_EQ(res.unfinished, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ApproxStress,
    ::testing::Values(std::make_tuple(std::size_t{2}, 0.25),
                      std::make_tuple(std::size_t{3}, 0.1),
                      std::make_tuple(std::size_t{4}, 0.01),
                      std::make_tuple(std::size_t{5}, 0.001)));

TEST(ApproxAgreement, WaitFreeEvenWhenSpaceStarved) {
  // m < n: correctness degrades, wait-freedom must not.
  ApproxAgreement p(4, 2, 0.1);
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    proto::ProtocolRun run(
        p, {to_fixed(0.0), to_fixed(1.0), to_fixed(1.0), to_fixed(0.0)});
    EXPECT_TRUE(run.run_random(seed, 500'000)) << "seed " << seed;
  }
}

TEST(ApproxAgreement, ValidityUnderSoloRuns) {
  ApproxAgreement p(2, 2, 0.05);
  proto::ProtocolRun run(p, {to_fixed(0.25), to_fixed(0.75)});
  ASSERT_TRUE(run.run_solo(0, 10'000));
  // A solo run must output its own input (no other values visible).
  const double out = static_cast<double>(*run.output(0)) /
                     static_cast<double>(Val{2} << 32);
  EXPECT_NEAR(out, 0.25, 1e-6);
}

TEST(ProtocolRun, StateKeyDistinguishesConfigurations) {
  CAConsensus p(2);
  proto::ProtocolRun a(p, {0, 1});
  proto::ProtocolRun b = a;
  EXPECT_EQ(a.state_key(), b.state_key());
  b.step(0);
  EXPECT_NE(a.state_key(), b.state_key());
}

}  // namespace
}  // namespace revisim
