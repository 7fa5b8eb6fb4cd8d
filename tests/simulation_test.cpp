// Tests for the revisionist simulation (Section 4): single- and multi-
// simulator runs over correct and space-starved protocols, wait-freedom,
// revision bookkeeping, and full Lemma-26 replay validation of every run.
#include <gtest/gtest.h>

#include "src/protocols/approx_agreement.h"
#include "src/protocols/ca_consensus.h"
#include "src/protocols/racing_agreement.h"
#include "src/runtime/adversary.h"
#include "src/sim/driver.h"
#include "src/sim/replay.h"
#include "src/tasks/task_spec.h"

namespace revisim {
namespace {

using proto::ApproxAgreement;
using proto::CAConsensus;
using proto::RacingAgreement;
using runtime::RandomAdversary;
using runtime::RoundRobinAdversary;
using runtime::Scheduler;
using sim::SimulationDriver;
using sim::validate_simulation;

TEST(Simulation, SoloCoveringSimulatorOnCorrectConsensus) {
  // f = 1 covering simulator, protocol with m = n = 3: the simulator builds
  // a full block update and outputs p_{1,1}'s decision, which must be its
  // own input (validity with a single input value).
  Scheduler sched;
  CAConsensus protocol(3);
  SimulationDriver driver(sched, protocol, {42});
  RoundRobinAdversary adv;
  ASSERT_TRUE(driver.run(adv));
  ASSERT_TRUE(driver.finished(0));
  EXPECT_EQ(driver.outcome(0).output, 42);
  auto report = validate_simulation(driver);
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_GE(report.revisions_validated, 1u);
}

TEST(Simulation, SoloCoveringSimulatorOnRacing) {
  Scheduler sched;
  RacingAgreement protocol(4, 4);
  SimulationDriver driver(sched, protocol, {7});
  RoundRobinAdversary adv;
  ASSERT_TRUE(driver.run(adv));
  EXPECT_EQ(driver.outcome(0).output, 7);
  auto report = validate_simulation(driver);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

class SimulationStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulationStress, TwoCoveringSimulatorsOnStarvedRacing) {
  // The reduction proper: f = 2 simulators, racing consensus starved to
  // m = 2 components among n = 4 simulated processes (the paper's bound for
  // 2 wait-free simulators: m <= floor(n/2)).  The run must terminate under
  // every schedule (wait-freedom, Lemma 32) and the replay must certify it
  // corresponds to a legal execution of the protocol; the *outputs* may
  // disagree, which is exactly the paper's contrapositive.
  const std::uint64_t seed = GetParam();
  Scheduler sched;
  RacingAgreement protocol(4, 2);
  SimulationDriver driver(sched, protocol, {10, 20});
  RandomAdversary adv(seed);
  ASSERT_TRUE(driver.run(adv, 2'000'000)) << "not wait-free under seed "
                                          << seed;
  auto report = validate_simulation(driver);
  ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                           << report.violations.front();
  // Validity always holds (outputs are inputs of some process).
  for (Val y : driver.outputs()) {
    EXPECT_TRUE(y == 10 || y == 20) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationStress,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(Simulation, ManufacturesConsensusViolations) {
  // Because wait-free 2-process consensus is impossible, some schedule must
  // make the starved protocol's simulation output two values.  Find one.
  tasks::KSetAgreement consensus(1);
  std::size_t violations = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Scheduler sched;
    RacingAgreement protocol(4, 2);
    SimulationDriver driver(sched, protocol, {10, 20});
    RandomAdversary adv(seed);
    if (!driver.run(adv, 2'000'000)) {
      continue;
    }
    auto verdict = consensus.validate(driver.inputs(), driver.outputs());
    if (!verdict.ok) {
      ++violations;
      // Crucially the violating execution is still a *legal* execution of
      // the protocol: the protocol itself is broken, not the simulation.
      auto report = validate_simulation(driver);
      EXPECT_TRUE(report.ok()) << report.violations.front();
    }
  }
  EXPECT_GT(violations, 0u)
      << "no consensus violation surfaced; the reduction demo lost its bite";
}

class MixedSimulatorStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MixedSimulatorStress, CoveringPlusDirectSimulators) {
  // x = 1 direct simulator plus two covering simulators (f = 3, d = 1) over
  // a starved racing instance: n = 2m + 1 simulated processes.
  const std::uint64_t seed = GetParam();
  Scheduler sched;
  RacingAgreement protocol(5, 2);
  SimulationDriver::Options opt;
  opt.d = 1;
  SimulationDriver driver(sched, protocol, {1, 2, 3}, opt);
  RandomAdversary adv(seed);
  ASSERT_TRUE(driver.run(adv, 4'000'000)) << "seed " << seed;
  auto report = validate_simulation(driver);
  ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                           << report.violations.front();
  for (Val y : driver.outputs()) {
    EXPECT_TRUE(y == 1 || y == 2 || y == 3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedSimulatorStress,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(Simulation, ApproxAgreementUnderTwoSimulators) {
  // Theorem 21(1) shape: 2 simulators over starved approximate agreement;
  // wait-free termination plus replay validity; epsilon may break.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Scheduler sched;
    ApproxAgreement protocol(4, 2, 0.05);
    SimulationDriver driver(sched, protocol, {to_fixed(0.0), to_fixed(1.0)});
    RandomAdversary adv(seed);
    ASSERT_TRUE(driver.run(adv, 2'000'000)) << "seed " << seed;
    auto report = validate_simulation(driver);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.violations.front();
  }
}

TEST(Simulation, PartitionShapes) {
  auto p = sim::Partition::make(7, 3, 1, 3);
  ASSERT_EQ(p.groups.size(), 3u);
  EXPECT_EQ(p.groups[0], (sim::Partition::Group{0, 1, 2}));
  EXPECT_EQ(p.groups[1], (sim::Partition::Group{3, 4, 5}));
  EXPECT_EQ(p.groups[2], (sim::Partition::Group{6}));
  EXPECT_THROW(sim::Partition::make(5, 3, 1, 3), std::invalid_argument);
}

TEST(Simulation, RevisionsAreRecordedAndBounded) {
  Scheduler sched;
  RacingAgreement protocol(4, 2);
  SimulationDriver driver(sched, protocol, {10, 20});
  RandomAdversary adv(1);
  ASSERT_TRUE(driver.run(adv, 2'000'000));
  // Every covering simulator that finished via the final run revised the
  // past at least m-1 times total across its construct(m) (here m = 2).
  for (runtime::ProcessId i = 0; i < 2; ++i) {
    if (driver.outcome(i).output_from_final_run) {
      EXPECT_GE(driver.covering_stats(i)->revisions, 1u);
    }
  }
  for (const auto& rev : driver.all_revisions()) {
    // Hidden updates must target components of the used block update, which
    // had m-1 = 1 component; final update targets the other.
    EXPECT_TRUE(rev.final_update.has_value() || rev.early_output.has_value());
  }
}

TEST(Simulation, StepComplexityWithinLemma31Budget) {
  // Lemma 31: with only covering simulators every simulator applies at most
  // 2 b(i) + 1 operations on M.  For f = 2, m = 2: a(1)=0, a(2)=3, b(1)=3,
  // b(2)=a(2)(a(1)+1)=... the bound is loose; we check a comfortable cap
  // and that runs are far below the paper's 2^{f m^2} step bound.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Scheduler sched;
    RacingAgreement protocol(4, 2);
    SimulationDriver driver(sched, protocol, {10, 20});
    RandomAdversary adv(seed);
    ASSERT_TRUE(driver.run(adv, 2'000'000));
    const double cap = std::pow(2.0, 2 * 2 * 2);  // 2^{f m^2} M-operations
    for (runtime::ProcessId i = 0; i < 2; ++i) {
      const auto* st = driver.covering_stats(i);
      EXPECT_LE(st->block_updates + st->scans, cap) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace revisim
