// Robustness: how the simulation and the augmented snapshot behave at the
// edges - non-obstruction-free protocols (divergence must be detected, not
// looped on), Scan starvation under an infinite Block-Update stream (the
// §3.2 "non-blocking but not wait-free" distinction), argument validation,
// and an exhaustive-schedule sweep of a complete tiny simulation.
#include <gtest/gtest.h>

#include "src/augmented/augmented_snapshot.h"
#include "src/check/model_check.h"
#include "src/check/parallel_explore.h"
#include "src/check/worlds.h"
#include "src/protocols/racing_agreement.h"
#include "src/protocols/sim_process.h"
#include "src/runtime/adversary.h"
#include "src/runtime/scheduler.h"
#include "src/sim/driver.h"
#include "src/sim/replay.h"

namespace revisim {
namespace {

using aug::AugmentedSnapshot;
using runtime::ProcessId;
using runtime::Scheduler;
using runtime::Task;

// A protocol that is *not* obstruction-free: it never outputs, endlessly
// rewriting component 0 with a growing counter.
class NeverDecide final : public proto::Protocol {
 public:
  explicit NeverDecide(std::size_t m) : m_(m) {}
  [[nodiscard]] std::string name() const override { return "never-decide"; }
  [[nodiscard]] std::size_t components() const override { return m_; }
  [[nodiscard]] std::unique_ptr<proto::SimProcess> make(std::size_t,
                                                        Val) const override {
    class P final : public proto::SimProcess {
     public:
      proto::SimAction on_scan(const View&) override {
        return proto::SimAction::make_update(0, counter_++);
      }
      [[nodiscard]] std::unique_ptr<proto::SimProcess> clone() const override {
        return std::make_unique<P>(*this);
      }
      [[nodiscard]] std::string state_key() const override {
        return "N" + std::to_string(counter_);
      }

     private:
      Val counter_ = 0;
    };
    return std::make_unique<P>();
  }

 private:
  std::size_t m_;
};

TEST(Robustness, NonObstructionFreeProtocolIsDetected) {
  // The covering simulator's local solo simulations are budgeted; feeding a
  // protocol that never terminates solo must raise SimulationDiverged
  // rather than hang.
  Scheduler sched;
  NeverDecide protocol(2);
  sim::SimulationDriver::Options opt;
  opt.local_budget = 2'000;
  sim::SimulationDriver driver(sched, protocol, {1}, opt);
  runtime::RoundRobinAdversary adv;
  EXPECT_THROW(driver.run(adv), sim::SimulationDiverged);
}

Task<void> endless_updates(AugmentedSnapshot& m, ProcessId me) {
  for (Val i = 0;; ++i) {
    std::vector<std::size_t> comps{0};
    std::vector<Val> vals{i};
    co_await m.BlockUpdate(me, comps, vals);
  }
}

Task<void> one_scan(AugmentedSnapshot& m, ProcessId me, bool& finished) {
  co_await m.Scan(me);
  finished = true;
}

TEST(Robustness, ScanStarvesUnderInfiniteBlockUpdates) {
  // §3.2: Scan is non-blocking, not wait-free - an infinite stream of
  // concurrent Block-Updates may starve it.  Alternate one full
  // Block-Update between every pair of q2's steps: the double collect
  // never stabilizes.
  Scheduler sched;
  AugmentedSnapshot m(sched, "M", 1, 2);
  bool finished = false;
  sched.spawn(endless_updates(m, 0), "q1");
  sched.spawn(one_scan(m, 1, finished), "q2");
  std::vector<ProcessId> pattern;
  pattern.push_back(1);  // q2 first collect
  for (int round = 0; round < 50; ++round) {
    for (int s = 0; s < 6; ++s) {
      pattern.push_back(0);  // a full interfering Block-Update
    }
    pattern.push_back(1);  // q2 L-write
    pattern.push_back(1);  // q2 confirming collect: invalidated again
  }
  runtime::ScriptedAdversary adv(pattern, /*stop_at_end=*/true);
  EXPECT_FALSE(sched.run(adv, pattern.size() + 10, false));
  EXPECT_FALSE(finished);
  // But Block-Updates stayed wait-free throughout.
  EXPECT_GE(sched.steps_taken(0), 6u * 50u);
}

TEST(Robustness, ScanCompletesOnceUpdatesStop) {
  // Complement: the same starving scan finishes two steps after the stream
  // stops (non-blocking).
  Scheduler sched;
  AugmentedSnapshot m(sched, "M", 1, 2);
  bool finished = false;
  sched.spawn(endless_updates(m, 0), "q1");
  sched.spawn(one_scan(m, 1, finished), "q2");
  std::vector<ProcessId> pattern{1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1};
  runtime::ScriptedAdversary adv(pattern, /*stop_at_end=*/true);
  sched.run(adv, pattern.size() + 1, false);
  EXPECT_TRUE(finished);
}

TEST(Robustness, DriverValidatesArguments) {
  Scheduler sched;
  proto::RacingAgreement protocol(4, 2);
  sim::SimulationDriver::Options opt;
  opt.d = 3;  // d > f
  EXPECT_THROW(sim::SimulationDriver(sched, protocol, {1, 2}, opt),
               std::invalid_argument);
  EXPECT_THROW(sim::SimulationDriver(sched, protocol, {}),
               std::invalid_argument);
  // n too small for the partition.
  sim::SimulationDriver::Options opt2;
  opt2.n = 3;
  EXPECT_THROW(sim::SimulationDriver(sched, protocol, {1, 2}, opt2),
               std::invalid_argument);
}

// Exhaustive-schedule sweeps of a complete tiny simulation: racing(n=2,m=1)
// under two simulators, d of them direct (the registry's sim-racing world,
// src/check/worlds.h); every interleaving must terminate, replay to a legal
// execution, and produce valid outputs.
auto tiny_sim_factory(std::size_t d) {
  return check::make_world_factory("sim-racing:2,1," + std::to_string(d) +
                                   ",1");
}

TEST(Robustness, ExhaustiveTinySimulationCoveringOnly) {
  check::ScheduleExploreOptions opt;
  opt.max_steps = 64;
  opt.max_executions = 400'000;
  auto res = check::explore_schedules(tiny_sim_factory(0), opt);
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.violation) << *res.violation;
  // m = 1 keeps the simulators short; the tree is small but complete.
  EXPECT_EQ(res.executions, 20u);
}

TEST(Robustness, ExhaustiveTinySimulationWithDirectSimulator) {
  // One covering + one direct simulator: the direct simulator's process
  // races rounds against the covering simulator's, giving a deeper tree.
  check::ScheduleExploreOptions opt;
  opt.max_steps = 160;
  opt.max_executions = 400'000;
  auto res = check::explore_schedules(tiny_sim_factory(1), opt);
  EXPECT_TRUE(res.exhausted);
  EXPECT_FALSE(res.violation) << *res.violation;
  EXPECT_EQ(res.executions, 3'605u);
}

TEST(Robustness, ParallelParityOnTinySimulations) {
  // Whole-simulation worlds (driver + simulators + validator verdicts) under
  // the parallel explorer: results must match the serial sweep bit-for-bit
  // for every thread count.  On the register substrate the tree is far
  // larger, so that sweep is capped.
  struct Case {
    std::string world;
    std::size_t max_steps;
    std::size_t max_executions;
  };
  for (const Case& c : {Case{"sim-racing:2,1,0,1", 64, 400'000},
                        Case{"sim-racing:2,1,1,1", 160, 400'000},
                        Case{"sim-racing:2,1,0,1,registers", 160, 3'000}}) {
    check::ScheduleExploreOptions base;
    base.max_steps = c.max_steps;
    base.max_executions = c.max_executions;
    auto factory = check::make_world_factory(c.world);
    auto serial = check::explore_schedules(factory, base);
    EXPECT_FALSE(serial.violation) << c.world << ": " << *serial.violation;
    for (std::size_t threads : {1u, 2u, 4u}) {
      check::ParallelExploreOptions opt;
      opt.base = base;
      opt.threads = threads;
      auto par = check::parallel_explore_schedules(factory, opt);
      const auto what = c.world + " threads=" + std::to_string(threads);
      EXPECT_EQ(par.executions, serial.executions) << what;
      EXPECT_EQ(par.exhausted, serial.exhausted) << what;
      EXPECT_EQ(par.violation, serial.violation) << what;
      EXPECT_EQ(par.witness, serial.witness) << what;
    }
  }
}

}  // namespace
}  // namespace revisim
