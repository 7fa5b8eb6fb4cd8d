// Negative tests: the §3.3 linearizer and the Lemma-26 replay validator must
// actually *reject* corrupted histories.  A checker that never fails is no
// checker; each test takes a healthy recorded execution, tampers with one
// aspect the paper's lemmas govern, and expects a violation.
#include <gtest/gtest.h>

#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/linearizer.h"
#include "src/protocols/racing_agreement.h"
#include "src/runtime/adversary.h"
#include "src/runtime/scheduler.h"
#include "src/sim/driver.h"
#include "src/sim/replay.h"

namespace revisim {
namespace {

using aug::AugmentedSnapshot;
using aug::OpLog;
using runtime::ProcessId;
using runtime::Scheduler;
using runtime::Task;

Task<void> mixed_ops(AugmentedSnapshot& m, ProcessId me) {
  std::vector<std::size_t> c1{me % m.components()};
  std::vector<Val> v1{Val(100 + me)};
  co_await m.BlockUpdate(me, c1, v1);
  co_await m.Scan(me);
  std::vector<std::size_t> c2{(me + 1) % m.components()};
  std::vector<Val> v2{Val(200 + me)};
  co_await m.BlockUpdate(me, c2, v2);
}

OpLog healthy_log() {
  Scheduler sched;
  AugmentedSnapshot m(sched, "M", 2, 2);
  sched.spawn(mixed_ops(m, 0), "q1");
  sched.spawn(mixed_ops(m, 1), "q2");
  runtime::RandomAdversary adv(5);
  EXPECT_TRUE(sched.run(adv));
  auto lin = aug::linearize(m.log(), 2);
  EXPECT_TRUE(lin.ok());
  return m.log();  // copy
}

TEST(LinearizerNegative, CorruptedScanResultRejected) {
  OpLog log = healthy_log();
  ASSERT_FALSE(log.scans.empty());
  log.scans[0].returned[0] = Val{424242};
  auto lin = aug::linearize(log, 2);
  EXPECT_FALSE(lin.ok());
}

TEST(LinearizerNegative, CorruptedBlockUpdateViewRejected) {
  OpLog log = healthy_log();
  for (auto& b : log.block_updates) {
    if (b.completed && !b.yielded) {
      b.returned.assign(2, Val{424242});
      auto lin = aug::linearize(log, 2);
      EXPECT_FALSE(lin.ok());
      return;
    }
  }
  FAIL() << "no atomic Block-Update in the healthy log";
}

TEST(LinearizerNegative, FakeYieldWithoutInterferenceRejected) {
  OpLog log = healthy_log();
  // Mark q1's first Block-Update as yielded: q1 has no smaller-id
  // competitor, so Theorem 20's check must fire.
  for (auto& b : log.block_updates) {
    if (b.process == 0 && b.completed) {
      b.yielded = true;
      auto lin = aug::linearize(log, 2);
      EXPECT_FALSE(lin.ok());
      return;
    }
  }
  FAIL() << "q1 has no Block-Update in the healthy log";
}

TEST(LinearizerNegative, TamperedTimestampBreaksLemma12) {
  OpLog log = healthy_log();
  // A timestamp from the far future makes the Update linearize after X of
  // every later batch - outside its own (H, X] interval.
  for (auto& b : log.block_updates) {
    if (b.completed && !b.yielded) {
      b.ts = aug::Timestamp({99, 99});
      auto lin = aug::linearize(log, 2);
      EXPECT_FALSE(lin.ok());
      return;
    }
  }
  FAIL() << "no atomic Block-Update in the healthy log";
}

// The linearizer's crashed-process branch: a Block-Update whose process
// crashed after the line-2 scan H but before the line-4 update X has
// step_x == kNoStep; its Updates never reached H, so the linearizer must
// omit them - and still accept the history (a crash is a legal execution).
OpLog crashed_before_x_log() {
  Scheduler sched;
  AugmentedSnapshot m(sched, "M", 2, 2);
  sched.spawn(mixed_ops(m, 0), "q1");
  sched.spawn(mixed_ops(m, 1), "q2");
  sched.run_step(0);  // q1's line-2 scan H lands...
  sched.crash(0);     // ...and q1 dies with its line-4 update X poised
  runtime::RoundRobinAdversary adv;
  EXPECT_TRUE(sched.run(adv));
  return m.log();
}

TEST(LinearizerCrash, CrashedBeforeXIsOmittedAndAccepted) {
  OpLog log = crashed_before_x_log();
  const aug::BlockUpdateOpRecord* crashed = nullptr;
  for (const auto& b : log.block_updates) {
    if (b.process == 0) {
      ASSERT_EQ(crashed, nullptr) << "q1 should have exactly one record";
      crashed = &b;
    }
  }
  ASSERT_NE(crashed, nullptr);
  EXPECT_NE(crashed->step_h, aug::kNoStep);   // the scan H happened
  EXPECT_EQ(crashed->step_x, aug::kNoStep);   // the update X never did
  EXPECT_FALSE(crashed->completed);
  auto lin = aug::linearize(log, 2);
  EXPECT_TRUE(lin.ok()) << lin.violations.front();
  for (const auto& op : lin.ops) {
    EXPECT_NE(op.process, 0u) << "crashed q1 must linearize no operations";
  }
}

TEST(LinearizerCrash, ResurrectedCrashedUpdateIsRejected) {
  // Negative control for the same branch: tamper the crashed record to
  // claim its update X executed.  q2's real Scan returned a view without
  // q1's value, so the fold check (Corollary 15) must fire.
  OpLog log = crashed_before_x_log();
  bool scan_seen = false;
  for (const auto& s : log.scans) {
    scan_seen = scan_seen || s.completed;
  }
  ASSERT_TRUE(scan_seen);
  for (auto& b : log.block_updates) {
    if (b.process == 0) {
      ASSERT_EQ(b.step_x, aug::kNoStep);
      b.step_x = b.step_h + 1;
      auto lin = aug::linearize(log, 2);
      EXPECT_FALSE(lin.ok());
      return;
    }
  }
  FAIL() << "q1 has no Block-Update record";
}

TEST(ReplayNegative, TamperedRevisionsRejected) {
  // Hunt for a run with a revision ending in a poised update, then feed the
  // validator corrupted revision records: every corruption must be caught.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Scheduler sched;
    proto::RacingAgreement protocol(4, 2);
    sim::SimulationDriver driver(sched, protocol, {10, 20});
    runtime::RandomAdversary adv(seed);
    if (!driver.run(adv, 5'000'000)) {
      continue;
    }
    auto revisions = driver.all_revisions();
    std::size_t idx = revisions.size();
    for (std::size_t i = 0; i < revisions.size(); ++i) {
      if (revisions[i].final_update) {
        idx = i;
        break;
      }
    }
    if (idx == revisions.size()) {
      continue;
    }
    ASSERT_TRUE(sim::validate_simulation(driver, revisions).ok());

    // Corrupt the final poised update's value.
    auto bad = revisions;
    bad[idx].final_update->second ^= 1;
    EXPECT_FALSE(sim::validate_simulation(driver, bad).ok());

    // Point the revision at the wrong simulated process.
    bad = revisions;
    bad[idx].revised_proc = (bad[idx].revised_proc + 1) % driver.n();
    EXPECT_FALSE(sim::validate_simulation(driver, bad).ok());

    // Drop the revision entirely: the poised update it produces is then
    // unexplained when the block update consumes it.
    bad = revisions;
    bad.erase(bad.begin() + static_cast<std::ptrdiff_t>(idx));
    EXPECT_FALSE(sim::validate_simulation(driver, bad).ok());

    // Claim an extra hidden step that never happened.
    bad = revisions;
    bad[idx].hidden_updates.emplace_back(0, Val{12345});
    EXPECT_FALSE(sim::validate_simulation(driver, bad).ok());

    // Cite an op that is not a Block-Update: a Scan, or no op at all.
    bad = revisions;
    bad[idx].used_block_update = bad[idx].at_scan_op;
    EXPECT_FALSE(sim::validate_simulation(driver, bad).ok());
    bad[idx].used_block_update = driver.snapshot().log().next_op_id;
    EXPECT_FALSE(sim::validate_simulation(driver, bad).ok());
    return;
  }
  GTEST_SKIP() << "no revision-bearing run found in 200 seeds";
}

TEST(ReplayNegative, WrongProtocolRejected) {
  // Replaying a run of racing(4,2) against racing with different inputs
  // must fail: the replicas take different steps than the recorded ones.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Scheduler sched;
    proto::RacingAgreement protocol(4, 2);
    sim::SimulationDriver driver(sched, protocol, {10, 20});
    runtime::RandomAdversary adv(seed);
    if (!driver.run(adv, 5'000'000)) {
      continue;
    }
    ASSERT_TRUE(sim::validate_simulation(driver).ok());
    // Build a fresh driver sharing the first one's *log* is not possible
    // through the public API (by design); instead check sensitivity via a
    // corrupted linearization input: tamper with the snapshot log copy.
    aug::OpLog log = driver.snapshot().log();
    ASSERT_FALSE(log.block_updates.empty());
    log.block_updates[0].vals[0] ^= 1;
    auto lin = aug::linearize(log, 2);
    // Either the linearizer itself catches it (scan results no longer
    // match) or the fold check does; in a run with at least one scan after
    // the flip this must fail.
    bool scan_after = false;
    for (const auto& s : log.scans) {
      scan_after = scan_after ||
                   (s.completed && s.last_step > log.block_updates[0].step_x);
    }
    if (scan_after) {
      EXPECT_FALSE(lin.ok()) << "seed " << seed;
      return;
    }
  }
  GTEST_SKIP() << "no suitable run found";
}

}  // namespace
}  // namespace revisim
