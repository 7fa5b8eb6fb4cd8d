// Negative tests: the §3.3 linearizer and the Lemma-26 replay validator must
// actually *reject* corrupted histories.  A checker that never fails is no
// checker; each test takes a healthy recorded execution, tampers with one
// aspect the paper's lemmas govern, and expects a violation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/linearizer.h"
#include "src/protocols/racing_agreement.h"
#include "src/runtime/adversary.h"
#include "src/runtime/scheduler.h"
#include "src/sim/driver.h"
#include "src/sim/replay.h"
#include "src/util/crc32.h"

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

// The verdicts the linearizer gives on seeded corruptions of healthy logs,
// pinned: each of 500 seeded runs of random Scans and Block-Updates (some
// with a crashed process) gets one seeded single-field mutation - a written
// value, a step index, a yield flag, an entry of a returned view or a
// timestamp part - and the digest covers every run's (ok(), first
// violation).  A rewrite of the linearizer must keep every verdict and
// every first message.
Task<void> random_ops(AugmentedSnapshot& m, ProcessId me, std::size_t rounds,
                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < rounds; ++i) {
    if (rng() % 3 == 0) {
      co_await m.Scan(me);
      continue;
    }
    std::vector<std::size_t> comps;
    std::vector<Val> vals;
    for (std::size_t j = 0; j < m.components(); ++j) {
      if (rng() % 2 == 0 || (comps.empty() && j + 1 == m.components())) {
        comps.push_back(j);
        vals.push_back(static_cast<Val>(rng() % 50));
      }
    }
    co_await m.BlockUpdate(me, comps, vals);
  }
}

void mutate_one_field(OpLog& log, std::mt19937_64& rng) {
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  // Moves a recorded step by 1 to 3, either way (not below 0).
  auto nudge = [&rng](std::size_t& step) {
    if (step == aug::kNoStep) {
      return;
    }
    const bool up = rng() % 2 == 0;
    const std::size_t by = 1 + rng() % 3;
    step = up ? step + by : step - std::min(step, by);
  };
  const bool on_scan =
      log.block_updates.empty() || (!log.scans.empty() && rng() % 3 == 0);
  if (on_scan) {
    auto& s = log.scans[pick(log.scans.size())];
    if (rng() % 2 == 0 && !s.returned.empty()) {
      s.returned[pick(s.returned.size())] = static_cast<Val>(rng() % 50);
    } else {
      nudge(rng() % 2 == 0 ? s.first_step : s.last_step);
    }
    return;
  }
  auto& b = log.block_updates[pick(log.block_updates.size())];
  switch (rng() % 5) {
    case 0:
      b.vals[pick(b.vals.size())] ^= 1 + static_cast<Val>(rng() % 4);
      break;
    case 1: {
      std::size_t* steps[] = {&b.step_h, &b.step_x, &b.step_g, &b.step_h2};
      nudge(*steps[pick(4)]);
      break;
    }
    case 2:
      b.yielded = !b.yielded;
      break;
    case 3:
      if (!b.returned.empty()) {
        b.returned[pick(b.returned.size())] = static_cast<Val>(rng() % 50);
      }
      break;
    default: {
      aug::Timestamp::Parts parts(b.ts.size());
      for (std::size_t i = 0; i < parts.size(); ++i) {
        parts[i] = b.ts[i];
      }
      if (!parts.empty()) {
        auto& part = parts[pick(parts.size())];
        part = part == 0 || rng() % 2 == 0 ? part + 1 : part - 1;
      }
      b.ts = aug::Timestamp(std::move(parts));
      break;
    }
  }
}

TEST(LinearizerGolden, SeededMutationVerdictsArePinned) {
  std::uint32_t digest = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    const std::size_t f = 2 + seed % 3;
    const std::size_t m = 2 + seed % 2;
    Scheduler sched;
    AugmentedSnapshot obj(sched, "M", m, f);
    for (ProcessId p = 0; p < f; ++p) {
      sched.spawn(random_ops(obj, p, 4, seed * 131 + p), "q");
    }
    if (seed % 5 == 0) {
      const ProcessId victim = static_cast<ProcessId>(seed % f);
      for (std::size_t i = 0; i < seed % 7; ++i) {
        sched.run_step(victim);
      }
      sched.crash(victim);
    }
    runtime::RandomAdversary adv(seed);
    ASSERT_TRUE(sched.run(adv));
    OpLog log = obj.log();
    ASSERT_TRUE(aug::linearize(log, m).ok()) << "seed " << seed;
    std::mt19937_64 rng(seed ^ 0x5eedull);
    mutate_one_field(log, rng);
    const auto lin = aug::linearize(log, m);
    const std::string verdict = (lin.ok() ? "ok" : "rejected: " +
                                 lin.violations.front()) + "\n";
    digest = util::crc32(digest, verdict.data(), verdict.size());
    rejected += lin.ok() ? 0 : 1;
  }
  char hex[16];
  std::snprintf(hex, sizeof hex, "%08x", digest);
  EXPECT_EQ(rejected, 283u);
  EXPECT_STREQ(hex, "ca27c5b5");
}

TEST(ReplayNegative, TamperedRevisionsRejected) {
  // Hunt for a run with a revision ending in a poised update, then feed the
  // validator corrupted revision records: every corruption must be caught.
  bool hunted = false;
  for (std::uint64_t seed = 0; seed < 200 && !hunted; ++seed) {
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
    const aug::OpLog& log = driver.snapshot().log();
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
    bad[idx].used_block_update = log.next_op_id;
    EXPECT_FALSE(sim::validate_simulation(driver, bad).ok());

    // Claim the revision followed a Scan it did not follow: an op that is
    // not a Scan, a Scan by another simulator, or one before the
    // Block-Update it used.
    const std::size_t used = revisions[idx].used_block_update;
    const ProcessId reviser = log.find_block_update(used)->process;
    bad = revisions;
    bad[idx].at_scan_op = used;
    EXPECT_FALSE(sim::validate_simulation(driver, bad).ok());
    for (const auto& scan : log.scans) {
      if (scan.completed && (scan.process != reviser || scan.op_id < used)) {
        bad[idx].at_scan_op = scan.op_id;
        EXPECT_FALSE(sim::validate_simulation(driver, bad).ok())
            << "Scan#" << scan.op_id << " by q" << scan.process + 1;
      }
    }
    hunted = true;
  }
  EXPECT_TRUE(hunted) << "no revision-bearing run found in 200 seeds";

  // Add a revision that cites a yielded Block-Update, which returned no
  // view to revise with: it has no window, so it cannot be replayed.
  Scheduler sched;
  proto::RacingAgreement protocol(4, 2);
  sim::SimulationDriver driver(sched, protocol, {10, 20});
  runtime::RandomAdversary adv(3);
  ASSERT_TRUE(driver.run(adv, 5'000'000));
  const aug::BlockUpdateOpRecord* yielded = nullptr;
  for (const auto& b : driver.snapshot().log().block_updates) {
    if (b.completed && b.yielded && yielded == nullptr) {
      yielded = &b;
    }
  }
  const auto revisions = driver.all_revisions();
  ASSERT_NE(yielded, nullptr);
  ASSERT_FALSE(revisions.empty());
  ASSERT_TRUE(sim::validate_simulation(driver, revisions).ok());
  auto bad = revisions;
  bad.push_back(revisions.front());
  bad.back().used_block_update = yielded->op_id;
  bad.back().hidden_updates.assign(5, {0, Val{7}});
  bad.back().final_update.reset();
  bad.back().early_output = Val{424242};
  const sim::ReplayReport added = sim::validate_simulation(driver, bad);
  EXPECT_FALSE(added.ok()) << added.revisions_validated << " of "
                           << bad.size() << " revisions validated";
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
