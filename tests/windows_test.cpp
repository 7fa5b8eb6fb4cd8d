// Property tests for the window structure of atomic Block-Updates
// (Lemmas 18/19) via the linearizer's explicit Window artifacts, plus
// coverage for the remaining adversaries and the trace renderer.
#include <gtest/gtest.h>

#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/linearizer.h"
#include "src/runtime/adversary.h"
#include "src/runtime/scheduler.h"

namespace revisim {
namespace {

using aug::AugmentedSnapshot;
using runtime::ProcessId;
using runtime::Scheduler;
using runtime::Task;

Task<void> churn(AugmentedSnapshot& m, ProcessId me, std::size_t rounds,
                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < rounds; ++i) {
    if (rng() % 3 == 0) {
      co_await m.Scan(me);
    } else {
      std::vector<std::size_t> comps;
      std::vector<Val> vals;
      const std::size_t r = 1 + rng() % m.components();
      for (std::size_t j = 0; j < m.components() && comps.size() < r; ++j) {
        if (rng() % 2 == 0 || m.components() - j == r - comps.size()) {
          comps.push_back(j);
          vals.push_back(static_cast<Val>(rng() % 100));
        }
      }
      co_await m.BlockUpdate(me, comps, vals);
    }
  }
}

class WindowSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WindowSweep, WindowsArePerAtomicBlockAndOrdered) {
  const std::uint64_t seed = GetParam();
  Scheduler sched;
  const std::size_t f = 2 + seed % 3;
  AugmentedSnapshot m(sched, "M", 3, f);
  for (ProcessId p = 0; p < f; ++p) {
    sched.spawn(churn(m, p, 7, seed * 37 + p), "q");
  }
  runtime::RandomAdversary adv(seed);
  ASSERT_TRUE(sched.run(adv));
  auto lin = aug::linearize(m.log(), 3);
  ASSERT_TRUE(lin.ok()) << lin.violations.front();

  // One window per atomic completed Block-Update.
  std::size_t atomic = 0;
  for (const auto& b : m.log().block_updates) {
    if (b.completed && !b.yielded) {
      ++atomic;
    }
  }
  EXPECT_EQ(lin.windows.size(), atomic);

  // Each window is well formed: T <= Z, contents at T equal the returned
  // view, and windows ordered by Z do not interleave their T's backwards.
  View contents(3);
  std::vector<View> prefix(lin.ops.size() + 1);
  prefix[0] = contents;
  for (std::size_t i = 0; i < lin.ops.size(); ++i) {
    if (lin.ops[i].kind == aug::LinearizedOp::Kind::kUpdate) {
      contents.at(lin.ops[i].component) = lin.ops[i].value;
    }
    prefix[i + 1] = contents;
  }
  auto windows = lin.windows;
  std::sort(windows.begin(), windows.end(),
            [](const aug::Window& a, const aug::Window& b) {
              return a.z_index < b.z_index;
            });
  std::size_t prev_z = 0;
  for (const auto& w : windows) {
    EXPECT_LE(w.t_index, w.z_index);
    const auto* bu = m.log().find_block_update(w.op_id);
    ASSERT_NE(bu, nullptr);
    EXPECT_EQ(prefix[w.t_index], bu->returned);
    // Disjointness (Lemma 18): this window starts at or after the end of
    // the previous one.
    EXPECT_GE(w.t_index + 1, prev_z == 0 ? 0 : prev_z);
    prev_z = w.z_index + 1;
    // No Scan inside (T, Z).
    for (std::size_t i = w.t_index; i < w.z_index; ++i) {
      EXPECT_NE(lin.ops[i].kind, aug::LinearizedOp::Kind::kScan);
    }
    // T is the latest valid point: every later one up to Z either has a
    // Scan between it and Z or other contents.  The replay validator
    // inserts revisions at T and relies on this.
    for (std::size_t t = w.t_index + 1; t <= w.z_index; ++t) {
      bool scan_between = false;
      for (std::size_t i = t; i < w.z_index; ++i) {
        scan_between = scan_between ||
                       lin.ops[i].kind == aug::LinearizedOp::Kind::kScan;
      }
      EXPECT_TRUE(scan_between || prefix[t] != bu->returned)
          << "BlockUpdate#" << w.op_id << ": point " << t
          << " is valid and later than T = " << w.t_index;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowSweep,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(Adversaries, BurstRunsOneProcessInBursts) {
  Scheduler sched;
  AugmentedSnapshot m(sched, "M", 2, 3);
  for (ProcessId p = 0; p < 3; ++p) {
    sched.spawn(churn(m, p, 5, p), "q");
  }
  runtime::BurstAdversary adv(99, 6);
  ASSERT_TRUE(sched.run(adv));
  // Count schedule switches: bursts mean far fewer switches than steps.
  const auto& ev = sched.trace().events;
  std::size_t switches = 0;
  for (std::size_t i = 1; i < ev.size(); ++i) {
    if (ev[i].process != ev[i - 1].process) {
      ++switches;
    }
  }
  EXPECT_LT(switches, ev.size() / 2);
  auto lin = aug::linearize(m.log(), 2);
  EXPECT_TRUE(lin.ok()) << lin.violations.front();
}

TEST(Trace, RendersOneLinePerStep) {
  Scheduler sched;
  AugmentedSnapshot m(sched, "M", 2, 1);
  auto body = [](AugmentedSnapshot& mm) -> Task<void> {
    std::vector<std::size_t> comps{0};
    std::vector<Val> vals{5};
    co_await mm.BlockUpdate(0, comps, vals);
  };
  sched.spawn(body(m), "q1");
  runtime::RoundRobinAdversary adv;
  ASSERT_TRUE(sched.run(adv));
  const std::string text = sched.trace().to_text();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
  EXPECT_NE(text.find("q1"), std::string::npos);
  EXPECT_NE(text.find("scan"), std::string::npos);
  EXPECT_NE(text.find("update"), std::string::npos);
}

}  // namespace
}  // namespace revisim
