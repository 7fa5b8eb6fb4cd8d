// Tests for the cooperative runtime: step granularity, nested Task chains,
// adversaries, determinism and error propagation.  (Tests of coroutine
// frames in the world arena live in pool_test.cpp.)
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/memory/mw_snapshot.h"
#include "src/memory/register.h"
#include "src/runtime/adversary.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/task.h"

namespace revisim {
namespace {

using runtime::ProcessId;
using runtime::RandomAdversary;
using runtime::RoundRobinAdversary;
using runtime::Scheduler;
using runtime::ScriptedAdversary;
using runtime::SoloAdversary;
using runtime::StepLimitExceeded;
using runtime::Task;

Task<void> write_then_read(mem::Register& r, Val v, std::optional<Val>& out) {
  co_await r.write(v);
  out = co_await r.read();
}

TEST(Runtime, SingleProcessRunsToCompletion) {
  Scheduler sched;
  mem::Register r(sched, "r");
  std::optional<Val> seen;
  sched.spawn(write_then_read(r, 42, seen), "q1");
  RoundRobinAdversary adv;
  EXPECT_TRUE(sched.run(adv));
  EXPECT_EQ(seen, std::optional<Val>(42));
  EXPECT_EQ(sched.total_steps(), 2u);
  EXPECT_EQ(sched.steps_taken(0), 2u);
}

TEST(Runtime, StepsInterleaveAtOperationGranularity) {
  Scheduler sched;
  mem::Register r(sched, "r");
  std::optional<Val> seen0;
  std::optional<Val> seen1;
  sched.spawn(write_then_read(r, 1, seen0), "q1");
  sched.spawn(write_then_read(r, 2, seen1), "q2");
  // q1 writes, q2 writes, q1 reads (sees 2), q2 reads (sees 2).
  ScriptedAdversary adv({0, 1, 0, 1});
  EXPECT_TRUE(sched.run(adv));
  EXPECT_EQ(seen0, std::optional<Val>(2));
  EXPECT_EQ(seen1, std::optional<Val>(2));
}

Task<Val> helper_sum(mem::Register& r, Val bump) {
  auto v = co_await r.read();
  co_await r.write(v.value_or(0) + bump);
  auto after = co_await r.read();
  co_return after.value_or(-1);
}

Task<void> nested_caller(mem::Register& r, Val& out) {
  Val a = co_await helper_sum(r, 10);
  Val b = co_await helper_sum(r, 5);
  out = a + b;
}

TEST(Runtime, NestedTasksSuspendAsAUnit) {
  Scheduler sched;
  mem::Register r(sched, "r", 0);
  Val out = 0;
  sched.spawn(nested_caller(r, out), "q1");
  RoundRobinAdversary adv;
  EXPECT_TRUE(sched.run(adv));
  EXPECT_EQ(out, 10 + 15);
  EXPECT_EQ(sched.total_steps(), 6u);
}

Task<void> recursive_count(mem::Register& r, int depth) {
  if (depth == 0) {
    co_return;
  }
  auto v = co_await r.read();
  co_await r.write(v.value_or(0) + 1);
  co_await recursive_count(r, depth - 1);
}

TEST(Runtime, DeepRecursionThroughTasks) {
  Scheduler sched;
  mem::Register r(sched, "r", 0);
  sched.spawn(recursive_count(r, 200), "q1");
  RoundRobinAdversary adv;
  EXPECT_TRUE(sched.run(adv));
  EXPECT_EQ(r.peek(), std::optional<Val>(200));
}

Task<void> infinite_writer(mem::Register& r) {
  for (;;) {
    co_await r.write(7);
  }
}

TEST(Runtime, StepLimitThrows) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(infinite_writer(r), "q1");
  RoundRobinAdversary adv;
  EXPECT_THROW(sched.run(adv, 100), StepLimitExceeded);
  EXPECT_FALSE(sched.run(adv, 100, /*throw_on_limit=*/false));
}

Task<void> thrower(mem::Register& r) {
  co_await r.write(1);
  throw std::runtime_error("boom");
}

TEST(Runtime, ExceptionsPropagateToRun) {
  Scheduler sched;
  mem::Register r(sched, "r");
  sched.spawn(thrower(r), "q1");
  RoundRobinAdversary adv;
  EXPECT_THROW(sched.run(adv), std::runtime_error);
}

Task<void> scan_collector(mem::MWSnapshot& m, ProcessId me,
                          std::vector<View>& views) {
  co_await m.update(me, static_cast<Val>(me) + 1);
  views.push_back(co_await m.scan());
  views.push_back(co_await m.scan());
}

TEST(Runtime, MWSnapshotScansAreAtomic) {
  Scheduler sched;
  mem::MWSnapshot m(sched, "M", 3);
  std::vector<View> v0;
  std::vector<View> v1;
  sched.spawn(scan_collector(m, 0, v0), "q1");
  sched.spawn(scan_collector(m, 1, v1), "q2");
  RoundRobinAdversary adv;
  EXPECT_TRUE(sched.run(adv));
  ASSERT_EQ(v0.size(), 2u);
  EXPECT_EQ(v0[1][0], std::optional<Val>(1));
  EXPECT_EQ(v0[1][1], std::optional<Val>(2));
  EXPECT_EQ(v0[1][2], std::optional<Val>());
}

TEST(Runtime, DeterministicUnderFixedSeed) {
  auto run_once = [](std::uint64_t seed) {
    Scheduler sched;
    mem::MWSnapshot m(sched, "M", 2);
    std::vector<View> v0;
    std::vector<View> v1;
    sched.spawn(scan_collector(m, 0, v0), "q1");
    sched.spawn(scan_collector(m, 1, v1), "q2");
    RandomAdversary adv(seed);
    EXPECT_TRUE(sched.run(adv));
    return sched.trace().to_text();
  };
  EXPECT_EQ(run_once(7), run_once(7));
  // Different seeds usually give different traces; at minimum the run
  // remains well formed (checked inside run_once).
  run_once(8);
}

TEST(Runtime, SoloAdversaryFreezesOthers) {
  Scheduler sched;
  mem::Register r(sched, "r", 0);
  std::optional<Val> seen0;
  std::optional<Val> seen1;
  sched.spawn(write_then_read(r, 1, seen0), "q1");
  sched.spawn(write_then_read(r, 2, seen1), "q2");
  SoloAdversary adv(1);
  EXPECT_FALSE(sched.run(adv));  // q1 never finishes
  EXPECT_TRUE(sched.is_done(1));
  EXPECT_FALSE(sched.is_done(0));
  EXPECT_EQ(seen1, std::optional<Val>(2));
}

TEST(Runtime, TraceRecordsEveryStep) {
  Scheduler sched;
  mem::Register r(sched, "r");
  std::optional<Val> seen;
  sched.spawn(write_then_read(r, 3, seen), "q1");
  RoundRobinAdversary adv;
  sched.run(adv);
  const auto& ev = sched.trace().events;
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].kind, runtime::StepKind::kWrite);
  EXPECT_EQ(ev[1].kind, runtime::StepKind::kRead);
  EXPECT_EQ(ev[0].process, 0u);
}

}  // namespace
}  // namespace revisim
