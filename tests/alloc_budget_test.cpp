// Heap-allocation budget of the replay path.
//
// The explorers rebuild and replay a world for every execution, so whatever
// a world allocates from the heap, it allocates once per execution.  Once a
// process has a second thread the heap takes its locked paths, so parallel
// workers pay for every such allocation in cross-thread traffic (DESIGN.md,
// finding 13).  World-lifetime memory therefore comes from the per-thread
// block pool (src/util/pool.h); this test counts the calls that still reach
// the global operator new over the executions of the paper's reduction,
// built like the end-to-end benchmark's sim-covering workload, and holds
// them to a budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "src/check/model_check.h"
#include "src/check/worlds.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};
std::atomic<std::size_t> allocated_bytes{0};

// Out of line, so that the compiler does not pair a visible free() with the
// operator new it inlined next to it and warn about a mismatch.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

// Replaces the global scalar operator new (and its deletes, to stay paired)
// for this test binary only.
void* operator new(std::size_t bytes) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
    allocated_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(bytes != 0 ? bytes : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t /*bytes*/) noexcept { release(p); }

namespace revisim {
namespace {

// At the parent of the pooled replay path, this workload made 106 heap
// allocations per execution.  What is left: the world object itself, the
// driver's copy of the inputs and the outputs the verdict reads - all
// public types that hold std::vector - plus the explorer's own amortized
// bookkeeping.
constexpr double kBudgetPerExecution = 16;

TEST(AllocBudget, SimCoveringExecutionsStayWithinBudget) {
  // sim-covering: f=4 covering simulators (d=0) over a one-component
  // augmented snapshot on the atomic substrate, simulating
  // RacingAgreement(n=4, m=1); verdict = Lemma-26 validator + validity.
  const auto factory = check::make_world_factory("sim-racing:4,3,0,1");
  check::ScheduleExploreOptions opt;
  // The first executions fill this thread's pool; the measured run then
  // starts from the steady state every long exploration reaches.
  opt.max_executions = 200;
  ASSERT_TRUE(check::explore_schedules(factory, opt).ok());

  opt.max_executions = 5'000;
  allocations.store(0);
  counting.store(true);
  const check::ScheduleExploreResult res =
      check::explore_schedules(factory, opt);
  counting.store(false);
  ASSERT_TRUE(res.ok()) << *res.violation;
  ASSERT_EQ(res.executions, opt.max_executions);
  const double per_execution =
      static_cast<double>(allocations.load()) /
      static_cast<double>(res.executions);
  RecordProperty("allocations_per_execution", std::to_string(per_execution));
  EXPECT_LE(per_execution, kBudgetPerExecution)
      << allocations.load() << " heap allocations over " << res.executions
      << " executions";
}

// Witness files and the distributed worker's hello hand outside text to
// make_world_factory, so parsing a spec builds nothing whose size a
// parameter sets: a million simulators cost the parse no more than two.
TEST(AllocBudget, ParsingAWorldSpecBuildsNoWorld) {
  allocated_bytes.store(0);
  counting.store(true);
  const auto factory =
      check::make_world_factory("sim-racing:1000001,1000000,1000001,1");
  counting.store(false);
  EXPECT_LE(allocated_bytes.load(), 4096u);
  EXPECT_TRUE(static_cast<bool>(factory));
}

}  // namespace
}  // namespace revisim
