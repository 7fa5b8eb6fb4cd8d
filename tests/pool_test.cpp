// Tests for the per-thread block pool (src/util/pool.h): coroutine frames,
// pooled containers and pooled objects crossing threads, the 16-byte size
// class, the per-thread parking cap, release at thread exit, and the arena
// with its checkpoint stack.
#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/memory/register.h"
#include "src/runtime/adversary.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/task.h"
#include "src/util/pool.h"

namespace revisim {
namespace {

using runtime::RandomAdversary;
using runtime::RoundRobinAdversary;
using runtime::Scheduler;
using runtime::Task;

#if defined(__SANITIZE_ADDRESS__)
#define REVISIM_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define REVISIM_TEST_ASAN 1
#endif
#endif

#ifdef REVISIM_TEST_ASAN
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif

// True iff AddressSanitizer reports the block's first byte as poisoned
// (always false in builds without it).
bool poisoned(void* block) {
#ifdef REVISIM_TEST_ASAN
  return __asan_address_is_poisoned(block) != 0;
#else
  (void)block;
  return false;
#endif
}

Task<Val> add_one(Val x) { co_return x + 1; }

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

Task<void> recursive_count(mem::Register& r, int depth) {
  if (depth == 0) {
    co_return;
  }
  auto v = co_await r.read();
  co_await r.write(v.value_or(0) + 1);
  co_await recursive_count(r, depth - 1);
}

Task<void> infinite_writer(mem::Register& r) {
  for (;;) {
    co_await r.write(7);
  }
}

// --- coroutine frames --------------------------------------------------------

TEST(FramePool, TaskCreatedOnOneThreadIsDestroyedOnAnother) {
  // A frame follows its Task across threads: finished or dropped on a
  // worker, it joins the worker's free lists, which hand it out again there
  // (last freed, first reused).  The worker then exits with frames parked.
  Task<Val> ran = add_one(1);
  Task<Val> dropped = add_one(2);  // never started
  void* const dropped_frame = dropped.handle().address();
  Val result = 0;
  Val again_result = 0;
  bool reused = false;
  std::thread worker([&] {
    ran.resume();
    result = ran.result();
    ran = Task<Val>{};
    dropped = Task<Val>{};
    Task<Val> again = add_one(3);
    reused = again.handle().address() == dropped_frame;
    again.resume();
    again_result = again.result();
  });
  worker.join();
  EXPECT_EQ(result, 2);
  EXPECT_EQ(again_result, 4);
  EXPECT_TRUE(reused);
}

TEST(FramePool, AThreadParksABoundedAmountOfFrames) {
  // A worker frees far more than its parking budget (a mebibyte) of frames
  // made here: the first ones are parked, the rest go back to the heap.  So
  // the frame it hands out next is a parked one, not the last it freed.
  // Every frame takes at least one granule, so this many overflow the cap.
  const std::size_t count = util::kPoolParkBytes / util::kPoolGranule + 1000;
  std::vector<Task<Val>> made;
  std::vector<void*> frames;
  made.reserve(count);
  frames.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    made.push_back(add_one(static_cast<Val>(i)));
    frames.push_back(made.back().handle().address());
  }
  void* reused = nullptr;
  std::thread worker([&] {
    made.clear();
    Task<Val> again = add_one(0);
    reused = again.handle().address();
  });
  worker.join();
  EXPECT_NE(std::find(frames.begin(), frames.end() - 1, reused),
            frames.end() - 1);
}

TEST(FramePool, FramesDestroyedByACrashServeAFreshWorld) {
  // A crash destroys a process's frames while it is poised inside a nested
  // call; the next world built on this thread reuses them and runs to the
  // same result as on fresh memory.
  void* crashed_frame = nullptr;
  {
    Scheduler sched;
    mem::Register r(sched, "r", 0);
    Val out = 0;
    Task<void> body = nested_caller(r, out);
    crashed_frame = body.handle().address();
    sched.spawn(std::move(body), "q1");
    sched.run_step(0);  // helper_sum's read; now poised at its write
    sched.crash(0);
    EXPECT_EQ(out, 0);
    EXPECT_EQ(poisoned(crashed_frame), kAsan);
  }
  Scheduler sched;
  mem::Register r(sched, "r", 0);
  Val out = 0;
  Task<void> body = nested_caller(r, out);
  EXPECT_EQ(body.handle().address(), crashed_frame);
  EXPECT_FALSE(poisoned(crashed_frame));
  sched.spawn(std::move(body), "q1");
  RoundRobinAdversary adv;
  EXPECT_TRUE(sched.run(adv));
  EXPECT_EQ(out, 10 + 15);
  EXPECT_EQ(r.peek(), std::optional<Val>(15));
}

TEST(FramePool, ThreadExitReleasesParkedFrames) {
  // Workers park frames of several sizes and exit; their lists go back to
  // the heap (in sanitizer builds, LeakSanitizer checks that nothing is
  // left behind at process exit).
  std::vector<Val> totals(3, 0);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < totals.size(); ++w) {
    workers.emplace_back([&totals, w] {
      Scheduler sched;
      mem::Register r(sched, "r", 0);
      Val out = 0;
      sched.spawn(recursive_count(r, 20), "q1");
      sched.spawn(nested_caller(r, out), "q2");
      sched.spawn(infinite_writer(r), "q3");
      RandomAdversary adv(w);
      sched.run(adv, 30, /*throw_on_limit=*/false);
      sched.crash(2);  // q3 never finishes; its frame is destroyed here
      totals[w] = sched.total_steps();
    });
  }
  for (auto& t : workers) {
    t.join();
  }
  for (Val steps : totals) {
    EXPECT_EQ(steps, 30);
  }
}

// --- blocks, containers and objects -----------------------------------------

TEST(BlockPool, SixteenByteClassIsReusedAndPoisonedWhileParked) {
  // Everything from 1 to 16 bytes shares the smallest class; 17 bytes is
  // the next one.  Runs on a fresh thread, so the lists start empty.
  std::thread worker([] {
    void* small = util::pool_allocate(16);
    util::pool_deallocate(small, 16);
    EXPECT_EQ(poisoned(small), kAsan);
    void* one = util::pool_allocate(1);
    EXPECT_EQ(one, small);
    EXPECT_FALSE(poisoned(one));
    void* next_class = util::pool_allocate(17);
    EXPECT_NE(next_class, small);
    util::pool_deallocate(next_class, 17);
    util::pool_deallocate(one, 1);
    EXPECT_EQ(util::pool_allocate(8), small);
    util::pool_deallocate(small, 8);
  });
  worker.join();
}

TEST(BlockPool, PoolVectorFreedOnAnotherThreadJoinsThatThreadsLists) {
  // A container built here is destroyed on a worker; its block then serves
  // the worker's next allocation of that class.
  util::PoolVector<std::uint64_t> made(6, 7);  // 48 bytes
  const void* const block = made.data();
  bool reused = false;
  std::uint64_t sum = 0;
  std::thread worker([&] {
    for (std::uint64_t v : made) {
      sum += v;
    }
    made = util::PoolVector<std::uint64_t>{};
    util::PoolVector<std::uint64_t> again(6, 1);
    reused = again.data() == block;
  });
  worker.join();
  EXPECT_EQ(sum, 42u);
  EXPECT_TRUE(reused);
}

TEST(BlockPool, PooledObjectsUseTheirDynamicSize) {
  // Deleting through a base pointer hands the pool the derived class's
  // size, so the block returns to the class it came from.
  struct Base : util::Pooled {
    virtual ~Base() = default;
  };
  struct Derived final : Base {
    char payload[100] = {};
  };
  std::thread worker([] {
    Base* obj = new Derived();
    void* const block = obj;
    delete obj;
    EXPECT_EQ(util::pool_allocate(sizeof(Derived)), block);
    util::pool_deallocate(block, sizeof(Derived));
  });
  worker.join();
}

TEST(BlockPool, ParkCapSendsTheOverflowBackToTheHeap) {
  // A fresh thread frees more 16-byte blocks than its cap holds.  Exactly
  // kPoolParkBytes of them are parked; the rest go back to the heap.  The
  // next allocation pops the last block that still fit.
  std::thread worker([] {
    const std::size_t fit = util::kPoolParkBytes / util::kPoolGranule;
    std::vector<void*> blocks(fit + 100);
    for (void*& b : blocks) {
      b = util::pool_allocate(util::kPoolGranule);
    }
    for (void* b : blocks) {
      util::pool_deallocate(b, util::kPoolGranule);
    }
    void* again = util::pool_allocate(util::kPoolGranule);
    EXPECT_EQ(again, blocks[fit - 1]);
    util::pool_deallocate(again, util::kPoolGranule);
  });
  worker.join();
}

TEST(BlockPool, OversizedBlocksBypassTheLists) {
  // Past kPoolMaxBytes the heap serves every request and nothing is
  // parked; the largest pooled class is still parked and reused.
  std::thread worker([] {
    void* big = util::pool_allocate(util::kPoolMaxBytes + 1);
    ASSERT_NE(big, nullptr);
    util::pool_deallocate(big, util::kPoolMaxBytes + 1);
    void* biggest_pooled = util::pool_allocate(util::kPoolMaxBytes);
    util::pool_deallocate(biggest_pooled, util::kPoolMaxBytes);
    EXPECT_EQ(util::pool_allocate(util::kPoolMaxBytes), biggest_pooled);
    util::pool_deallocate(biggest_pooled, util::kPoolMaxBytes);
  });
  worker.join();
}

// --- arena mode ---------------------------------------------------------------

TEST(WorldArena, RestoreRewindsTheBlocksAndTheAllocator) {
  std::thread worker([] {
    util::ArenaScope arena;
    ASSERT_TRUE(arena.active());
    auto* kept = static_cast<std::uint64_t*>(util::pool_allocate(64));
    *kept = 1;
    void* freed = util::pool_allocate(48);
    util::pool_deallocate(freed, 48);
    ASSERT_TRUE(arena.push_checkpoint());

    // After the save: a free-list pop, a bump, a block of a large class, a
    // write and a free of a block that was live at the save.
    void* popped = util::pool_allocate(48);
    void* bumped = util::pool_allocate(200);
    void* large = util::pool_allocate(util::kPoolMaxBytes + 1);
    EXPECT_EQ(popped, freed);
    *kept = 2;
    util::pool_deallocate(kept, 64);

    arena.restore_checkpoint();
    EXPECT_EQ(*kept, 1u);
    EXPECT_FALSE(poisoned(kept));
    EXPECT_EQ(poisoned(freed), kAsan);
    EXPECT_EQ(util::pool_allocate(48), popped);
    EXPECT_EQ(util::pool_allocate(200), bumped);
    EXPECT_EQ(util::pool_allocate(util::kPoolMaxBytes + 1), large);
    EXPECT_NE(util::pool_allocate(64), kept);
    arena.pop_checkpoint();
  });
  worker.join();
}

TEST(WorldArena, CheckpointsStackInPushOrder) {
  std::thread worker([] {
    util::ArenaScope arena;
    auto* cell = static_cast<std::uint64_t*>(util::pool_allocate(8));
    *cell = 1;
    ASSERT_TRUE(arena.push_checkpoint());
    *cell = 2;
    void* later = util::pool_allocate(1000);  // a longer second checkpoint
    ASSERT_TRUE(arena.push_checkpoint());
    *cell = 3;
    util::pool_deallocate(later, 1000);
    arena.restore_checkpoint();
    EXPECT_EQ(*cell, 2u);
    EXPECT_FALSE(poisoned(later));
    arena.pop_checkpoint();
    arena.restore_checkpoint();
    EXPECT_EQ(*cell, 1u);
    EXPECT_EQ(util::pool_allocate(1000), later);
    arena.pop_checkpoint();
  });
  worker.join();
}

TEST(WorldArena, NestedScopeIsInertAndBlocksOutliveNoScope) {
  std::thread worker([] {
    void* outside = util::pool_allocate(32);  // heap-backed pool
    {
      util::ArenaScope arena;
      ASSERT_TRUE(arena.active());
      void* inside = util::pool_allocate(32);
      EXPECT_NE(inside, outside);
      {
        util::ArenaScope nested;
        EXPECT_FALSE(nested.active());
        // The outer arena still serves: the block it just freed comes back.
        util::pool_deallocate(inside, 32);
        EXPECT_EQ(util::pool_allocate(32), inside);
      }
      // A heap-pool block freed inside the scope rejoins the heap lists.
      util::pool_deallocate(outside, 32);
      util::pool_deallocate(inside, 32);
    }
    EXPECT_EQ(util::pool_allocate(32), outside);
    util::pool_deallocate(outside, 32);
  });
  worker.join();
}

TEST(WorldArena, WhatTheArenaCannotHoldCountsAsAHeapAllocation) {
  std::thread worker([] {
    util::ArenaScope arena;
    const std::uint64_t before = util::heap_allocations();
    void* small = util::pool_allocate(64);
    EXPECT_EQ(util::heap_allocations(), before);
    void* huge = util::pool_allocate(util::kArenaReserveBytes);
    EXPECT_GT(util::heap_allocations(), before);
    util::pool_deallocate(huge, util::kArenaReserveBytes);
    util::pool_deallocate(small, 64);
  });
  worker.join();
}

// A failed expectation inside a capture window would store its message, made
// there, in the test framework: these tests read what they check into locals
// and expect after the window closes.
TEST(WorldArena, CaptureWindowServesTheGlobalOperatorNew) {
  std::thread worker([] {
    util::ArenaScope arena;
    ASSERT_TRUE(arena.active());
    const std::uint64_t before = util::heap_allocations();
    const std::size_t live = arena.live_bytes();
    std::vector<int>* v = nullptr;
    bool open_after_nested = false;
    {
      util::CaptureWindow window;
      { util::CaptureWindow nested; }
      open_after_nested = util::capturing();  // the outer guard keeps it
      v = new std::vector<int>(100, 7);
    }
    EXPECT_TRUE(open_after_nested);
    EXPECT_FALSE(util::capturing());
    EXPECT_EQ(util::heap_allocations(), before);  // the arena served both
    EXPECT_GT(arena.live_bytes(), live);

    // A restore rewinds a plain container like any pooled block.
    ASSERT_TRUE(arena.push_checkpoint());
    (*v)[0] = 1;
    arena.restore_checkpoint();
    EXPECT_EQ((*v)[0], 7);
    arena.pop_checkpoint();

    // The global delete gives arena blocks back, window or not.
    delete v;
    EXPECT_EQ(arena.live_bytes(), live);

    // What the arena does not serve reaches the heap and is counted: an
    // over-aligned new, and a block larger than the arena.  (Direct calls,
    // which the compiler may not elide as it may an unused new-expression.)
    constexpr std::align_val_t kWide{2 * __STDCPP_DEFAULT_NEW_ALIGNMENT__};
    std::uint64_t after_wide = 0;
    std::uint64_t after_huge = 0;
    {
      util::CaptureWindow window;
      void* wide = ::operator new(8, kWide);
      after_wide = util::heap_allocations();
      void* huge = ::operator new(util::kArenaReserveBytes);
      after_huge = util::heap_allocations();
      ::operator delete(huge);
      ::operator delete(wide, kWide);
    }
    EXPECT_EQ(after_wide, before + 1);
    EXPECT_EQ(after_huge, before + 2);
    EXPECT_EQ(arena.live_bytes(), live);
  });
  worker.join();
}

TEST(WorldArena, AWindowWithoutAScopeUsesTheHeap) {
  std::thread worker([] {
    const std::uint64_t before = util::heap_allocations();
    std::uint64_t after = 0;
    {
      util::CaptureWindow window;
      void* one = ::operator new(8);
      after = util::heap_allocations();
      ::operator delete(one);
    }
    EXPECT_EQ(after, before + 1);
  });
  worker.join();
}

TEST(WorldArena, BlocksLiveAtAScopesEndAreCarriedNotReused) {
  std::thread worker([] {
    std::string* kept = nullptr;
    {
      util::ArenaScope arena;
      util::CaptureWindow window;
      kept = new std::string(100, 'k');
    }
    {
      util::ArenaScope arena;
      EXPECT_GT(arena.carried_bytes(), 0u);
      EXPECT_EQ(arena.live_bytes(), arena.carried_bytes());
      {
        util::CaptureWindow window;
        auto other = std::make_unique<std::string>(100, 'o');
      }
      EXPECT_EQ(*kept, std::string(100, 'k'));
    }
    delete kept;
    util::ArenaScope arena;
    EXPECT_EQ(arena.carried_bytes(), 0u);
  });
  worker.join();
}

// A block of another thread's arena cannot go back to that arena from here,
// nor to free(): the global delete fails naming it.  The owning thread exits
// first, so its region stays mapped for the block that is still live.
TEST(WorldArenaDeathTest, CrossThreadFreeFailsNamingTheBlock) {
  EXPECT_DEATH(
      {
        std::string* block = nullptr;
        std::thread owner([&block] {
          util::ArenaScope arena;
          util::CaptureWindow window;
          block = new std::string(100, 'x');
        });
        owner.join();
        delete block;
      },
      "cross-thread free of block 0x[0-9a-f]+, which lies in another "
      "thread's arena");
}

}  // namespace
}  // namespace revisim
