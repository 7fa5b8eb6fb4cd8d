// Tests for the per-thread world arena (src/util/pool.h): coroutine frames
// crossing threads and reused in the arena, the arena's checkpoint stack,
// the capture window that lets the global operator new serve from it, and
// the failure of a cross-thread free.
#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>

#include <cstdint>
#include <memory>
#include <optional>
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

// A block from this thread's arena, when a scope is live: the global
// operator new inside a capture window that closes again before any
// expectation runs.
void* arena_new(std::size_t bytes) {
  util::CaptureWindow window;
  return ::operator new(bytes);
}

// Gives a block back through the global delete.  Out of line, so that the
// compiler does not flag the tests' uses of freed blocks a restore revives.
[[gnu::noinline]] void arena_free(void* block) { ::operator delete(block); }

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

// --- coroutine frames --------------------------------------------------------

TEST(FramePool, TaskCreatedOnOneThreadIsDestroyedOnAnother) {
  // Outside the explorer a frame is plain heap, so it may follow its Task
  // across threads: one finished and one dropped on a worker.
  Task<Val> ran = add_one(1);
  Task<Val> dropped = add_one(2);  // never started
  Val result = 0;
  Val again_result = 0;
  std::thread worker([&] {
    ran.resume();
    result = ran.result();
    ran = Task<Val>{};
    dropped = Task<Val>{};
    Task<Val> again = add_one(3);
    again.resume();
    again_result = again.result();
  });
  worker.join();
  EXPECT_EQ(result, 2);
  EXPECT_EQ(again_result, 4);
}

TEST(FramePool, FramesDestroyedByACrashServeAFreshWorld) {
  // A crash destroys a process's frames while it is poised inside a nested
  // call; in the world arena the next world built on the thread reuses them
  // and runs to the same result as on fresh memory.  The worlds run in a
  // capture window with trace recording off, as the explorer runs them (a
  // trace event recorded at the crash could take a freed frame's block);
  // what the test checks is read into locals and expected after the window
  // closes.
  std::thread worker([] {
    util::ArenaScope arena;
    ASSERT_TRUE(arena.active());
    void* crashed_frame = nullptr;
    Val out_after_crash = -1;
    bool poisoned_after_crash = !kAsan;
    void* fresh_frame = nullptr;
    bool poisoned_when_reused = true;
    bool finished = false;
    Val out = 0;
    std::optional<Val> final_r;
    {
      util::CaptureWindow window;
      {
        Scheduler sched;
        sched.set_recording(false);
        mem::Register r(sched, "r", 0);
        Val crashed_out = 0;
        Task<void> body = nested_caller(r, crashed_out);
        crashed_frame = body.handle().address();
        sched.spawn(std::move(body), "q1");
        sched.run_step(0);  // helper_sum's read; now poised at its write
        sched.crash(0);
        out_after_crash = crashed_out;
        poisoned_after_crash = poisoned(crashed_frame);
      }
      Scheduler sched;
      sched.set_recording(false);
      mem::Register r(sched, "r", 0);
      Task<void> body = nested_caller(r, out);
      fresh_frame = body.handle().address();
      poisoned_when_reused = poisoned(fresh_frame);
      sched.spawn(std::move(body), "q1");
      RoundRobinAdversary adv;
      finished = sched.run(adv);
      final_r = r.peek();
    }
    EXPECT_EQ(out_after_crash, 0);
    EXPECT_EQ(poisoned_after_crash, kAsan);
    EXPECT_EQ(fresh_frame, crashed_frame);
    EXPECT_FALSE(poisoned_when_reused);
    EXPECT_TRUE(finished);
    EXPECT_EQ(out, 10 + 15);
    EXPECT_EQ(final_r, std::optional<Val>(15));
  });
  worker.join();
}

// --- arena mode ---------------------------------------------------------------

TEST(WorldArena, RestoreRewindsTheBlocksAndTheAllocator) {
  std::thread worker([] {
    util::ArenaScope arena;
    ASSERT_TRUE(arena.active());
    auto* kept = static_cast<std::uint64_t*>(arena_new(64));
    *kept = 1;
    void* freed = arena_new(48);
    arena_free(freed);
    ASSERT_TRUE(arena.push_checkpoint());

    // After the save: a free-list pop, a bump, a block of a large class
    // (past the 4 KiB small classes), a write and a free of a block that
    // was live at the save.
    void* popped = arena_new(48);
    void* bumped = arena_new(200);
    void* large = arena_new(5000);
    EXPECT_EQ(popped, freed);
    *kept = 2;
    arena_free(kept);

    arena.restore_checkpoint();
    EXPECT_EQ(*kept, 1u);
    EXPECT_FALSE(poisoned(kept));
    EXPECT_EQ(poisoned(freed), kAsan);
    EXPECT_EQ(arena_new(48), popped);
    EXPECT_EQ(arena_new(200), bumped);
    EXPECT_EQ(arena_new(5000), large);
    void* other = arena_new(64);
    EXPECT_NE(other, kept);
    arena.pop_checkpoint();
    for (void* block : {static_cast<void*>(kept), popped, bumped, large,
                        other}) {
      arena_free(block);
    }
    EXPECT_EQ(arena.live_bytes(), 0u);
  });
  worker.join();
}

// A block's size class lives in the class map, which no checkpoint holds:
// after a restore moves the bump below a block, the next carve at that
// offset, at another class, rewrites its entry, and every block goes back
// on its own class's list.
TEST(WorldArena, ARecarvedOffsetFreesToItsNewClass) {
  std::thread worker([] {
    util::ArenaScope arena;
    ASSERT_TRUE(arena.active());
    void* before = arena_new(64);  // carved before the save
    ASSERT_TRUE(arena.push_checkpoint());
    void* after = arena_new(48);  // carved after it, past `before`
    arena_free(after);
    arena_free(before);

    arena.restore_checkpoint();  // `before` is live again; `after` is gone
    void* recarved = arena_new(300);
    arena_free(recarved);
    arena_free(before);
    void* again_300 = arena_new(300);
    void* again_64 = arena_new(64);
    void* again_48 = arena_new(48);
    EXPECT_EQ(recarved, after);
    EXPECT_EQ(again_300, recarved);
    EXPECT_EQ(again_64, before);
    EXPECT_NE(again_48, after);
    arena.pop_checkpoint();
    for (void* block : {again_300, again_64, again_48}) {
      arena_free(block);
    }
    EXPECT_EQ(arena.live_bytes(), 0u);
  });
  worker.join();
}

TEST(WorldArena, CheckpointsStackInPushOrder) {
  std::thread worker([] {
    util::ArenaScope arena;
    auto* cell = static_cast<std::uint64_t*>(arena_new(8));
    *cell = 1;
    ASSERT_TRUE(arena.push_checkpoint());
    *cell = 2;
    void* later = arena_new(1000);  // a longer second checkpoint
    ASSERT_TRUE(arena.push_checkpoint());
    *cell = 3;
    arena_free(later);
    arena.restore_checkpoint();
    EXPECT_EQ(*cell, 2u);
    EXPECT_FALSE(poisoned(later));
    arena.pop_checkpoint();
    arena.restore_checkpoint();
    EXPECT_EQ(*cell, 1u);
    EXPECT_EQ(arena_new(1000), later);
    arena.pop_checkpoint();
    arena_free(later);
    arena_free(cell);
  });
  worker.join();
}

TEST(WorldArena, NestedScopeIsInertAndBlocksOutliveNoScope) {
  std::thread worker([] {
    void* outside = arena_new(32);  // no scope yet: the heap serves
    {
      util::ArenaScope arena;
      ASSERT_TRUE(arena.active());
      void* inside = arena_new(32);
      EXPECT_NE(inside, outside);
      {
        util::ArenaScope nested;
        EXPECT_FALSE(nested.active());
        // The outer arena still serves: the block it just freed comes back.
        arena_free(inside);
        EXPECT_EQ(arena_new(32), inside);
      }
      arena_free(inside);
      EXPECT_EQ(arena.live_bytes(), 0u);
    }
    // The heap block is untouched by the scope and freed to the heap.
    arena_free(outside);
  });
  worker.join();
}

TEST(WorldArena, WhatTheArenaCannotHoldCountsAsAHeapAllocation) {
  std::thread worker([] {
    util::ArenaScope arena;
    const std::uint64_t before = util::heap_allocations();
    void* small = arena_new(64);
    EXPECT_EQ(util::heap_allocations(), before);
    void* huge = arena_new(util::kArenaReserveBytes);
    EXPECT_GT(util::heap_allocations(), before);
    arena_free(huge);
    arena_free(small);
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

    // A restore rewinds a plain container like any arena block.
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
// first, so its region stays mapped for the block that is still live.  The
// second case is a container's storage: made on a worker in its window,
// freed when the main thread drops it.
TEST(WorldArenaDeathTest, CrossThreadFreeFailsNamingTheBlock) {
  const char* const kCrossThreadFree =
      "cross-thread free of block 0x[0-9a-f]+, which lies in another "
      "thread's arena";
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
      kCrossThreadFree);
  EXPECT_DEATH(
      {
        std::vector<std::uint64_t> made;
        std::thread owner([&made] {
          util::ArenaScope arena;
          util::CaptureWindow window;
          made.assign(6, 7);  // 48 bytes
        });
        owner.join();
        made = std::vector<std::uint64_t>{};
      },
      kCrossThreadFree);
}

}  // namespace
}  // namespace revisim
