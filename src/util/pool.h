// Per-thread world arena, which lets the explorers checkpoint a world by
// copying its bytes, and the library's counting global operator new, the
// only way into it.
//
// Each thread owns one region at a fixed address, reserved on first use
// and touched lazily: the arena, kArenaReserveBytes long, then a checkpoint
// stack as long again, then a class map.  The arena is a bump pointer plus
// one free list per size class (16-byte classes up to 4 KiB, then powers of
// two), and the allocator's metadata (the bump offset and the list heads)
// lives at the start of the arena itself.  Copying the arena's used prefix
// onto the checkpoint stack therefore captures the allocator's state
// together with every object in it, and copying it back to the same
// address restores both: no pointer moves, so none needs fixing.  The
// explorer uses that to rewind a world to a branch point
// (src/check/explore_core.h).  Checkpoints are packed, so the stack's pages
// hold exactly the open checkpoints, and like the arena's they are touched
// once and reused by every later job on the thread.
//
// The global delete may be unsized, so the class map holds, for each
// 16-byte granule of the arena, the size class of the block that starts
// there, written when the bump pointer carves the block.  The map is never
// checkpointed: a block's class is fixed from its carve until a restore
// moves the bump below it, and as checkpoints are a stack, a later carve at
// that offset rewrites the entry before the block is used.
//
// The library replaces the global operator new (all its forms) with one
// that counts heap allocations per thread; heap_allocations() reads the
// count.  While a CaptureWindow is open and an ArenaScope is live, the
// global operator new serves from the arena instead, without counting.  So
// the ordinary containers and objects a world makes in a build or step are
// arena memory and are rewound with it.  Two kinds of memory stay on the
// heap and are counted: an over-aligned new (alignment above
// __STDCPP_DEFAULT_NEW_ALIGNMENT__), and a block the arena cannot fit (the
// arena is full, or the block is larger than it).  The explorer opens the
// window around every call it makes into a world and, once the count
// moves, stops restoring.  Outside a window, and on a thread with no live
// scope, the global operator new is the plain (counted) heap.
//
// Rules of the arena:
//  * Arena blocks are freed only on the thread that owns the arena: memory
//    made inside a capture window is freed on its own thread.  Every form
//    of the global delete frees a block of this thread's arena back to it,
//    window or not, and fails with a message naming a block of another
//    thread's arena rather than handing it to free().
//  * Nothing outside the world may hold arena memory across a restore: a
//    restore rewinds every block to its state at the save.
//  * The arena's header counts its live bytes.  A scope empties the arena
//    only if none are live; blocks that outlived the last scope (the
//    message of an exception thrown out of a watched call, say) stay valid
//    and are never handed out again until they are freed.  A thread whose
//    arena still has live blocks when it exits leaves the region mapped.
//  * Under AddressSanitizer free arena blocks are poisoned; a save or
//    restore unpoisons the region before it copies and re-poisons the free
//    blocks afterwards.
#pragma once

#include <cstddef>
#include <cstdint>

namespace revisim::util {

inline constexpr std::size_t kArenaReserveBytes = std::size_t{16} << 20;

// Calls to the global operator new made on this thread that reached the
// heap so far, and the bytes they asked for.
[[nodiscard]] std::uint64_t heap_allocations() noexcept;
[[nodiscard]] std::uint64_t heap_allocated_bytes() noexcept;

// Makes this thread's arena, emptied, the one a capture window serves from,
// for the scope's lifetime.  A scope opened while another is live on the
// thread is inert: active() is false, the outer scope keeps serving, and
// save/restore must not be called.
class ArenaScope {
 public:
  ArenaScope();
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  [[nodiscard]] bool active() const noexcept { return active_; }
  // Pushes a copy of the arena's used prefix onto this thread's checkpoint
  // stack; false (and nothing pushed) when the stack has no room for it.
  bool push_checkpoint() const;
  // Copies the top checkpoint back into the arena, which keeps it: every
  // block is as it was at the push, and the allocator hands out what it
  // would have handed out then.
  void restore_checkpoint() const;
  // Drops the top checkpoint.
  void pop_checkpoint() const;

  // Bytes of arena blocks in use, and how many of them were in use already
  // when the scope opened: blocks an earlier scope handed out that are
  // still live.  Only for an active scope.
  [[nodiscard]] std::size_t live_bytes() const;
  [[nodiscard]] std::size_t carried_bytes() const noexcept { return carried_; }

 private:
  bool active_ = false;
  std::size_t carried_ = 0;
};

// Opens this thread's capture window for the guard's lifetime (and closes
// it on unwinding): while it is open and an ArenaScope is live, the global
// operator new serves from the arena.  Guards nest; the window closes with
// the outermost.
class CaptureWindow {
 public:
  CaptureWindow() noexcept;
  ~CaptureWindow();
  CaptureWindow(const CaptureWindow&) = delete;
  CaptureWindow& operator=(const CaptureWindow&) = delete;

 private:
  bool was_open_;
};

// Whether a CaptureWindow is open on this thread.
[[nodiscard]] bool capturing() noexcept;

}  // namespace revisim::util
