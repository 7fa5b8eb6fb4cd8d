// Per-thread block pool for world-lifetime memory, with an arena mode that
// lets the explorers checkpoint a world by copying its bytes.
//
// Every explored world allocates the same few dozen small objects:
// coroutine frames, views, H log versions, operation records, simulated
// processes.  The pool keeps freed blocks on thread-local free lists in
// 16-byte size classes and hands them back out, so the steady state of an
// exploration takes almost nothing from the heap.  That matters most once a
// process has a second thread: the heap then takes its locked paths
// (DESIGN.md, finding 13), while a free-list hit touches only the calling
// thread's memory.
//
// Rules of the heap-backed pool:
//  * Blocks up to kPoolMaxBytes are pooled; larger ones come from and go
//    back to the heap directly.
//  * A block may be freed on another thread than the one that allocated it;
//    it then joins the freeing thread's lists.
//  * A thread parks at most kPoolParkBytes; past that, freed blocks go back
//    to the heap, so a thread that only frees other threads' blocks cannot
//    hoard them.  A thread's parked blocks return to the heap when it exits.
//  * Parked blocks are poisoned for AddressSanitizer, so a use of a freed
//    object is still reported.
//
// Arena mode.  Each thread owns one region at a fixed address, reserved on
// first use and touched lazily: the arena, kArenaReserveBytes long, then a
// checkpoint stack as long again.  While an ArenaScope is live on the
// thread, pool_allocate serves every size from the arena: a bump pointer
// plus one free list per size class, and the allocator's metadata (the
// bump offset and the list heads) lives at the start of the arena itself.
// Copying the arena's used prefix onto the checkpoint stack
// therefore captures the allocator's state together with every object in
// it, and copying it back to the same address restores both: no pointer
// moves, so none needs fixing.  The explorer uses that to rewind a world to
// a branch point (src/check/explore_core.h).  Checkpoints are packed, so
// the stack's pages hold exactly the open checkpoints, and like the arena's
// they are touched once and reused by every later job on the thread.
// Rules of the arena:
//  * Arena blocks are freed only on the thread that owns the arena.  The
//    global delete of a block of another thread's arena fails with a
//    message naming the block rather than handing it to free().
//  * Nothing outside the world may hold arena memory across a restore: a
//    restore rewinds every block to its state at the save.
//  * A world whose memory is all in the arena can be restored; memory it
//    took from the heap would be leaked or aliased by a restore.  So the
//    library replaces the global operator new (all its forms) with one that
//    counts heap allocations per thread; heap_allocations() reads the
//    count.  While a CaptureWindow is open and an ArenaScope is live, the
//    global operator new serves from the arena too, without counting: each
//    block carries a 16-byte prefix holding its size, since the global
//    delete may be unsized, and every form of the global delete frees a
//    block of this thread's arena back to it.  So ordinary heap containers
//    a world builds in a step are arena memory and are rewound with it.
//    Two kinds of memory stay on the heap and are counted: an
//    over-aligned new (alignment above __STDCPP_DEFAULT_NEW_ALIGNMENT__),
//    and a block the arena cannot fit (the arena is full, or the block is
//    larger than it); a pool_allocate the arena cannot fit goes to the
//    heap pool and is counted the same way.  The explorer opens the window
//    around each build, step and fingerprint and, once the count moves,
//    stops restoring.
//  * The arena's header counts its live bytes.  A scope empties the arena
//    only if none are live; blocks that outlived the last scope (the
//    message of an exception thrown out of a watched call, say) stay valid
//    and are never handed out again until they are freed.  A thread whose
//    arena still has live blocks when it exits leaves the region mapped.
//  * Under AddressSanitizer free arena blocks are poisoned like parked
//    blocks; a save or restore unpoisons the region before it copies and
//    re-poisons the free blocks afterwards.
//
// Two ways in: PoolAllocator<T>, a stateless allocator for standard
// containers (PoolVector<T>), and Pooled, a base class whose class-level
// operator new/delete route single objects (and, through a virtual
// destructor, objects of derived classes) through the pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace revisim::util {

inline constexpr std::size_t kPoolGranule = 16;  // size-class step
inline constexpr std::size_t kPoolMaxBytes = 4096;
inline constexpr std::size_t kPoolParkBytes = std::size_t{1} << 20;
inline constexpr std::size_t kArenaReserveBytes = std::size_t{16} << 20;

// A block of at least `bytes` bytes, aligned like ::operator new.
void* pool_allocate(std::size_t bytes);
// Returns a block; `bytes` must be the size it was allocated with.
void pool_deallocate(void* block, std::size_t bytes) noexcept;

// Calls to the global operator new made on this thread so far, and the
// bytes they asked for.
[[nodiscard]] std::uint64_t heap_allocations() noexcept;
[[nodiscard]] std::uint64_t heap_allocated_bytes() noexcept;

// Serves this thread's pool from its arena, emptied, for the scope's
// lifetime.  A scope opened while another is live on the thread is inert:
// active() is false, the outer scope keeps serving, and save/restore must
// not be called.
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

template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "pooled blocks have the heap's default alignment");
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(pool_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    pool_deallocate(p, n * sizeof(T));
  }

  template <typename U>
  friend bool operator==(const PoolAllocator& /*a*/,
                         const PoolAllocator<U>& /*b*/) noexcept {
    return true;
  }
};

template <typename T>
using PoolVector = std::vector<T, PoolAllocator<T>>;

// Class-level allocation through the pool.  Sized delete hands the pool the
// size of the object actually destroyed (the most-derived class, when the
// destructor is virtual).
struct Pooled {
  static void* operator new(std::size_t bytes) { return pool_allocate(bytes); }
  static void operator delete(void* block, std::size_t bytes) noexcept {
    pool_deallocate(block, bytes);
  }
};

}  // namespace revisim::util
