// Per-thread block pool for world-lifetime memory.
//
// The explorers cannot copy a world, so they rebuild and replay one for
// every execution, and every world allocates the same few dozen small
// objects again: coroutine frames, views, H log versions, operation
// records, simulated processes.  The pool keeps freed blocks on
// thread-local free lists in 16-byte size classes and hands them back out,
// so the steady state of an exploration takes almost nothing from the heap.
// That matters most once a process has a second thread: the heap then takes
// its locked paths (DESIGN.md, finding 13), while a free-list hit touches
// only the calling thread's memory.
//
// Rules:
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
// Two ways in: PoolAllocator<T>, a stateless allocator for standard
// containers (PoolVector<T>), and Pooled, a base class whose class-level
// operator new/delete route single objects (and, through a virtual
// destructor, objects of derived classes) through the pool.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace revisim::util {

inline constexpr std::size_t kPoolGranule = 16;  // size-class step
inline constexpr std::size_t kPoolMaxBytes = 4096;
inline constexpr std::size_t kPoolParkBytes = std::size_t{1} << 20;

// A block of at least `bytes` bytes, aligned like ::operator new.
void* pool_allocate(std::size_t bytes);
// Returns a block; `bytes` must be the size it was allocated with.
void pool_deallocate(void* block, std::size_t bytes) noexcept;

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
