#include "src/util/pool.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define REVISIM_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define REVISIM_POOL_ASAN 1
#endif
#endif

namespace revisim::util {
namespace {

// The arena's size classes: small ones kGranule bytes apart up to
// kSmallMaxBytes, then one per power of two from 2 * kSmallMaxBytes up to
// the whole arena.  Small class c holds blocks of (c + 1) * kGranule bytes.
constexpr std::size_t kGranule = 16;
constexpr std::size_t kSmallMaxBytes = 4096;
constexpr std::size_t kClasses = kSmallMaxBytes / kGranule;
constexpr std::size_t kLargeClasses =
    std::bit_width(kArenaReserveBytes / kSmallMaxBytes) - 1;
constexpr std::size_t kArenaClasses = kClasses + kLargeClasses;
// 2 * kSmallMaxBytes == 1 << kLargeShift.
constexpr int kLargeShift = std::bit_width(kSmallMaxBytes);

constexpr std::size_t arena_class(std::size_t bytes) {
  if (bytes <= kSmallMaxBytes) {
    return bytes == 0 ? 0 : (bytes - 1) / kGranule;
  }
  return kClasses + static_cast<std::size_t>(std::bit_width(bytes - 1)) -
         static_cast<std::size_t>(kLargeShift);
}

constexpr std::size_t arena_class_bytes(std::size_t c) {
  return c < kClasses ? (c + 1) * kGranule
                      : std::size_t{1} << (c - kClasses + kLargeShift);
}

static_assert(arena_class_bytes(arena_class(kSmallMaxBytes + 1)) ==
              2 * kSmallMaxBytes);
static_assert(arena_class_bytes(kArenaClasses - 1) == kArenaReserveBytes);

// The allocator's state, at the start of the arena it describes: offsets
// from the arena's base, so that it is plain bytes like everything else
// in the arena.  A free block's first four bytes hold the offset of the
// next free block of its class; offset 0 (the header) ends a list.
struct ArenaHeader {
  std::uint32_t bump;  // first byte never handed out since the reset
  std::uint32_t live;  // bytes of the blocks handed out and not freed
  std::uint32_t heads[kArenaClasses];
};
static_assert(kArenaReserveBytes <= std::uint64_t{1} << 32);

constexpr std::size_t kArenaStart =
    (sizeof(ArenaHeader) + kGranule - 1) / kGranule * kGranule;

// This thread's region (the arena, then the checkpoint stack, then the
// class map), mapped by its first ArenaScope and unmapped when the thread
// exits, unless blocks in it are still live: those must stay valid until
// they are freed.  `arena_base` mirrors it in a trivially destructible
// thread_local, so the free path's range check costs one load.
//
// The class map holds one entry per granule of the arena: the size class
// of the block that starts there, written when the bump pointer carves it
// (pool.h says why it needs no checkpoint).
using ClassEntry = std::uint16_t;
static_assert(kArenaClasses <= std::numeric_limits<ClassEntry>::max());
constexpr std::size_t kCheckpointStackBytes = kArenaReserveBytes;
constexpr std::size_t kClassMapOffset =
    kArenaReserveBytes + kCheckpointStackBytes;
constexpr std::size_t kClassMapBytes =
    kArenaReserveBytes / kGranule * sizeof(ClassEntry);
constexpr std::size_t kRegionBytes = kClassMapOffset + kClassMapBytes;
thread_local std::byte* arena_base = nullptr;
// The arena while a scope is live on this thread.
thread_local ArenaHeader* live_arena = nullptr;
// Bytes in use on the checkpoint stack, which follows the arena.  Each
// checkpoint is the arena's used prefix (header included), padded to
// kGranule, then its unpadded length in a kGranule-sized trailer.
thread_local std::size_t stack_top = 0;
// Whether a CaptureWindow is open: the global operator new then serves
// from the live arena.
thread_local bool capture_open = false;

// Every mapped region's base, so that the global delete can tell a block of
// another thread's arena from a heap block and fail with a message instead
// of handing it to free().  A thread claims a slot when it maps its region
// and clears it when it unmaps it; past kRegionSlots mapped regions, a
// region goes unregistered and such a free is no longer caught.
constexpr std::size_t kRegionSlots = 256;
std::atomic<std::byte*> region_bases[kRegionSlots];
// One past the highest slot ever claimed: the scan's bound.
std::atomic<std::size_t> region_slots_used{0};

std::size_t register_region(std::byte* base) {
  for (std::size_t i = 0; i < kRegionSlots; ++i) {
    std::byte* expected = nullptr;
    if (region_bases[i].compare_exchange_strong(expected, base,
                                                std::memory_order_relaxed)) {
      std::size_t used = region_slots_used.load(std::memory_order_relaxed);
      while (used < i + 1 && !region_slots_used.compare_exchange_weak(
                                 used, i + 1, std::memory_order_relaxed)) {
      }
      return i;
    }
  }
  return kRegionSlots;
}

struct ArenaRegion {
  std::byte* base = nullptr;
  std::size_t slot = kRegionSlots;  // its region_bases entry, if any
  ArenaRegion() = default;
  ArenaRegion(const ArenaRegion&) = delete;
  ArenaRegion& operator=(const ArenaRegion&) = delete;
  ~ArenaRegion() {
    if (base != nullptr &&
        reinterpret_cast<const ArenaHeader*>(base)->live == 0) {
      if (slot < kRegionSlots) {
        region_bases[slot].store(nullptr, std::memory_order_relaxed);
      }
      ::munmap(base, kRegionBytes);
      arena_base = nullptr;
      live_arena = nullptr;
    }
  }
};
thread_local ArenaRegion region;

// Fails, naming the block, if `p` lies in another thread's region.  The
// free that made `p` reachable here is ordered after the allocation, and
// that after the owner registered its region, so relaxed loads see it.
void check_not_foreign_arena(const void* p) noexcept {
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  const std::size_t used = region_slots_used.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < used; ++i) {
    std::byte* base = region_bases[i].load(std::memory_order_relaxed);
    if (base == nullptr || base == arena_base ||
        at - reinterpret_cast<std::uintptr_t>(base) >= kRegionBytes) {
      continue;
    }
    char msg[256];
    const int n = std::snprintf(
        msg, sizeof msg,
        "revisim arena: cross-thread free of block %p, which lies in another "
        "thread's arena (region %p); arena blocks must be freed on the "
        "thread that allocated them\n",
        p, static_cast<void*>(base));
    if (n > 0) {
      (void)!::write(STDERR_FILENO, msg,
                     std::min(static_cast<std::size_t>(n), sizeof msg - 1));
    }
    std::abort();
  }
}

ArenaHeader& header() { return *reinterpret_cast<ArenaHeader*>(arena_base); }

bool in_arena(const void* block) {
  return arena_base != nullptr &&
         reinterpret_cast<std::uintptr_t>(block) -
                 reinterpret_cast<std::uintptr_t>(arena_base) <
             kArenaReserveBytes;
}

ClassEntry* class_map(std::byte* base) {
  return reinterpret_cast<ClassEntry*>(base + kClassMapOffset);
}

std::uint32_t next_free(const std::byte* block) {
  std::uint32_t next;
  std::memcpy(&next, block, sizeof next);
  return next;
}

// Forced inline into arena_new and arena_delete, which run for nearly every
// block a world makes.
[[gnu::always_inline]] inline void* arena_allocate(ArenaHeader& a,
                                                   std::size_t bytes) {
  if (bytes > kArenaReserveBytes - kArenaStart) {
    return nullptr;
  }
  const std::size_t c = arena_class(bytes);
  const std::size_t size = arena_class_bytes(c);
  std::byte* const base = reinterpret_cast<std::byte*>(&a);
  if (const std::uint32_t off = a.heads[c]; off != 0) {
    std::byte* block = base + off;
    ASAN_UNPOISON_MEMORY_REGION(block, size);
    a.heads[c] = next_free(block);
    a.live += static_cast<std::uint32_t>(size);
    return block;
  }
  if (size > kArenaReserveBytes - a.bump) {
    return nullptr;
  }
  std::byte* block = base + a.bump;
  class_map(base)[a.bump / kGranule] = static_cast<ClassEntry>(c);
  a.bump += static_cast<std::uint32_t>(size);
  a.live += static_cast<std::uint32_t>(size);
  ASAN_UNPOISON_MEMORY_REGION(block, size);
  return block;
}

[[gnu::always_inline]] inline void arena_free(void* raw) {
  ArenaHeader& a = header();
  auto* block = static_cast<std::byte*>(raw);
  const std::size_t c =
      class_map(arena_base)[static_cast<std::size_t>(block - arena_base) /
                            kGranule];
  std::memcpy(block, &a.heads[c], sizeof a.heads[c]);
  a.heads[c] = static_cast<std::uint32_t>(block - arena_base);
  a.live -= static_cast<std::uint32_t>(arena_class_bytes(c));
  ASAN_POISON_MEMORY_REGION(block, arena_class_bytes(c));
}

// The copies read and write free blocks, which AddressSanitizer holds
// poisoned: unpoison the used prefix first, re-poison the free blocks after.
void unpoison_used(std::size_t end) {
  ASAN_UNPOISON_MEMORY_REGION(arena_base + kArenaStart, end - kArenaStart);
  (void)end;
}

void repoison_free_blocks() {
#ifdef REVISIM_POOL_ASAN
  const ArenaHeader& a = header();
  for (std::size_t c = 0; c < kArenaClasses; ++c) {
    for (std::uint32_t off = a.heads[c]; off != 0;) {
      std::byte* block = arena_base + off;
      off = next_free(block);
      ASAN_POISON_MEMORY_REGION(block, arena_class_bytes(c));
    }
  }
#endif
}

// Calls to the global operator new that reached the heap on this thread,
// and the bytes they asked for (see the replacements at the end of this
// file).
thread_local std::uint64_t heap_calls = 0;
thread_local std::uint64_t heap_bytes = 0;

// The heap behind the global operator new: a counted malloc (posix_memalign
// for an over-aligned block) that honours the new-handler.
void* heap_new(std::size_t bytes, std::size_t align) {
  ++heap_calls;
  heap_bytes += bytes;
  if (bytes == 0) {
    bytes = 1;
  }
  for (;;) {
    void* p = nullptr;
    if (align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      p = std::malloc(bytes);
    } else if (::posix_memalign(&p, align, bytes) != 0) {
      p = nullptr;
    }
    if (p != nullptr) {
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) {
      throw std::bad_alloc();
    }
    handler();
  }
}

// A block for the global operator new from the live arena; null outside a
// capture window, for an over-aligned block, or when the arena cannot fit
// it.
void* arena_new(std::size_t bytes, std::size_t align) noexcept {
  ArenaHeader* a = live_arena;
  if (a == nullptr || !capture_open ||
      align > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
    return nullptr;
  }
  return arena_allocate(*a, bytes);
}

// Frees a block of the global operator new if it lies in this thread's
// arena; false otherwise.
bool arena_delete(void* p) noexcept {
  if (!in_arena(p)) {
    return false;
  }
  arena_free(p);
  return true;
}

}  // namespace

std::uint64_t heap_allocations() noexcept { return heap_calls; }
std::uint64_t heap_allocated_bytes() noexcept { return heap_bytes; }

CaptureWindow::CaptureWindow() noexcept : was_open_(capture_open) {
  capture_open = true;
}

CaptureWindow::~CaptureWindow() { capture_open = was_open_; }

bool capturing() noexcept { return capture_open; }

ArenaScope::ArenaScope() {
  if (live_arena != nullptr) {
    return;  // nested: the outer scope keeps serving
  }
  if (arena_base == nullptr) {
    void* mem = ::mmap(nullptr, kRegionBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED) {
      return;  // inert: the heap serves
    }
    region.base = static_cast<std::byte*>(mem);
    region.slot = register_region(region.base);
    arena_base = region.base;
    // The mapping may reuse addresses an exited thread's arena poisoned.
    ASAN_UNPOISON_MEMORY_REGION(mem, kRegionBytes);
  }
  ArenaHeader& a = header();
  if (a.live == 0) {
    // Whatever the last scope left is garbage now.
    if (a.bump != 0) {
      ASAN_POISON_MEMORY_REGION(arena_base + kArenaStart,
                                a.bump - kArenaStart);
    }
    std::memset(&a, 0, sizeof a);
    a.bump = kArenaStart;
  }
  // Otherwise blocks the last scope handed out are still live: keep the
  // allocator's state, which never hands them out again.
  carried_ = a.live;
  live_arena = &a;
  stack_top = 0;
  active_ = true;
}

std::size_t ArenaScope::live_bytes() const { return header().live; }

ArenaScope::~ArenaScope() {
  if (active_) {
    live_arena = nullptr;
  }
}

namespace {

std::byte* checkpoint_stack() { return arena_base + kArenaReserveBytes; }

constexpr std::size_t padded(std::size_t n) {
  return (n + kGranule - 1) / kGranule * kGranule;
}

// Length of the top checkpoint, read from its trailer.
std::size_t top_length() {
  std::size_t n;
  std::memcpy(&n, checkpoint_stack() + stack_top - kGranule, sizeof n);
  return n;
}

}  // namespace

bool ArenaScope::push_checkpoint() const {
  const std::size_t n = header().bump;
  if (padded(n) + kGranule > kCheckpointStackBytes - stack_top) {
    return false;
  }
  std::byte* at = checkpoint_stack() + stack_top;
  unpoison_used(n);
  std::memcpy(at, arena_base, n);
  repoison_free_blocks();
  std::memcpy(at + padded(n), &n, sizeof n);
  stack_top += padded(n) + kGranule;
  return true;
}

void ArenaScope::restore_checkpoint() const {
  const std::size_t now = header().bump;
  const std::size_t n = top_length();
  unpoison_used(std::max(now, n));
  std::memcpy(arena_base,
              checkpoint_stack() + stack_top - kGranule - padded(n), n);
  if (now > n) {
    ASAN_POISON_MEMORY_REGION(arena_base + n, now - n);
  }
  repoison_free_blocks();
}

void ArenaScope::pop_checkpoint() const {
  stack_top -= padded(top_length()) + kGranule;
}

}  // namespace revisim::util

// --- the counting global operator new ----------------------------------------
//
// Every form takes its block from the arena inside a capture window and
// from heap_new otherwise; every delete gives a block of this thread's
// arena back to it, fails naming a block of another thread's arena, and
// forwards anything else to free.

namespace {

void* counted_new(std::size_t bytes, std::size_t align) {
  if (void* p = revisim::util::arena_new(bytes, align)) {
    return p;
  }
  return revisim::util::heap_new(bytes, align);
}

void* counted_new_nothrow(std::size_t bytes, std::size_t align) noexcept {
  try {
    return counted_new(bytes, align);
  } catch (...) {
    return nullptr;
  }
}

// Out of line, so that the compiler does not pair a visible free() with an
// operator new it inlined next to it and warn about a mismatch.
[[gnu::noinline]] void release(void* p) noexcept {
  if (!revisim::util::arena_delete(p)) {
    revisim::util::check_not_foreign_arena(p);
    std::free(p);
  }
}

constexpr std::size_t kPlain = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

std::size_t align_of(std::align_val_t a) { return static_cast<std::size_t>(a); }

}  // namespace

void* operator new(std::size_t n) { return counted_new(n, kPlain); }
void* operator new[](std::size_t n) { return counted_new(n, kPlain); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_new_nothrow(n, kPlain);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_new_nothrow(n, kPlain);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_new(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_new(n, align_of(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_new_nothrow(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_new_nothrow(n, align_of(a));
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}
