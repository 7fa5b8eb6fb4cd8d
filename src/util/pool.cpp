#include "src/util/pool.h"

#include <sanitizer/asan_interface.h>

namespace revisim::util {
namespace {

constexpr std::size_t kClasses = kPoolMaxBytes / kPoolGranule;

struct FreeBlock {
  FreeBlock* next;
};

// Size class c holds blocks of (c + 1) * kPoolGranule bytes.
constexpr std::size_t class_of(std::size_t bytes) {
  return (bytes + kPoolGranule - 1) / kPoolGranule - 1;
}

constexpr std::size_t class_bytes(std::size_t c) {
  return (c + 1) * kPoolGranule;
}

// One thread's free lists.  Parked blocks are poisoned whole; a block is
// unpoisoned before its link is read.
struct FreeLists {
  FreeBlock* heads[kClasses] = {};
  std::size_t parked_bytes = 0;

  FreeLists() = default;
  FreeLists(const FreeLists&) = delete;
  FreeLists& operator=(const FreeLists&) = delete;
  ~FreeLists();

  void* pop(std::size_t c) {
    FreeBlock* block = heads[c];
    if (block == nullptr) {
      return nullptr;
    }
    ASAN_UNPOISON_MEMORY_REGION(block, class_bytes(c));
    heads[c] = block->next;
    parked_bytes -= class_bytes(c);
    return block;
  }

  // False when the thread's parking budget is spent.
  bool push(void* raw, std::size_t c) noexcept {
    if (parked_bytes + class_bytes(c) > kPoolParkBytes) {
      return false;
    }
    auto* block = static_cast<FreeBlock*>(raw);
    block->next = heads[c];
    heads[c] = block;
    parked_bytes += class_bytes(c);
    ASAN_POISON_MEMORY_REGION(block, class_bytes(c));
    return true;
  }
};

// Blocks can still be freed on this thread after its lists were destroyed
// (by a thread_local destroyed later); those go straight to the heap.
thread_local bool lists_gone = false;
thread_local FreeLists lists;

FreeLists::~FreeLists() {
  for (std::size_t c = 0; c < kClasses; ++c) {
    while (void* block = pop(c)) {
      ::operator delete(block);
    }
  }
  lists_gone = true;
}

}  // namespace

// A pooled size gets a block of its whole class even when it does not come
// from the lists, because it may be parked on another thread's lists later.
void* pool_allocate(std::size_t bytes) {
  const std::size_t c = class_of(bytes);
  if (c >= kClasses) {
    return ::operator new(bytes);
  }
  if (!lists_gone) {
    if (void* block = lists.pop(c)) {
      return block;
    }
  }
  return ::operator new(class_bytes(c));
}

void pool_deallocate(void* block, std::size_t bytes) noexcept {
  const std::size_t c = class_of(bytes);
  if (c >= kClasses || lists_gone || !lists.push(block, c)) {
    ::operator delete(block);
  }
}

}  // namespace revisim::util
