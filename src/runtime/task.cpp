#include "src/runtime/task.h"

#include <sanitizer/asan_interface.h>

#include <new>

namespace revisim::runtime::detail {
namespace {

constexpr std::size_t kGranule = 64;
constexpr std::size_t kClasses = 64;  // frames up to 4 KiB are pooled
// Most a thread keeps parked; past it, freed frames go back to the heap, so
// a thread that only ever frees other threads' frames cannot hoard them.
constexpr std::size_t kMaxParkedBytes = std::size_t{1} << 20;

struct FreeFrame {
  FreeFrame* next;
};

// Size class c holds blocks of (c + 1) * kGranule bytes.
constexpr std::size_t class_of(std::size_t bytes) {
  return (bytes + kGranule - 1) / kGranule - 1;
}

constexpr std::size_t class_bytes(std::size_t c) { return (c + 1) * kGranule; }

// One thread's free lists.  Parked blocks are poisoned whole; a block is
// unpoisoned before its link is read.
struct FreeLists {
  FreeFrame* heads[kClasses] = {};
  std::size_t parked_bytes = 0;

  FreeLists() = default;
  FreeLists(const FreeLists&) = delete;
  FreeLists& operator=(const FreeLists&) = delete;
  ~FreeLists();

  void* pop(std::size_t c) {
    FreeFrame* frame = heads[c];
    if (frame == nullptr) {
      return nullptr;
    }
    ASAN_UNPOISON_MEMORY_REGION(frame, class_bytes(c));
    heads[c] = frame->next;
    parked_bytes -= class_bytes(c);
    return frame;
  }

  // False when the thread's parking budget is spent.
  bool push(void* block, std::size_t c) noexcept {
    if (parked_bytes + class_bytes(c) > kMaxParkedBytes) {
      return false;
    }
    auto* frame = static_cast<FreeFrame*>(block);
    frame->next = heads[c];
    heads[c] = frame;
    parked_bytes += class_bytes(c);
    ASAN_POISON_MEMORY_REGION(frame, class_bytes(c));
    return true;
  }
};

// Frames can still be freed on this thread after its lists were destroyed
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
void* allocate_frame(std::size_t bytes) {
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

void deallocate_frame(void* frame, std::size_t bytes) noexcept {
  const std::size_t c = class_of(bytes);
  if (c >= kClasses || lists_gone || !lists.push(frame, c)) {
    ::operator delete(frame);
  }
}

}  // namespace revisim::runtime::detail
