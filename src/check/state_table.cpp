#include "src/check/state_table.h"

#include <sys/mman.h>

#include <new>
#include <thread>

namespace revisim::check {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

}  // namespace

StateTable::StateTable() : StateTable(Options{}) {}

StateTable::StateTable(Options options) : audit_(options.audit) {
  if (!audit_) {
    const std::size_t cap =
        round_up_pow2(options.capacity < 16 ? 16 : options.capacity);
    // An anonymous mapping: slots start zeroed (== empty) and pages are
    // mapped only when touched, so a search that visits a few hundred
    // states maps a few pages of a million-slot table.  calloc does not
    // promise that: once a process has freed a table of this size, calloc
    // can hand back the reused heap block and zero all of it.
    void* p = ::mmap(nullptr, cap * sizeof(Slot), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      throw std::bad_alloc();
    }
    slots_ = static_cast<Slot*>(p);
    mask_ = cap - 1;
    high_water_ = cap - cap / 8;
  }
}

StateTable::~StateTable() {
  if (slots_ != nullptr) {
    ::munmap(slots_, (mask_ + 1) * sizeof(Slot));
  }
}

bool StateTable::insert_lockfree(util::Fingerprint fp) {
  if (size_.load(std::memory_order_relaxed) >= high_water_) {
    // Saturated: admit without recording.  The caller walks the subtree (no
    // unsound prune is possible - nothing new is recorded), dedupe merely
    // stops shrinking the search past this point.
    saturated_.store(true, std::memory_order_relaxed);
    return true;
  }
  const auto [hi, lo] = stored_key(fp);
  std::size_t idx = home(fp);
  for (std::size_t probes = 0; probes <= mask_; ++probes) {
    Slot& slot = slots_[idx];
    std::atomic_ref<std::uint64_t> slot_hi(slot.hi);
    std::uint64_t seen = slot_hi.load(std::memory_order_relaxed);
    // Empty: claim it.  A lost race leaves the winner's hi in `seen`, and
    // the winner may have inserted this very key.
    if (seen == 0 && slot_hi.compare_exchange_strong(
                         seen, hi, std::memory_order_relaxed,
                         std::memory_order_relaxed)) {
      std::atomic_ref<std::uint64_t>(slot.lo).store(lo,
                                                    std::memory_order_release);
      size_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (seen == hi) {
      std::atomic_ref<std::uint64_t> slot_lo(slot.lo);
      std::uint64_t stored = slot_lo.load(std::memory_order_acquire);
      while (stored == 0) {
        // The claimant is between its CAS and its lo store - a handful of
        // instructions; spin until the key is published.
        std::this_thread::yield();
        stored = slot_lo.load(std::memory_order_acquire);
      }
      if (stored == lo) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    idx = (idx + 1) & mask_;  // another key's slot; probe the next one
  }
  // Unreachable below the high-water mark (empty slots always remain), but
  // degrade like saturation rather than loop forever.
  saturated_.store(true, std::memory_order_relaxed);
  return true;
}

void StateTable::prefetch(util::Fingerprint fp) const noexcept {
  if (slots_ != nullptr) {
    __builtin_prefetch(&slots_[home(fp)], 1);
  }
}

bool StateTable::insert(util::Fingerprint fp,
                        const std::function<std::string()>& canonical) {
  if (!audit_) {
    return insert_lockfree(fp);
  }
  // Audit mode: serialize outside the lock (the canonical string depends
  // only on the caller's world, not on the table).
  std::string state = canonical ? canonical() : std::string{};
  std::lock_guard<std::mutex> lock(audit_mu_);
  // try_emplace leaves `state` intact when the key already exists.
  auto [it, inserted] = canon_.try_emplace(fp, std::move(state));
  if (inserted) {
    return true;
  }
  if (canonical && it->second != state) {
    throw StateFingerprintCollision(
        "128-bit state fingerprint collision: two distinct canonical states "
        "hash equal; pruning would be unsound (stored=\"" +
        it->second.substr(0, 128) + "...\")");
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

std::size_t StateTable::states() const {
  if (!audit_) {
    return size_.load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(audit_mu_));
  return canon_.size();
}

}  // namespace revisim::check
