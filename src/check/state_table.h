// Visited-state transposition table for the schedule explorer.
//
// Keys are 128-bit state fingerprints (src/util/fingerprint.h).  The table
// is a fixed-capacity open-addressing array of 16-byte slots {hi, lo} with
// linear probing, where a zero word means "not yet written": an insert
// claims an empty slot by one CAS of `hi` from 0 to the key's hi word, then
// release-publishes `lo`; a probe that matches `hi` waits while `lo` is
// still 0 and then compares it.  So the parallel explorer's workers share
// one table with no locks at all and the serial explorer pays a single
// uncontended CAS per distinct state.
// The claim is synchronous - a successful insert *is* the claim-then-walk
// handshake: whichever worker wins the CAS owns the subtree walk, and every
// racing worker observes the published key and prunes, which is what keeps
// parallel `states_seen` from exceeding the serial count on exhausted
// searches (each distinct state is claimed and walked exactly once).
//
// Capacity is fixed at construction (a power of two).  Slots live in an
// anonymous mapping, so untouched pages stay unmapped and tiny searches do
// not pay for a large table.  When occupancy reaches 7/8 the
// table *saturates*: further inserts of unseen states return true without
// recording (the walk proceeds, nothing is pruned that was not recorded),
// so dedupe degrades to a partial accelerant instead of failing - see
// saturated(), which the explorers report as
// ScheduleExploreResult::table_saturated.
//
// Prefetch.  The first load of an insert's probe is a cache miss, and on a
// large table a TLB miss too; prefetch(fp) starts it early.  The DFS core
// calls it as soon as a node's fingerprint is known and inserts once the
// node's own work is done (its runnable set, or its checkpoint and first
// step), so the miss overlaps that work.  The
// table is not backed by huge pages: they cut the TLB misses of a long
// walk, but each distributed worker's first inserts would then fault in
// whole 2 MB pages, which slows every short run (DESIGN.md finding 16).
//
// Collision-audit mode stores the full canonical state string behind every
// fingerprint and fails loudly - by throwing StateFingerprintCollision - if
// a 128-bit hash ever maps two distinct canonical states together.  A prune
// taken on a colliding hash would silently skip a genuinely unexplored
// subtree; audit mode converts that silent unsoundness into a hard error
// (at the memory cost of retaining every canonical state, behind a single
// mutex - audit is a validation mode, not a fast path).
//
// Zero words.  Since 0 marks an unwritten word, a fingerprint word that is
// 0 is stored as 1, so {0, x} and {1, x} (and {x, 0} and {x, 1}) are one key
// outside audit mode.  That is one more merge of two distinct fingerprints,
// with odds of about 2^-64 per pair of states - the same order as the
// 128-bit collision above; audit mode keys the full fingerprint and
// catches it like any other collision.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "src/util/fingerprint.h"

namespace revisim::check {

class StateFingerprintCollision : public std::runtime_error {
 public:
  explicit StateFingerprintCollision(const std::string& what)
      : std::runtime_error(what) {}
};

// Abstract visited-state store consulted by the DFS engine at every node.
// StateTable below is the in-process implementation; the distributed
// worker wraps its own StateTable in a store that also reports first
// sightings to the coordinator (src/dist/worker.cpp).  The insert contract
// is StateTable::insert's: true means the caller owns the subtree walk,
// false means prune; `canonical` is invoked only when audit() is true.
class StateStore {
 public:
  virtual ~StateStore() = default;

  virtual bool insert(util::Fingerprint fp,
                      const std::function<std::string()>& canonical = {}) = 0;

  // A hint that insert(fp) follows shortly: a store may start loading what
  // that insert will probe, so the miss overlaps the caller's work in
  // between.  No effect on any result; the default does nothing.
  virtual void prefetch(util::Fingerprint fp) const noexcept { (void)fp; }

  [[nodiscard]] virtual bool audit() const noexcept = 0;

  // Distinct states recorded (a distributed worker reports its own table's
  // count; the coordinator owns the run's).
  [[nodiscard]] virtual std::size_t states() const = 0;

  // Pruning hits: inserts that found the state already present.
  [[nodiscard]] virtual std::size_t hits() const noexcept = 0;

  // True once the store began admitting states without recording them, so
  // dedupe became partial (StateTable::saturated).
  [[nodiscard]] virtual bool saturated() const noexcept = 0;
};

class StateTable final : public StateStore {
 public:
  struct Options {
    bool audit = false;  // retain canonical states, detect collisions
    // Slot count, rounded up to a power of two.  16 bytes per slot,
    // allocated zeroed (lazily mapped), saturating at 7/8 occupancy.
    std::size_t capacity = std::size_t{1} << 20;
  };

  StateTable();
  explicit StateTable(Options options);
  ~StateTable();

  StateTable(const StateTable&) = delete;
  StateTable& operator=(const StateTable&) = delete;

  // Records fp as visited.  Returns true iff fp was new (the caller owns the
  // subtree walk); false means the state was already visited and the caller
  // prunes.  Lock-free (one CAS on the claimed slot) except in audit mode.
  // `canonical` produces the full canonical state string; it is invoked only
  // in audit mode (once on first insert, once per subsequent hit to
  // cross-check), so non-audit runs never pay for serialization.  Throws
  // StateFingerprintCollision if audit finds two canonical states behind one
  // fingerprint.
  bool insert(util::Fingerprint fp,
              const std::function<std::string()>& canonical = {}) override;

  // Prefetches the slot where insert(fp) starts probing.  The table is far
  // larger than the caches, so that first load is a cache miss and, on a
  // 16 MB table, a TLB miss too; issued well ahead of the insert, the miss
  // overlaps the work in between.  A no-op in audit mode.  Opaque to
  // interprocedural analysis: GCC finds a function whose only effect is a
  // prefetch free of side effects, and deletes calls it can resolve to it.
  [[gnu::noipa]] void prefetch(util::Fingerprint fp) const noexcept override;

  [[nodiscard]] bool audit() const noexcept override { return audit_; }

  // Distinct states recorded.
  [[nodiscard]] std::size_t states() const override;

  // Pruning hits: inserts that found the state already present.
  [[nodiscard]] std::size_t hits() const noexcept override {
    return hits_.load(std::memory_order_relaxed);
  }

  // True once occupancy reached 7/8 of capacity and inserts began admitting
  // states without recording them (dedupe became partial).
  [[nodiscard]] bool saturated() const noexcept override {
    return saturated_.load(std::memory_order_relaxed);
  }

 private:
  struct FingerprintHash {
    std::size_t operator()(const util::Fingerprint& fp) const noexcept {
      return static_cast<std::size_t>(fp.lo ^ (fp.hi * 0x9e3779b97f4a7c15ull));
    }
  };

  // One open-addressing slot: a key's two words, 0 while unwritten (see
  // the header comment).  `hi` moves from 0 to the key's hi word by the
  // claiming CAS and `lo` from 0 by one release store, each exactly once.
  // Accessed through std::atomic_ref over an anonymous mapping: zeroed ==
  // empty, and pages are touched only as slots are claimed.
  struct Slot {
    std::uint64_t hi;
    std::uint64_t lo;
  };
  static_assert(sizeof(Slot) == 16);

  // fp's key words under the zero-word rule (see the header comment).
  static util::Fingerprint stored_key(util::Fingerprint fp) noexcept {
    return {fp.hi != 0 ? fp.hi : 1, fp.lo != 0 ? fp.lo : 1};
  }

  // The slot where a probe for fp starts.
  std::size_t home(util::Fingerprint fp) const noexcept {
    return FingerprintHash{}(stored_key(fp)) & mask_;
  }

  bool insert_lockfree(util::Fingerprint fp);

  Slot* slots_ = nullptr;
  std::size_t mask_ = 0;
  std::size_t high_water_ = 0;  // 7/8 of capacity
  bool audit_ = false;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<bool> saturated_{false};

  // Audit mode only: the canonical state behind each fingerprint.
  std::mutex audit_mu_;
  std::unordered_map<util::Fingerprint, std::string, FingerprintHash> canon_;
};

}  // namespace revisim::check
