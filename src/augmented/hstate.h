// Contents of the single-writer snapshot H underlying the augmented
// snapshot (§3.2).
//
// Component i of H is process q_{i+1}'s append-only log.  It carries two
// kinds of entries:
//   * update triples (component of M, value, timestamp), appended in batches
//     of r by the line-4 update of a Block-Update to r components;
//   * helping records, the paper's registers L_{i,j}[b]: q_{i+1} publishing
//     "the result of a scan of H" for q_{j+1}'s b'th Block-Update.
//
// Representation.  An HComp is a handle on one immutable version of such a
// log.  Appending (with_batch / with_lrecords) builds the next version and
// leaves every existing one untouched, so a scan of H copies f handles, and
// a scan result - held by a Block-Update, or embedded in a helping record -
// can never change under its holder.  Each version has a digest of its
// content, combined from digests of its two entry sequences; a published
// scan result (PublishedView) has the digest of its f components.  Digests
// are sealed lazily, on the first digest() call, and cached: a run that
// never fingerprints (dedupe off) hashes nothing, and an entry sequence
// shared by several versions is hashed once.  Hashing sinks consume these
// digests (StateSink::take_digest), so fingerprinting H or a helping record
// costs O(1) words per component once its digests are sealed, whatever the
// log length and nesting depth; TextSink still renders the full content.
// Digests depend on content only: two versions with equal entries have
// equal digests however they were built, and whichever was asked first.
//
// Ownership.  A version belongs to the world that built it, and a world runs
// on one thread.  So the caches are not synchronized, and versions, entry
// sequences and published views are shared through LocalRef: an intrusive
// handle with a plain (non-atomic) reference count.  Memory made inside the
// explorer's capture window is the thread's world arena, and is freed on its
// own thread (src/util/pool.h); outside the explorer it is plain heap.
//
// The paper's prefix order on scan results (Observation 1) concerns the
// update-triple logs: those are what Get-View and the Block-Update return
// value depend on, and helping records must not invalidate a Scan's double
// collect (otherwise two concurrent Scans could block each other, which
// would contradict Lemma 2).  Hence equality/prefix below compare triples
// only.
#pragma once

#include <cstdint>
#include <cstddef>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/augmented/timestamp.h"
#include "src/util/fingerprint.h"
#include "src/util/value.h"

namespace revisim::aug {

struct UpdateTriple {
  std::size_t component = 0;  // component of M
  Val value = 0;
  Timestamp ts;

  friend bool operator==(const UpdateTriple&, const UpdateTriple&) = default;

  void fingerprint_into(util::StateSink& sink) const {
    util::feed(sink, component);
    util::feed(sink, value);
    util::feed(sink, ts);
  }
};

// Base of the objects LocalRef shares: a plain count.
class LocalCounted {
 private:
  template <typename T>
  friend class LocalRef;
  mutable std::uint32_t refs_ = 0;
};

// Shared ownership of one LocalCounted object within one thread (see the
// header comment).  Copying bumps an integer; the last handle deletes.
template <typename T>
class LocalRef {
 public:
  LocalRef() noexcept = default;
  LocalRef(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)
  // Takes a freshly allocated object (make_local).
  explicit LocalRef(T* p) noexcept : p_(p) { retain(); }
  LocalRef(const LocalRef& other) noexcept : p_(other.p_) { retain(); }
  LocalRef(LocalRef&& other) noexcept : p_(std::exchange(other.p_, nullptr)) {}
  // A handle to a just-built object becomes a handle to its const view.
  template <typename U>
    requires std::is_convertible_v<U*, T*>
  LocalRef(LocalRef<U>&& other) noexcept  // NOLINT(google-explicit-constructor)
      : p_(std::exchange(other.p_, nullptr)) {}
  LocalRef& operator=(LocalRef other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~LocalRef() {
    if (p_ != nullptr && --p_->refs_ == 0) {
      delete p_;
    }
  }

  T& operator*() const noexcept { return *p_; }
  T* operator->() const noexcept { return p_; }

  friend bool operator==(const LocalRef& a, const LocalRef& b) noexcept {
    return a.p_ == b.p_;
  }
  friend bool operator==(const LocalRef& a, std::nullptr_t) noexcept {
    return a.p_ == nullptr;
  }

 private:
  template <typename U>
  friend class LocalRef;

  void retain() noexcept {
    if (p_ != nullptr) {
      ++p_->refs_;
    }
  }

  T* p_ = nullptr;
};

template <typename T, typename... Args>
[[nodiscard]] LocalRef<T> make_local(Args&&... args) {
  return LocalRef<T>(new T(std::forward<Args>(args)...));
}

class HComp;
// Result of a scan of H (all f components).
using HView = std::vector<HComp>;

// A scan result published in helping records.  Its content digest (an
// O(f) combination of the component digests) is sealed on the first
// digest() call.  One instance is shared by all the records of one publish.
class PublishedView : public LocalCounted {
 public:
  explicit PublishedView(HView v);

  [[nodiscard]] const util::Fingerprint& digest() const;

  HView view;

 private:
  util::LazyDigest digest_;
};

// The paper's L_{i,j}[b] <- h: "for q_{target+1}'s Block-Update number
// `index`, here is the scan result `h`".
struct LRecord {
  std::size_t target = 0;  // j: the process being helped (0-based)
  std::size_t index = 0;   // b: which of its Block-Updates
  LocalRef<const PublishedView> h;  // scan result being published

  void fingerprint_into(util::StateSink& sink) const;
};

// One version of a process's component of H (see the header comment).  The
// default-constructed handle is the empty log.
class HComp {
 public:
  using Triples = std::vector<UpdateTriple>;
  using LRecords = std::vector<LRecord>;

  // The empty log.  Copies share the version; the special members live in
  // hstate.cpp, where the version type is complete.
  HComp() noexcept;
  HComp(const HComp& other) noexcept;
  HComp(HComp&& other) noexcept;
  HComp& operator=(const HComp& other) noexcept;
  HComp& operator=(HComp&& other) noexcept;
  ~HComp();

  [[nodiscard]] const Triples& triples() const noexcept;
  // #h_i: number of Block-Updates recorded (distinct timestamps in triples).
  [[nodiscard]] std::size_t num_bu() const noexcept;
  [[nodiscard]] const LRecords& lrecords() const noexcept;
  // Digest of (triples, num_bu, lrecords), sealed on the first call.
  [[nodiscard]] const util::Fingerprint& digest() const;

  // The next version: this log plus one Block-Update's batch of triples
  // (#h_i grows by one), resp. plus helping records.  Appending no records
  // returns this version itself.
  [[nodiscard]] HComp with_batch(Triples batch) const;
  [[nodiscard]] HComp with_lrecords(LRecords records) const;

  // Full contents, helping records included: a published scan result is
  // readable by later Block-Updates (read_lrecord), so it is part of the
  // canonical state.  The recursion through embedded views is finite (views
  // are snapshots of strictly earlier H contents) and, for hashing sinks,
  // cut at this version's digest.
  void fingerprint_into(util::StateSink& sink) const;

 private:
  struct Node;
  // The version pointed at, or the shared empty log.
  [[nodiscard]] const Node& node() const noexcept;

  LocalRef<const Node> node_;  // null: the empty log
};

// #h_j of the paper.
inline std::size_t num_bu(const HView& h, std::size_t j) {
  return h.at(j).num_bu();
}

// h is a prefix of g: component-wise, h's triple log is a prefix of g's.
[[nodiscard]] bool is_prefix(const HView& h, const HView& g);

// Proper prefix: prefix and differing in some component.
[[nodiscard]] bool is_proper_prefix(const HView& h, const HView& g);

// Triple-log equality (what a Scan's double collect compares).
[[nodiscard]] bool triples_equal(const HView& h, const HView& g);

// New-Timestamp (Algorithm 1) for process `me` (0-based).
[[nodiscard]] Timestamp new_timestamp(const HView& h, std::size_t me);

// Get-View (Algorithm 2): for each component j of M, the value with the
// lexicographically largest timestamp among all triples for j, or bottom.
[[nodiscard]] View get_view(const HView& h, std::size_t m);

// Reads the paper's L_{j+1,me+1}[index]: the scan result of the last
// helping record in component j of `h` with the given target and index, or
// nullptr.
[[nodiscard]] LocalRef<const PublishedView> read_lrecord(
    const HView& h, std::size_t j, std::size_t target, std::size_t index);

}  // namespace revisim::aug
