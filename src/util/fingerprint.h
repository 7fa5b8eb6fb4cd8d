// State fingerprinting for the schedule explorer's transposition table.
//
// Executions are deterministic functions of the schedule (src/runtime), so
// two schedule prefixes that reach the same canonical global state generate
// identical subtrees, and the explorer can prune the second - the classic
// transposition argument of stateful model checking.  The canonical state is
// serialized as a stream of 64-bit words through a StateSink:
//
//   * HashSink folds the stream into a 128-bit Fingerprint (the transposition
//     table key);
//   * TextSink renders the stream as a decimal string - the *full*
//     canonical state, stored behind the hash in collision-audit mode so a
//     128-bit collision is detected instead of silently merging two distinct
//     states.
//
// The explorer hashes every node it reaches, so the hashing path is built
// for throughput.  StateSink is one concrete class, not an interface: a
// word fed to a hashing sink is an inline call with no virtual dispatch.
// And the hash has no chain through the stream: word i adds a term keyed
// by i alone to each of two 64-bit lanes (a folded 64x64->128-bit
// multiply), so the terms of consecutive words are computed side by side
// instead of each waiting on the last, and the digest applies a full
// avalanche to each lane plus the word count.  Because every term is
// keyed by its position, reordering the stream, or extending it with a
// zero word, changes the digest.
//
// Immutable sub-objects may carry a cached digest of their content (a
// LazyDigest), sealed the first time it is asked for, so a run that never
// fingerprints never hashes them.  Three kinds do: the augmented snapshot's
// H log versions and the scan results published in them
// (src/augmented/hstate.h), and its completed operation records
// (src/augmented/history.h), which no step writes again.  Such an object
// offers its digest to the sink first (StateSink::take_digest): a hashing
// sink consumes the two digest words in place of the content, so
// fingerprinting a deep object is O(1) rather than O(content) once its
// digest is sealed; TextSink declines, and the object then renders its full
// content.  The two streams therefore differ: the hash is a Merkle-style
// hash of the state, the text its full injective encoding - and the audit
// still catches any collision, sub-digest collisions included, because it
// compares texts.
//
// Objects that hold behaviour-relevant shared state implement the
// Fingerprintable mixin and register themselves with their Scheduler
// (Scheduler::register_state_source); Scheduler::state_digest drives the
// per-process control skeleton plus every registered source through a sink.
//
// Soundness contract.  A fingerprint must determine the world's residual
// behaviour: pruning is verdict-preserving only if equal canonical states
// imply identical subtrees.  The digest covers each process's step count and
// poised step (kind + object), which pins the local state of straight-line
// and counted-loop scripts; process-local state that is *not* a function of
// (own steps taken, shared contents) - e.g. a remembered earlier read - must
// be folded in via ExplorableWorld::fingerprint_extra, or dedupe must stay
// off for that world.  Every word fed below is length-prefixed (vector sizes,
// presence flags), so the full (text) stream is an injective encoding of the
// state for a fixed world factory.  A cached digest must be a function of
// the object's content only - never of a pointer, an allocation, the order
// of operations that built it or the moment it was sealed - or equal states
// would hash apart.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace revisim::util {

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

// Receives the canonical state as a stream of 64-bit words.  One concrete
// class in two modes, fixed at construction: a hashing sink (HashSink)
// absorbs each word, a rendering sink (TextSink) appends its decimal text.
// So word() is an inline, non-virtual call, and its one branch on the mode
// always goes the same way for a given sink.
class StateSink {
 public:
  void word(std::uint64_t w) {
    if (text_ != nullptr) [[unlikely]] {
      render(w);
      return;
    }
    absorb(w);
  }

  // Offered by an immutable sub-object before it feeds its content: true
  // means the sink consumed the content digest (as the two words hi, lo)
  // in place of the content, and the object feeds nothing else.  Only
  // hashing sinks accept.
  bool take_digest(const Fingerprint& digest) {
    if (text_ != nullptr) {
      return false;
    }
    absorb(digest.hi);
    absorb(digest.lo);
    return true;
  }

 protected:
  StateSink() = default;
  explicit StateSink(std::string& out) : text_(&out) {}
  ~StateSink() = default;

  // The 128-bit digest of the words absorbed so far.  The position keys
  // stand in for the word count: each is the count times an odd constant.
  [[nodiscard]] Fingerprint finish() const {
    Fingerprint fp;
    fp.hi = avalanche(a_ ^ ka_);
    fp.lo = avalanche(b_ + kb_);
    return fp;
  }

 private:
  static constexpr std::uint64_t kKeyA = 0x9e3779b97f4a7c15ull;
  static constexpr std::uint64_t kKeyB = 0xbf58476d1ce4e5b9ull;

  // The i-th word (counting from 1) adds one term to each lane, keyed by i
  // alone (ka = i * kKeyA, kb = i * kKeyB, kept as running sums), so no
  // word waits on the previous word's result: the lanes are sums, and the
  // terms of consecutive words are computed in parallel.  Each term is a
  // folded 64x64->128-bit multiply whose both factors carry a position
  // key, so equal changes at two positions do not cancel.
  void absorb(std::uint64_t w) {
    ka_ += kKeyA;
    kb_ += kKeyB;
    a_ += fold(w ^ ka_, kb_ ^ 0xe7037ed1a0b428dbull);
    b_ += fold(w ^ kb_, ka_ ^ 0x8ebc6af09c88c6e3ull);
  }

  static std::uint64_t fold(std::uint64_t x, std::uint64_t y) {
    __extension__ using U128 = unsigned __int128;
    const U128 p = static_cast<U128>(x) * y;
    return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
  }

  // Full-avalanche finalizer (the murmur3 fmix64).
  static std::uint64_t avalanche(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
  }

  // TextSink only: out of line, off the hashing path (fingerprint.cpp).
  void render(std::uint64_t w);

  std::uint64_t a_ = 0x6a09e667f3bcc908ull;  // distinct lane seeds
  std::uint64_t b_ = 0xbb67ae8584caa73bull;
  std::uint64_t ka_ = 0;                     // position keys of the last word
  std::uint64_t kb_ = 0;
  std::string* text_ = nullptr;              // rendering sinks only
};

// 128-bit accumulator: two independently keyed 64-bit lanes, each the sum
// of one position-keyed term per word, and a full avalanche of each lane
// plus the word count at digest time.  Not cryptographic - collision-audit
// mode exists for the paranoid configurations.
class HashSink final : public StateSink {
 public:
  HashSink() = default;

  [[nodiscard]] Fingerprint digest() const { return finish(); }
};

// A content digest computed on the first request and cached.  Not
// synchronized: it belongs to an object that one thread at a time touches
// (a world's), and it is copied, and rewound by an arena restore, with that
// object.
class LazyDigest {
 public:
  template <typename Compute>
  const Fingerprint& get(Compute&& compute) const {
    if (!sealed_) {
      digest_ = compute();
      sealed_ = true;
    }
    return digest_;
  }

 private:
  mutable bool sealed_ = false;
  mutable Fingerprint digest_;
};

// Feeds a sealed sub-object: a hashing sink takes `digest`, sealed on first
// use as the HashSink digest of what object.feed_content feeds; any other
// sink gets the content itself.
template <typename T>
inline void feed_sealed(StateSink& sink, const LazyDigest& digest,
                        const T& object) {
  const Fingerprint& d = digest.get([&object] {
    HashSink content;
    object.feed_content(content);
    return content.digest();
  });
  if (!sink.take_digest(d)) {
    object.feed_content(sink);
  }
}

// Renders the word stream as a decimal string: the full canonical state.
// Declines every cached digest, so sub-objects expand their content.
class TextSink final : public StateSink {
 public:
  explicit TextSink(std::string& out) : StateSink(out) {}
};

// Mixin for shared objects whose contents are part of the canonical global
// state.  Implementations feed their state to the sink with the helpers
// below; registration order (construction order) fixes the schema, so two
// worlds built by the same factory produce comparable streams.
class Fingerprintable {
 public:
  virtual ~Fingerprintable() = default;
  virtual void fingerprint_into(StateSink& sink) const = 0;
};

// --- feed helpers: size-prefixed, presence-flagged encodings --------------

template <typename T>
concept SelfFingerprinting = requires(const T& t, StateSink& s) {
  t.fingerprint_into(s);
};

template <typename T>
  requires std::is_integral_v<T> || std::is_enum_v<T>
inline void feed(StateSink& sink, T v) {
  sink.word(static_cast<std::uint64_t>(v));
}

template <SelfFingerprinting T>
inline void feed(StateSink& sink, const T& v) {
  v.fingerprint_into(sink);
}

template <typename T>
inline void feed(StateSink& sink, const std::optional<T>& v) {
  sink.word(v.has_value() ? 1 : 0);
  if (v.has_value()) {
    feed(sink, *v);
  }
}

template <typename T, typename A>
inline void feed(StateSink& sink, const std::vector<T, A>& v) {
  sink.word(v.size());
  for (const auto& e : v) {
    feed(sink, e);
  }
}

}  // namespace revisim::util
