#include "src/augmented/hstate.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace revisim::aug {

namespace {

// One entry sequence of a log version: the entries, shared by every version
// that has exactly these (an append to the other sequence leaves this one
// shared, digest included), and the digest of the HashSink stream that
// feeds them in order, sealed the first time it is asked for.  A helping
// record's embedded view enters the stream as the view's two digest words.
template <typename T>
class Entries {
 public:
  using Items = std::vector<T>;

  [[nodiscard]] const Items& get() const noexcept {
    static const Items none;
    return seq_ != nullptr ? seq_->items : none;
  }

  [[nodiscard]] util::Fingerprint digest() const {
    if (seq_ == nullptr) {
      return util::HashSink().digest();
    }
    return seq_->digest.get([this] {
      util::HashSink sum;
      for (const T& e : seq_->items) {
        util::feed(sum, e);
      }
      return sum.digest();
    });
  }

  [[nodiscard]] Entries appended(Items more) const {
    auto seq = make_local<Seq>();
    if (seq_ == nullptr) {
      seq->items = std::move(more);
    } else {
      seq->items.reserve(seq_->items.size() + more.size());
      seq->items.insert(seq->items.end(), seq_->items.begin(),
                        seq_->items.end());
      std::move(more.begin(), more.end(), std::back_inserter(seq->items));
    }
    Entries out;
    out.seq_ = std::move(seq);
    return out;
  }

 private:
  struct Seq : LocalCounted {
    Items items;
    util::LazyDigest digest;
  };

  LocalRef<const Seq> seq_;  // null: no entries
};

}  // namespace

// The version a handle points at.  The shared empty log, which every
// thread reads, is sealed when it is made.
struct HComp::Node : LocalCounted {
  Entries<UpdateTriple> triples;
  std::size_t num_bu = 0;
  Entries<LRecord> lrecords;
  util::LazyDigest digest;

  const util::Fingerprint& sealed_digest() const {
    return digest.get([this] {
      util::HashSink sink;
      sink.take_digest(triples.digest());
      sink.word(num_bu);
      sink.take_digest(lrecords.digest());
      return sink.digest();
    });
  }
};

HComp::HComp() noexcept = default;
HComp::HComp(const HComp& other) noexcept = default;
HComp::HComp(HComp&& other) noexcept = default;
HComp& HComp::operator=(const HComp& other) noexcept = default;
HComp& HComp::operator=(HComp&& other) noexcept = default;
HComp::~HComp() = default;

const HComp::Node& HComp::node() const noexcept {
  static const Node empty = [] {
    Node n;
    n.sealed_digest();
    return n;
  }();
  return node_ != nullptr ? *node_ : empty;
}

PublishedView::PublishedView(HView v) : view(std::move(v)) {}

const util::Fingerprint& PublishedView::digest() const {
  return digest_.get([this] {
    util::HashSink sink;
    util::feed(sink, view);
    return sink.digest();
  });
}

void LRecord::fingerprint_into(util::StateSink& sink) const {
  util::feed(sink, target);
  util::feed(sink, index);
  sink.word(h != nullptr ? 1 : 0);
  if (h != nullptr && !sink.take_digest(h->digest())) {
    util::feed(sink, h->view);
  }
}

const HComp::Triples& HComp::triples() const noexcept {
  return node().triples.get();
}

std::size_t HComp::num_bu() const noexcept { return node().num_bu; }

const HComp::LRecords& HComp::lrecords() const noexcept {
  return node().lrecords.get();
}

const util::Fingerprint& HComp::digest() const {
  return node().sealed_digest();
}

HComp HComp::with_batch(Triples batch) const {
  const Node& prev = node();
  auto next = make_local<Node>();
  next->triples = prev.triples.appended(std::move(batch));
  next->num_bu = prev.num_bu + 1;
  next->lrecords = prev.lrecords;
  HComp out;
  out.node_ = std::move(next);
  return out;
}

HComp HComp::with_lrecords(LRecords records) const {
  if (records.empty()) {
    return *this;
  }
  const Node& prev = node();
  auto next = make_local<Node>();
  next->triples = prev.triples;
  next->num_bu = prev.num_bu;
  next->lrecords = prev.lrecords.appended(std::move(records));
  HComp out;
  out.node_ = std::move(next);
  return out;
}

void HComp::fingerprint_into(util::StateSink& sink) const {
  if (sink.take_digest(digest())) {
    return;
  }
  util::feed(sink, triples());
  util::feed(sink, num_bu());
  util::feed(sink, lrecords());
}

bool is_prefix(const HView& h, const HView& g) {
  assert(h.size() == g.size());
  for (std::size_t j = 0; j < h.size(); ++j) {
    const auto& a = h[j].triples();
    const auto& b = g[j].triples();
    if (&a == &b) {  // shared entries, or two empty logs
      continue;
    }
    if (a.size() > b.size() ||
        !std::equal(a.begin(), a.end(), b.begin())) {
      return false;
    }
  }
  return true;
}

bool is_proper_prefix(const HView& h, const HView& g) {
  return is_prefix(h, g) && !triples_equal(h, g);
}

bool triples_equal(const HView& h, const HView& g) {
  assert(h.size() == g.size());
  for (std::size_t j = 0; j < h.size(); ++j) {
    const auto& a = h[j].triples();
    const auto& b = g[j].triples();
    if (&a != &b && a != b) {
      return false;
    }
  }
  return true;
}

Timestamp new_timestamp(const HView& h, std::size_t me) {
  Timestamp::Parts parts(h.size());
  for (std::size_t j = 0; j < h.size(); ++j) {
    parts[j] = static_cast<std::uint32_t>(num_bu(h, j));
  }
  parts.at(me) += 1;
  return Timestamp(std::move(parts));
}

View get_view(const HView& h, std::size_t m) {
  View out(m);
  std::vector<const UpdateTriple*> best(m, nullptr);
  for (const HComp& comp : h) {
    for (const UpdateTriple& tr : comp.triples()) {
      assert(tr.component < m);
      const UpdateTriple*& b = best[tr.component];
      if (b == nullptr || b->ts < tr.ts) {
        b = &tr;
      }
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    if (best[j] != nullptr) {
      out[j] = best[j]->value;
    }
  }
  return out;
}

LocalRef<const PublishedView> read_lrecord(const HView& h, std::size_t j,
                                           std::size_t target,
                                           std::size_t index) {
  const auto& recs = h.at(j).lrecords();
  for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
    if (it->target == target && it->index == index) {
      return it->h;
    }
  }
  return nullptr;
}

}  // namespace revisim::aug
