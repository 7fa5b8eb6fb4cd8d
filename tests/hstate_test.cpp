// Unit tests for the H-state layer of the augmented snapshot (§3.2):
// prefix order (Observation 1's invariant), Get-View (Algorithm 2),
// New-Timestamp (Algorithm 1), timestamp uniqueness ingredients (Lemmas 7-9),
// the helping-record lookup and the lazily sealed content digests.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/augmented/hstate.h"

namespace revisim::aug {
namespace {

Timestamp ts(Timestamp::Parts parts) {
  return Timestamp(std::move(parts));
}

HView make_hview(std::size_t f) { return HView(f); }

void append_batch(HView& h, std::size_t writer,
                  HComp::Triples triples) {
  h[writer] = h[writer].with_batch(std::move(triples));
}

LocalRef<const PublishedView> publish(HView v) {
  return make_local<const PublishedView>(std::move(v));
}

void append_lrecord(HView& h, std::size_t writer, LRecord rec) {
  h[writer] = h[writer].with_lrecords({std::move(rec)});
}

TEST(Timestamps, LexicographicOrder) {
  EXPECT_LT(ts({0, 5}), ts({1, 0}));
  EXPECT_LT(ts({1, 2}), ts({1, 3}));
  EXPECT_EQ(ts({2, 2}), ts({2, 2}));
  EXPECT_GT(ts({2, 0}), ts({1, 9}));
}

TEST(Timestamps, NewTimestampIncrementsOwnComponent) {
  HView h = make_hview(3);
  append_batch(h, 0, {{0, 7, ts({1, 0, 0})}});
  append_batch(h, 2, {{1, 9, ts({1, 0, 1})}});
  // #h = (1, 0, 1); q2 (index 1) generates (1, 1, 1).
  EXPECT_EQ(new_timestamp(h, 1), ts({1, 1, 1}));
  // q1 generates (2, 0, 1).
  EXPECT_EQ(new_timestamp(h, 0), ts({2, 0, 1}));
}

TEST(Timestamps, Corollary8NewTimestampDominatesContained) {
  // Any timestamp contained in h is lexicographically smaller than a
  // timestamp generated from h.
  HView h = make_hview(2);
  append_batch(h, 0, {{0, 1, ts({1, 0})}});
  append_batch(h, 1, {{1, 2, ts({1, 1})}});
  append_batch(h, 0, {{0, 3, ts({2, 1})}});
  for (std::size_t me = 0; me < 2; ++me) {
    const Timestamp fresh = new_timestamp(h, me);
    for (const auto& comp : h) {
      for (const auto& tr : comp.triples()) {
        EXPECT_LT(tr.ts, fresh);
      }
    }
  }
}

TEST(HState, PrefixOrder) {
  HView a = make_hview(2);
  HView b = make_hview(2);
  EXPECT_TRUE(is_prefix(a, b));
  EXPECT_FALSE(is_proper_prefix(a, b));

  append_batch(b, 0, {{0, 1, ts({1, 0})}});
  EXPECT_TRUE(is_prefix(a, b));
  EXPECT_TRUE(is_proper_prefix(a, b));
  EXPECT_FALSE(is_prefix(b, a));

  append_batch(a, 0, {{0, 1, ts({1, 0})}});
  EXPECT_TRUE(is_prefix(a, b));
  EXPECT_TRUE(triples_equal(a, b));

  // Diverging logs are incomparable.
  append_batch(a, 1, {{1, 5, ts({1, 1})}});
  append_batch(b, 1, {{1, 6, ts({1, 1})}});
  EXPECT_FALSE(is_prefix(a, b));
  EXPECT_FALSE(is_prefix(b, a));
}

TEST(HState, HelpingRecordsDoNotAffectPrefixOrder) {
  HView a = make_hview(2);
  HView b = make_hview(2);
  append_lrecord(b, 0, LRecord{1, 0, publish(a)});
  EXPECT_TRUE(triples_equal(a, b));
  EXPECT_TRUE(is_prefix(a, b));
  EXPECT_FALSE(is_proper_prefix(a, b));
}

TEST(HState, GetViewPicksLargestTimestampPerComponent) {
  HView h = make_hview(3);
  append_batch(h, 0, {{0, 10, ts({1, 0, 0})}, {1, 11, ts({1, 0, 0})}});
  append_batch(h, 1, {{0, 20, ts({1, 1, 0})}});
  append_batch(h, 2, {{2, 30, ts({1, 1, 1})}});
  View v = get_view(h, 4);
  EXPECT_EQ(v[0], std::optional<Val>(20));  // ts (1,1,0) beats (1,0,0)
  EXPECT_EQ(v[1], std::optional<Val>(11));
  EXPECT_EQ(v[2], std::optional<Val>(30));
  EXPECT_EQ(v[3], std::optional<Val>());  // never written
}

TEST(HState, GetViewOfEmptyIsAllBottom) {
  EXPECT_EQ(get_view(make_hview(2), 3), View(3));
}

TEST(HState, ReadLRecordFindsLastMatch) {
  HView h = make_hview(2);
  auto v1 = publish(make_hview(2));
  auto v2 = publish(make_hview(2));
  append_lrecord(h, 0, LRecord{1, 3, v1});
  append_lrecord(h, 0, LRecord{1, 4, v1});
  append_lrecord(h, 0, LRecord{1, 3, v2});  // later write to L_{1,2}[3]
  EXPECT_EQ(read_lrecord(h, 0, 1, 3), v2);
  EXPECT_EQ(read_lrecord(h, 0, 1, 4), v1);
  EXPECT_EQ(read_lrecord(h, 0, 1, 5), nullptr);
  EXPECT_EQ(read_lrecord(h, 0, 0, 3), nullptr);  // wrong target
  EXPECT_EQ(read_lrecord(h, 1, 1, 3), nullptr);  // wrong writer
}

TEST(HState, NumBuCountsBatches) {
  HView h = make_hview(1);
  EXPECT_EQ(num_bu(h, 0), 0u);
  append_batch(h, 0, {{0, 1, ts({1})}, {1, 2, ts({1})}});
  EXPECT_EQ(num_bu(h, 0), 1u);
  append_batch(h, 0, {{0, 3, ts({2})}});
  EXPECT_EQ(num_bu(h, 0), 2u);
}

TEST(Timestamps, ToStringRendering) {
  EXPECT_EQ(ts({1, 2, 3}).to_string(), "(1,2,3)");
  EXPECT_EQ(Timestamp().to_string(), "()");
}

// --- lazily sealed digests -------------------------------------------------

// The digest recipe of hstate.h computed from the content alone, with no
// cached digest read: a version hashes its triple stream, #h and its
// helping-record stream; a record's view enters as the view's digest; a
// view hashes its length and its components' digests.
util::Fingerprint scratch_view_digest(const HView& view);

util::Fingerprint scratch_comp_digest(const HComp& comp) {
  util::HashSink triples;
  for (const UpdateTriple& t : comp.triples()) {
    util::feed(triples, t);
  }
  util::HashSink records;
  for (const LRecord& r : comp.lrecords()) {
    records.word(r.target);
    records.word(r.index);
    records.word(r.h != nullptr ? 1 : 0);
    if (r.h != nullptr) {
      records.take_digest(scratch_view_digest(r.h->view));
    }
  }
  util::HashSink sink;
  sink.take_digest(triples.digest());
  sink.word(comp.num_bu());
  sink.take_digest(records.digest());
  return sink.digest();
}

util::Fingerprint scratch_view_digest(const HView& view) {
  util::HashSink sink;
  sink.word(view.size());
  for (const HComp& comp : view) {
    sink.take_digest(scratch_comp_digest(comp));
  }
  return sink.digest();
}

// An append chain over f = 2: every version of both logs, and the scan
// results published along the way (each later one nests the earlier ones).
// With `seal_as_built`, each version and view is asked for its digest as
// soon as it exists, before anything is appended to it - as an explorer
// fingerprinting every node does.
struct Chain {
  std::vector<HComp> versions;
  std::vector<LocalRef<const PublishedView>> views;
};

Chain build_chain(bool seal_as_built = false) {
  Chain c;
  HView h = make_hview(2);
  auto keep = [&] {
    for (const HComp& v : h) {
      c.versions.push_back(v);
      if (seal_as_built) {
        (void)v.digest();
      }
    }
  };
  auto keep_view = [&] {
    c.views.push_back(publish(h));
    if (seal_as_built) {
      (void)c.views.back()->digest();
    }
  };
  keep();
  append_batch(h, 0, {{0, 10, ts({1, 0})}});
  keep();
  keep_view();
  append_lrecord(h, 1, LRecord{0, 1, c.views.back()});
  keep();
  append_batch(h, 1, {{1, 20, ts({1, 1})}, {0, 21, ts({1, 1})}});
  keep();
  keep_view();
  h[0] = h[0].with_lrecords(
      {LRecord{1, 1, c.views.back()}, LRecord{1, 2, nullptr}});
  keep();
  append_batch(h, 0, {{0, 11, ts({2, 1})}});
  keep();
  keep_view();
  return c;
}

TEST(HStateDigest, EveryVersionMatchesAFromScratchHash) {
  for (bool seal_as_built : {false, true}) {
    const Chain c = build_chain(seal_as_built);
    for (const HComp& v : c.versions) {
      EXPECT_EQ(v.digest(), scratch_comp_digest(v));
    }
    for (const auto& view : c.views) {
      EXPECT_EQ(view->digest(), scratch_view_digest(view->view));
    }
  }
}

TEST(HStateDigest, DigestsDoNotDependOnWhichVersionIsAskedFirst) {
  // Four copies of one chain, sharing no version: one sealed oldest first
  // once complete, one newest first (views before versions), one from its
  // last published view alone, which seals everything that view reaches,
  // and one sealed as it was built.
  const Chain oldest_first = build_chain();
  const Chain newest_first = build_chain();
  const Chain last_view_first = build_chain();
  const Chain as_built = build_chain(/*seal_as_built=*/true);
  std::vector<util::Fingerprint> forward;
  for (const HComp& v : oldest_first.versions) {
    forward.push_back(v.digest());
  }
  for (const auto& view : oldest_first.views) {
    forward.push_back(view->digest());
  }
  std::vector<util::Fingerprint> backward;
  for (auto it = newest_first.views.rbegin(); it != newest_first.views.rend();
       ++it) {
    backward.push_back((*it)->digest());
  }
  for (auto it = newest_first.versions.rbegin();
       it != newest_first.versions.rend(); ++it) {
    backward.push_back(it->digest());
  }
  std::reverse(backward.begin(), backward.end());  // versions, then views
  EXPECT_EQ(forward, backward);

  const util::Fingerprint last = last_view_first.views.back()->digest();
  EXPECT_EQ(last, forward.back());
  for (std::size_t i = 0; i < last_view_first.versions.size(); ++i) {
    EXPECT_EQ(last_view_first.versions[i].digest(), forward[i]);
  }

  std::vector<util::Fingerprint> built;
  for (const HComp& v : as_built.versions) {
    built.push_back(v.digest());
  }
  for (const auto& view : as_built.views) {
    built.push_back(view->digest());
  }
  EXPECT_EQ(built, forward);
}

TEST(HStateDigest, ContentNotConstructionDecidesTheDigest) {
  // The same log reached by two batches, or by one with both triples, or
  // with the helping records appended in one call or two: the record and
  // triple streams agree, and so do the digests exactly when #h agrees.
  const UpdateTriple a{0, 1, ts({1})};
  const UpdateTriple b{0, 2, ts({1})};
  const HComp one_batch = HComp().with_batch({a, b});
  const HComp again = HComp().with_batch({a}).with_batch({b});
  EXPECT_NE(one_batch.digest(), again.digest());  // #h is 1 vs 2
  EXPECT_EQ(HComp().with_batch({a, b}).digest(), one_batch.digest());

  auto view = publish(make_hview(1));
  const LRecord r1{0, 0, view};
  const LRecord r2{0, 1, view};
  const HComp together = one_batch.with_lrecords({r1, r2});
  const HComp apart = one_batch.with_lrecords({r1}).with_lrecords({r2});
  EXPECT_EQ(together.digest(), apart.digest());
  EXPECT_EQ(together.digest(), scratch_comp_digest(together));
}

}  // namespace
}  // namespace revisim::aug
