// Unit tests for the H-state layer of the augmented snapshot (§3.2):
// prefix order (Observation 1's invariant), Get-View (Algorithm 2),
// New-Timestamp (Algorithm 1), timestamp uniqueness ingredients (Lemmas 7-9)
// and the helping-record lookup.
#include <gtest/gtest.h>

#include "src/augmented/hstate.h"

namespace revisim::aug {
namespace {

Timestamp ts(std::vector<std::uint32_t> parts) {
  return Timestamp(std::move(parts));
}

HView make_hview(std::size_t f) { return HView(f); }

void append_batch(HView& h, std::size_t writer,
                  std::vector<UpdateTriple> triples) {
  h[writer] = h[writer].with_batch(std::move(triples));
}

std::shared_ptr<const PublishedView> publish(HView v) {
  return std::make_shared<const PublishedView>(std::move(v));
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

}  // namespace
}  // namespace revisim::aug
