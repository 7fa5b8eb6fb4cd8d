// State-fingerprint soundness and transposition-table behaviour.
//
// The dedupe contract rests on two properties checked here: worlds that
// reach the same canonical global state through different schedule prefixes
// hash equal (so transpositions actually merge), and perturbing any
// ingredient of the canonical state - a register's contents, a process's
// poised step, its step count, its done flag - changes the hash (so states
// with different residual behaviour never merge).  On top of that, serial
// dedupe runs must preserve the explorer's verdict while pruning at least
// half the executions on a state-merging world, and collision-audit mode
// must turn a fabricated 128-bit collision into a loud failure.
//
// The augmented snapshot's H logs are hash-consed (src/augmented/hstate.h):
// hashing sinks consume cached digests while TextSink expands the content.
// Completed operation records (src/augmented/history.h) are sealed the same
// way.  The AugmentedFingerprint tests pin that contract: transpositions
// still merge however early their records were sealed, a change buried
// inside a published scan result or a completed record's returned view
// still separates both hash and text, the audit text renders completed
// records in full, and a scan result never changes under its holder.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/augmented/augmented_snapshot.h"
#include "src/augmented/hstate.h"
#include "src/check/explore_core.h"
#include "src/check/model_check.h"
#include "src/check/state_table.h"
#include "src/check/worlds.h"
#include "src/memory/register.h"
#include "src/memory/sw_snapshot.h"
#include "src/runtime/scheduler.h"
#include "src/util/fingerprint.h"
#include "tests/test_worlds.h"

namespace revisim {
namespace {

using check::ExplorableWorld;
using check::explore_schedules;
using check::ScheduleExploreOptions;
using check::StateFingerprintCollision;
using check::StateTable;
using mem::TypedRegister;
using runtime::ProcessId;
using runtime::Scheduler;
using runtime::Task;
using test_worlds::last_writer_factory;

util::Fingerprint digest_of(Scheduler& sched) {
  util::HashSink sink;
  sched.state_digest(sink);
  return sink.digest();
}

std::string text_of(Scheduler& sched) {
  std::string out;
  util::TextSink sink(out);
  sched.state_digest(sink);
  return out;
}

Task<void> write_script(TypedRegister<Val>& reg, Val v, std::size_t writes) {
  for (std::size_t i = 0; i < writes; ++i) {
    co_await reg.write(v);
  }
}

Task<void> read_script(TypedRegister<Val>& reg, std::size_t reads) {
  for (std::size_t i = 0; i < reads; ++i) {
    co_await reg.read();
  }
}

// Two processes writing fixed values to *disjoint* registers: any two
// schedules with equal per-process step counts reach identical states.
struct DisjointWriters {
  Scheduler sched;
  TypedRegister<Val> a{sched, "A", 0};
  TypedRegister<Val> b{sched, "B", 0};

  explicit DisjointWriters(Val va = 5, Val vb = 9) {
    sched.spawn(write_script(a, va, 2), "p");
    sched.spawn(write_script(b, vb, 2), "q");
  }
};

// --- the hash kernel itself ----------------------------------------------

util::Fingerprint hash_words(const std::vector<std::uint64_t>& words) {
  util::HashSink sink;
  for (std::uint64_t w : words) {
    sink.word(w);
  }
  return sink.digest();
}

std::vector<std::uint64_t> random_words(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) {
    w = rng();
  }
  return words;
}

TEST(HashKernel, ShortStreamsOverEdgeWordsAreDistinctInEachHalf) {
  // Every stream of length <= 4 over words a state stream is made of -
  // small counts, flags, and high-bit and all-ones patterns: 1 + 9 + 81 +
  // 729 + 6561 = 7381 streams, no two equal in hi, or in lo, alone.
  const std::vector<std::uint64_t> alphabet = {
      0, 1, 2, 3, 5, 7, std::uint64_t{1} << 63, ~std::uint64_t{0},
      0x9e3779b97f4a7c15ull};
  std::vector<std::vector<std::uint64_t>> streams = {{}};
  for (std::size_t from = 0, len = 1; len <= 4; ++len) {
    const std::size_t to = streams.size();
    for (std::size_t i = from; i < to; ++i) {
      for (std::uint64_t w : alphabet) {
        auto longer = streams[i];
        longer.push_back(w);
        streams.push_back(std::move(longer));
      }
    }
    from = to;
  }
  ASSERT_EQ(streams.size(), 7381u);
  std::unordered_set<std::uint64_t> his, los;
  for (const auto& stream : streams) {
    const util::Fingerprint fp = hash_words(stream);
    his.insert(fp.hi);
    los.insert(fp.lo);
  }
  EXPECT_EQ(his.size(), streams.size());
  EXPECT_EQ(los.size(), streams.size());
}

TEST(HashKernel, SingleBitFlipsAvalancheBothHalves) {
  // Flipping any one bit of a 36-word stream (about one node's stream)
  // changes about half of each digest half, and never none of it.
  std::mt19937_64 rng(36);
  std::uint64_t flips = 0, hi_bits = 0, lo_bits = 0;
  for (int stream = 0; stream < 8; ++stream) {
    auto words = random_words(rng, 36);
    const util::Fingerprint base = hash_words(words);
    for (std::size_t i = 0; i < words.size(); ++i) {
      for (int bit = 0; bit < 64; ++bit) {
        words[i] ^= std::uint64_t{1} << bit;
        const util::Fingerprint fp = hash_words(words);
        words[i] ^= std::uint64_t{1} << bit;
        const int dh = std::popcount(fp.hi ^ base.hi);
        const int dl = std::popcount(fp.lo ^ base.lo);
        ASSERT_GT(dh, 0) << "word " << i << " bit " << bit;
        ASSERT_GT(dl, 0) << "word " << i << " bit " << bit;
        hi_bits += static_cast<std::uint64_t>(dh);
        lo_bits += static_cast<std::uint64_t>(dl);
        ++flips;
      }
    }
  }
  const double hi_mean = static_cast<double>(hi_bits) / static_cast<double>(flips);
  const double lo_mean = static_cast<double>(lo_bits) / static_cast<double>(flips);
  EXPECT_NEAR(hi_mean, 32.0, 2.0);
  EXPECT_NEAR(lo_mean, 32.0, 2.0);
}

TEST(HashKernel, SwappingTwoUnequalWordsChangesTheDigest) {
  // Each word is keyed by its position, so the stream's order counts.
  std::mt19937_64 rng(2);
  std::vector<std::uint64_t> words = random_words(rng, 12);
  words[3] = 0;  // small and structured words too
  words[7] = 1;
  const util::Fingerprint base = hash_words(words);
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (std::size_t j = i + 1; j < words.size(); ++j) {
      std::swap(words[i], words[j]);
      EXPECT_NE(hash_words(words), base) << i << " <-> " << j;
      std::swap(words[i], words[j]);
    }
  }
  EXPECT_NE(hash_words({1, 2}), hash_words({2, 1}));
}

TEST(HashKernel, AppendingAZeroWordChangesTheDigest) {
  std::mt19937_64 rng(0);
  for (std::size_t n = 0; n <= 40; ++n) {
    auto words = random_words(rng, n);
    const util::Fingerprint before = hash_words(words);
    words.push_back(0);
    EXPECT_NE(hash_words(words), before) << "length " << n;
  }
}

TEST(HashKernel, TakeDigestFeedsTheDigestWords) {
  // The take_digest contract: a hashing sink consumes a digest as the two
  // words hi, lo; a rendering sink declines and feeds nothing.
  const util::Fingerprint d = hash_words({4, 5, 6});
  util::HashSink taken, fed;
  taken.word(7);
  fed.word(7);
  EXPECT_TRUE(taken.take_digest(d));
  fed.word(d.hi);
  fed.word(d.lo);
  EXPECT_EQ(taken.digest(), fed.digest());

  std::string text;
  util::TextSink sink(text);
  sink.word(7);
  EXPECT_FALSE(sink.take_digest(d));
  EXPECT_EQ(text, "7 ");
}

TEST(Fingerprint, DeterministicAcrossWorldInstances) {
  DisjointWriters w1, w2;
  EXPECT_EQ(digest_of(w1.sched), digest_of(w2.sched));
  w1.sched.run_step(0);
  w2.sched.run_step(0);
  EXPECT_EQ(digest_of(w1.sched), digest_of(w2.sched));
}

TEST(Fingerprint, EqualStatesViaDifferentPrefixesHashEqual) {
  // Schedules 01 and 10 commute on disjoint registers: same step counts,
  // same contents, same poised steps - one canonical state, one hash.
  DisjointWriters w1, w2;
  w1.sched.run_step(0);
  w1.sched.run_step(1);
  w2.sched.run_step(1);
  w2.sched.run_step(0);
  EXPECT_EQ(digest_of(w1.sched), digest_of(w2.sched));

  // The full canonical text agrees too, not just the 128-bit hash.
  std::string t1, t2;
  util::TextSink s1(t1), s2(t2);
  w1.sched.state_digest(s1);
  w2.sched.state_digest(s2);
  EXPECT_EQ(t1, t2);
  EXPECT_FALSE(t1.empty());
}

TEST(Fingerprint, RegisterContentsChangeHash) {
  DisjointWriters w1(5, 9), w2(6, 9);  // p writes 5 vs 6
  EXPECT_EQ(digest_of(w1.sched), digest_of(w2.sched));  // not yet written
  w1.sched.run_step(0);
  w2.sched.run_step(0);
  EXPECT_NE(digest_of(w1.sched), digest_of(w2.sched));
}

TEST(Fingerprint, StepCountChangesHash) {
  // Two writes of the same value: contents and poised step agree after one
  // and after two steps; only the step count separates the states.  It
  // must - the remaining depth budget differs.
  DisjointWriters w1, w2;
  w1.sched.run_step(0);
  w2.sched.run_step(0);
  w2.sched.run_step(0);
  EXPECT_NE(digest_of(w1.sched), digest_of(w2.sched));
}

Task<void> read_two(TypedRegister<Val>& first, TypedRegister<Val>& second) {
  co_await first.read();
  co_await second.read();
}

Task<void> read_then_write(TypedRegister<Val>& reg, bool second_is_read) {
  co_await reg.read();
  if (second_is_read) {
    co_await reg.read();
  } else {
    co_await reg.write(0);  // writes the value already there
  }
}

TEST(Fingerprint, PoisedObjectChangesHash) {
  // After one executed step the process is poised on register A vs B; step
  // counts and register contents agree (reads mutate nothing).
  auto build = [](bool second_on_a) {
    auto s = std::make_unique<Scheduler>();
    auto a = std::make_unique<TypedRegister<Val>>(*s, "A", Val{0});
    auto b = std::make_unique<TypedRegister<Val>>(*s, "B", Val{0});
    s->spawn(read_two(*a, second_on_a ? *a : *b), "p");
    s->run_step(0);
    return std::tuple{std::move(s), std::move(a), std::move(b)};
  };
  auto [s1, a1, b1] = build(true);
  auto [s2, a2, b2] = build(false);
  EXPECT_NE(digest_of(*s1), digest_of(*s2));
}

TEST(Fingerprint, PoisedKindChangesHash) {
  // Poised read vs poised write-of-the-same-value on one register: contents
  // and step counts agree, only the poised step kind separates the states.
  auto build = [](bool second_is_read) {
    auto s = std::make_unique<Scheduler>();
    auto r = std::make_unique<TypedRegister<Val>>(*s, "R", Val{0});
    s->spawn(read_then_write(*r, second_is_read), "p");
    s->run_step(0);
    return std::pair{std::move(s), std::move(r)};
  };
  auto [s1, r1] = build(true);
  auto [s2, r2] = build(false);
  EXPECT_NE(digest_of(*s1), digest_of(*s2));
}

TEST(Fingerprint, DoneFlagChangesHash) {
  // A finished process vs one more step to go.
  auto build = [] {
    auto s = std::make_unique<Scheduler>();
    auto r = std::make_unique<TypedRegister<Val>>(*s, "R", Val{0});
    s->spawn(read_script(*r, 2), "p");
    return std::pair{std::move(s), std::move(r)};
  };
  auto [s1, r1] = build();
  auto [s2, r2] = build();
  s1->run_step(0);
  s2->run_step(0);
  s2->run_step(0);  // done
  EXPECT_NE(digest_of(*s1), digest_of(*s2));
}

// --- the augmented snapshot: hash-consed H state ---------------------------

using aug::HComp;
using aug::HView;
using aug::LRecord;
using aug::PublishedView;
using aug::UpdateTriple;

Task<void> update_then_scan(aug::AugmentedSnapshot& m, ProcessId me) {
  std::vector<std::size_t> comps{me};
  std::vector<Val> vals{Val(10 + static_cast<Val>(me))};
  co_await m.BlockUpdate(me, std::move(comps), std::move(vals));
  co_await m.Scan(me);
}

// The pair as an explorable world, so canonical_state() is the explorer's
// own rendering.  With `seal_every_step` it is fingerprinted after every
// step, as a deduped walk does: records are then sealed the step they
// complete.
struct AugPair final : ExplorableWorld {
  Scheduler sched;
  aug::AugmentedSnapshot m{sched, "M", 2, 2};

  explicit AugPair(const std::vector<ProcessId>& schedule,
                   bool seal_every_step = false) {
    sched.spawn(update_then_scan(m, 0), "q1");
    sched.spawn(update_then_scan(m, 1), "q2");
    for (ProcessId p : schedule) {
      sched.run_step(p);
      if (seal_every_step) {
        fingerprint();
      }
    }
  }

  Scheduler& scheduler() override { return sched; }
  std::optional<std::string> verdict(bool /*complete*/) override {
    return std::nullopt;
  }
};

TEST(AugmentedFingerprint, TranspositionsHashAndRenderEqual) {
  // Both Block-Updates run solo (6 H-steps each; q2 does not yield), then
  // both Scans take their first collect and publish it in a helping
  // update.  The op log cites neither helping update's step, so the two
  // orders of those updates reach one state - whose H and own-component
  // mirrors hold scan results embedded in separately built records.
  std::vector<ProcessId> prefix(6, 0);
  prefix.insert(prefix.end(), 6, 1);
  prefix.insert(prefix.end(), {0, 1});
  auto with = [&prefix](std::vector<ProcessId> tail) {
    std::vector<ProcessId> s = prefix;
    s.insert(s.end(), tail.begin(), tail.end());
    return s;
  };
  AugPair a(with({0, 1}));
  AugPair b(with({1, 0}));
  EXPECT_EQ(digest_of(a.sched), digest_of(b.sched));
  EXPECT_EQ(text_of(a.sched), text_of(b.sched));
  ASSERT_EQ(a.m.log().scans.size(), 2u);

  // One more step (q1's confirming collect) is a different state.
  AugPair c(with({0, 1, 0}));
  EXPECT_NE(digest_of(a.sched), digest_of(c.sched));
  EXPECT_NE(text_of(a.sched), text_of(c.sched));
}

// --- completed op records: sealed sub-objects --------------------------------

// The prefix of TranspositionsHashAndRenderEqual: both Block-Updates run
// solo to completion, then both Scans take their first collect.
std::vector<ProcessId> solo_updates_then(std::vector<ProcessId> tail) {
  std::vector<ProcessId> s(6, 0);
  s.insert(s.end(), 6, 1);
  s.insert(s.end(), {0, 1});
  s.insert(s.end(), tail.begin(), tail.end());
  return s;
}

std::string text_of(const auto& object) {
  std::string out;
  util::TextSink sink(out);
  util::feed(sink, object);
  return out;
}

util::Fingerprint hash_of(const auto& object) {
  util::HashSink sink;
  util::feed(sink, object);
  return sink.digest();
}

TEST(AugmentedFingerprint, SealingEarlyOrLateHashesTranspositionsEqual) {
  // `early` is fingerprinted after every step, so each Block-Update record
  // is sealed the step it completes; `late` only at the end, so its records
  // are sealed by that one call.  The digest is a function of the content,
  // not of when it was sealed.
  AugPair early(solo_updates_then({0, 1}), /*seal_every_step=*/true);
  AugPair late(solo_updates_then({1, 0}));
  ASSERT_EQ(early.m.log().block_updates.size(), 2u);
  EXPECT_TRUE(early.m.log().block_updates[0].completed);
  EXPECT_TRUE(early.m.log().block_updates[1].completed);
  EXPECT_FALSE(early.m.log().scans[0].completed);
  EXPECT_EQ(early.fingerprint(), late.fingerprint());
  EXPECT_EQ(early.canonical_state(), late.canonical_state());

  // Run on to the end, where every record is completed, sealing after
  // every step in one world and only at the end in the other.
  AugPair unsealed(solo_updates_then({0, 1}));
  while (!early.sched.all_done()) {
    early.sched.run_step(early.sched.runnable().front());
    early.fingerprint();
    unsealed.sched.run_step(unsealed.sched.runnable().front());
  }
  ASSERT_TRUE(unsealed.sched.all_done());
  EXPECT_TRUE(early.m.log().scans[0].completed);
  EXPECT_TRUE(early.m.log().scans[1].completed);
  EXPECT_EQ(early.fingerprint(), unsealed.fingerprint());
  EXPECT_EQ(early.canonical_state(), unsealed.canonical_state());
}

TEST(AugmentedFingerprint, CompletedRecordsReturnedViewChangesHashAndText) {
  auto scan_returning = [](Val v) {
    aug::ScanOpRecord rec;
    rec.op_id = 3;
    rec.process = 1;
    rec.first_step = 4;
    rec.last_step = 9;
    rec.returned = View(2);
    rec.returned[0] = v;
    rec.completed = true;
    return rec;
  };
  const aug::ScanOpRecord s7 = scan_returning(7);
  const aug::ScanOpRecord s8 = scan_returning(8);
  EXPECT_NE(hash_of(s7), hash_of(s8));
  EXPECT_NE(text_of(s7), text_of(s8));

  auto update_returning = [](Val v) {
    aug::BlockUpdateOpRecord rec;
    rec.op_id = 2;
    rec.process = 0;
    rec.comps.push_back(0);
    rec.vals.push_back(5);
    rec.step_h = 0;
    rec.step_x = 1;
    rec.step_g = 2;
    rec.step_help = 3;
    rec.step_h2 = 4;
    rec.step_read = 5;
    rec.returned = View(2);
    rec.returned[1] = v;
    rec.completed = true;
    return rec;
  };
  const aug::BlockUpdateOpRecord u7 = update_returning(7);
  const aug::BlockUpdateOpRecord u8 = update_returning(8);
  EXPECT_NE(hash_of(u7), hash_of(u8));
  EXPECT_NE(text_of(u7), text_of(u8));

  // The hash of a completed record is its sealed digest, in O(1) words,
  // and equal content hashes equal.
  EXPECT_EQ(hash_of(s7), hash_of(scan_returning(7)));
  EXPECT_EQ(hash_of(u7), hash_of(update_returning(7)));
}

TEST(AugmentedFingerprint, CanonicalStateRendersCompletedRecordsInFull) {
  AugPair world(solo_updates_then({}), /*seal_every_step=*/true);
  const aug::BlockUpdateOpRecord& rec = world.m.log().block_updates[0];
  ASSERT_TRUE(rec.completed);
  ASSERT_EQ(rec.step_read, 5u);  // q1's six H-steps are global steps 0-5
  std::string content;
  util::TextSink sink(content);
  rec.feed_content(sink);
  EXPECT_NE(content.find("0 1 2 3 4 5 "), std::string::npos);  // step indices

  // The audit text holds the record's content, step indices included, and
  // not the digest the hash consumed in its place.
  const std::string text = world.canonical_state();
  EXPECT_NE(text.find(content), std::string::npos);
  util::HashSink hashed;
  rec.feed_content(hashed);
  EXPECT_EQ(text.find(std::to_string(hashed.digest().hi)), std::string::npos);
  EXPECT_EQ(text.find(std::to_string(hashed.digest().lo)), std::string::npos);
}

Task<void> publish(mem::SWSnapshot<HComp>& h, HComp mine) {
  co_await h.update(std::move(mine));
}

TEST(AugmentedFingerprint, EmbeddedViewContentsChangeHashAndText) {
  // Two H states equal everywhere except one value inside the scan result
  // that q1's helping record publishes.
  auto view_with = [](Val inner) {
    HView seen(2);
    seen[1] =
        seen[1].with_batch({UpdateTriple{0, inner, aug::Timestamp({0, 1})}});
    return seen;
  };
  struct World {
    Scheduler sched;
    mem::SWSnapshot<HComp> h{sched, "H", 2};
  };
  auto build = [](const HView& seen) {
    auto w = std::make_unique<World>();
    HComp mine = HComp().with_lrecords(
        {LRecord{1, 1, aug::make_local<const PublishedView>(seen)}});
    w->sched.spawn(publish(w->h, std::move(mine)), "q1");
    w->sched.run_step(0);
    return w;
  };
  const HView seen7 = view_with(7);
  const HView seen8 = view_with(8);
  auto w7 = build(seen7);
  auto w8 = build(seen8);
  EXPECT_NE(digest_of(w7->sched), digest_of(w8->sched));
  const std::string t7 = text_of(w7->sched);
  const std::string t8 = text_of(w8->sched);
  EXPECT_NE(t7, t8);

  // The text is the full content: it embeds the published view's own
  // rendering, not its cached digest.
  std::string seen_text;
  util::TextSink seen_sink(seen_text);
  util::feed(seen_sink, seen7);
  EXPECT_NE(t7.find(seen_text), std::string::npos);
  const auto& published = *w7->h.peek()[0].lrecords().front().h;
  EXPECT_EQ(t7.find(std::to_string(published.digest().hi)), std::string::npos);
  EXPECT_EQ(t7.find(std::to_string(published.digest().lo)), std::string::npos);

  // Equal content built twice hashes equal: digests depend on content,
  // not on which objects hold it.
  auto w7again = build(view_with(7));
  EXPECT_EQ(digest_of(w7->sched), digest_of(w7again->sched));
  EXPECT_EQ(t7, text_of(w7again->sched));
}

Task<void> scan_then_append(mem::SWSnapshot<HComp>& h, HView& seen) {
  HComp mine = HComp().with_batch({UpdateTriple{0, 5, aug::Timestamp({1, 0})}});
  co_await h.update(mine);
  seen = co_await h.scan();
  // What a Scan does next: publish the scan result in the writer's own
  // component, then append another Block-Update's triples.
  mine = mine.with_lrecords(
      {LRecord{1, 0, aug::make_local<const PublishedView>(seen)}});
  mine = mine.with_batch({UpdateTriple{1, 6, aug::Timestamp({2, 0})}});
  co_await h.update(std::move(mine));
}

TEST(AugmentedFingerprint, ScanResultSurvivesLaterOwnAppends) {
  Scheduler sched;
  mem::SWSnapshot<HComp> h(sched, "H", 2);
  HView seen;
  sched.spawn(scan_then_append(h, seen), "q1");
  sched.run_step(0);  // update
  sched.run_step(0);  // scan
  ASSERT_EQ(seen.size(), 2u);
  const util::Fingerprint before = seen[0].digest();
  std::string text_before;
  util::TextSink before_sink(text_before);
  util::feed(before_sink, seen);

  sched.run_step(0);  // appends, then the second update
  ASSERT_TRUE(sched.all_done());
  EXPECT_EQ(seen[0].triples().size(), 1u);
  EXPECT_TRUE(seen[0].lrecords().empty());
  EXPECT_EQ(seen[0].num_bu(), 1u);
  EXPECT_EQ(seen[0].digest(), before);
  std::string text_after;
  util::TextSink after_sink(text_after);
  util::feed(after_sink, seen);
  EXPECT_EQ(text_after, text_before);

  // H moved on; the record it now carries embeds the old version, not
  // itself.
  const HComp& now = h.peek()[0];
  EXPECT_EQ(now.triples().size(), 2u);
  EXPECT_EQ(now.num_bu(), 2u);
  EXPECT_NE(now.digest(), before);
  ASSERT_EQ(now.lrecords().size(), 1u);
  const HView& embedded = now.lrecords().front().h->view;
  EXPECT_EQ(embedded[0].digest(), before);
  EXPECT_EQ(embedded[0].triples().size(), 1u);
}

// --- StateTable -----------------------------------------------------------

TEST(StateTable, InsertAndHitAccounting) {
  StateTable table;
  util::Fingerprint x{1, 2}, y{3, 4};
  EXPECT_TRUE(table.insert(x));
  EXPECT_TRUE(table.insert(y));
  EXPECT_FALSE(table.insert(x));
  EXPECT_FALSE(table.insert(x));
  EXPECT_EQ(table.states(), 2u);
  EXPECT_EQ(table.hits(), 2u);
}

TEST(StateTable, AuditAcceptsTrueTranspositions) {
  StateTable table(StateTable::Options{.audit = true});
  util::Fingerprint fp{7, 7};
  EXPECT_TRUE(table.insert(fp, [] { return std::string("state-a"); }));
  EXPECT_FALSE(table.insert(fp, [] { return std::string("state-a"); }));
  EXPECT_EQ(table.hits(), 1u);
}

TEST(StateTable, AuditThrowsOnFabricatedCollision) {
  StateTable table(StateTable::Options{.audit = true});
  util::Fingerprint fp{7, 7};
  EXPECT_TRUE(table.insert(fp, [] { return std::string("state-a"); }));
  EXPECT_THROW(table.insert(fp, [] { return std::string("state-b"); }),
               StateFingerprintCollision);
}

TEST(StateTable, ConcurrentInsertsClaimEachKeyOnce) {
  // 2000 keys with no zero word, several pairs sharing a hi word, plus the
  // three keys with zero words.  Four threads insert overlapping windows of
  // the key list (each key two or three times in all) into a table small
  // enough for long probe chains.
  std::vector<util::Fingerprint> keys;
  for (std::uint64_t k = 0; k < 2000; ++k) {
    keys.push_back({2 + k / 2, 2 + k * 0x9e3779b97f4a7c15ull % 1000003});
  }
  keys.push_back({0, 42});
  keys.push_back({42, 0});
  keys.push_back({0, 0});
  const std::size_t n = keys.size();
  StateTable table(StateTable::Options{.capacity = 4096});
  std::vector<std::atomic<int>> claims(n);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kWindow = 1200;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kWindow; ++i) {
        const std::size_t k = (t * 500 + i) % n;
        if (table.insert(keys[k])) {
          claims[k].fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::size_t claimed = 0;
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(claims[k].load(), 1) << "key " << k;
    claimed += static_cast<std::size_t>(claims[k].load());
  }
  EXPECT_EQ(claimed, n);
  EXPECT_EQ(table.states(), n);
  EXPECT_EQ(table.hits(), kThreads * kWindow - n);
  EXPECT_FALSE(table.saturated());
  for (const auto& key : keys) {
    EXPECT_FALSE(table.insert(key));
  }
  // The zero-word rule (state_table.h): a zero word is stored as 1.
  EXPECT_FALSE(table.insert({1, 42}));
  EXPECT_FALSE(table.insert({1, 1}));
  EXPECT_EQ(table.states(), n);
}

TEST(StateTable, SaturatesAtSevenEighthsAdmittingWithoutRecording) {
  StateTable table(StateTable::Options{.capacity = 16});
  for (std::uint64_t k = 0; k < 13; ++k) {
    EXPECT_TRUE(table.insert({k + 2, k + 2}));
  }
  EXPECT_FALSE(table.insert({2, 2}));
  EXPECT_EQ(table.hits(), 1u);
  EXPECT_TRUE(table.insert({15, 15}));  // the high-water mark: 16 - 2
  EXPECT_FALSE(table.saturated());
  EXPECT_EQ(table.states(), 14u);

  // Past the mark every insert is admitted and none is recorded, so a
  // repeat is admitted again rather than pruned.
  EXPECT_TRUE(table.insert({99, 99}));
  EXPECT_TRUE(table.saturated());
  EXPECT_TRUE(table.insert({99, 99}));
  EXPECT_TRUE(table.insert({2, 2}));
  EXPECT_EQ(table.states(), 14u);
  EXPECT_EQ(table.hits(), 1u);
}

// --- serial dedupe on a state-merging world -------------------------------

// LastWriterWorld (tests/test_worlds.h): processes stamp their id into one
// shared register, so the canonical state collapses to (per-process
// progress, last writer) and the transposition win is combinatorial.

TEST(SerialDedupe, PreservesViolationVerdict) {
  // Both explorers stop at their first violating leaf, so execution counts
  // are not comparable here (the reduction is measured on the violation-free
  // run below); what must agree is the verdict itself.
  auto factory = last_writer_factory({3, 3, 2}, 0);
  auto plain = explore_schedules(factory);
  ASSERT_TRUE(plain.violation.has_value());

  ScheduleExploreOptions opt;
  opt.dedupe_states = true;
  auto deduped = explore_schedules(factory, opt);
  EXPECT_TRUE(deduped.violation.has_value());
  EXPECT_TRUE(deduped.exhausted);
  EXPECT_GT(deduped.subtrees_pruned, 0u);
  EXPECT_GT(deduped.states_seen, 0u);
}

TEST(SerialDedupe, PreservesViolationFreeVerdict) {
  auto factory = last_writer_factory({3, 3, 2}, -7);  // never written
  auto plain = explore_schedules(factory);
  EXPECT_FALSE(plain.violation);
  EXPECT_TRUE(plain.exhausted);

  ScheduleExploreOptions opt;
  opt.dedupe_states = true;
  auto deduped = explore_schedules(factory, opt);
  EXPECT_FALSE(deduped.violation);
  EXPECT_TRUE(deduped.exhausted);
  EXPECT_LE(deduped.executions * 2, plain.executions);
}

TEST(SerialDedupe, AuditModeIsCleanOnRealStates) {
  // Full canonical states behind every hash: an honest 128-bit collision
  // would throw; none is expected at this scale.
  ScheduleExploreOptions opt;
  opt.dedupe_states = true;
  opt.dedupe_audit = true;
  auto deduped = explore_schedules(last_writer_factory({3, 3, 2}, 0), opt);
  EXPECT_TRUE(deduped.violation.has_value());
  EXPECT_GT(deduped.subtrees_pruned, 0u);
}

TEST(SerialDedupe, SaturatedTableIsReported) {
  // A 16-slot table saturates at 14 states: the walk goes on, admitting
  // unseen states without recording them, and the result says so.
  auto factory = last_writer_factory({3, 3, 2}, -7);
  StateTable table(StateTable::Options{.capacity = 16});
  check::detail::SubtreeOptions sub;
  sub.dedupe_states = true;
  sub.table = &table;
  auto sr = check::detail::explore_job(factory, {}, sub);
  EXPECT_TRUE(sr.table_saturated);
  EXPECT_EQ(sr.states_seen, 14u);
  EXPECT_FALSE(sr.violation);
  EXPECT_TRUE(sr.fully_explored);
  const auto res = check::detail::whole_tree_result(std::move(sr));
  EXPECT_TRUE(res.table_saturated);

  // The default table does not saturate on this world.
  ScheduleExploreOptions opt;
  opt.dedupe_states = true;
  auto full = explore_schedules(factory, opt);
  EXPECT_FALSE(full.table_saturated);
  EXPECT_GT(full.states_seen, 14u);
  // Partial dedupe prunes less, so the saturated walk did more executions.
  EXPECT_GT(res.executions, full.executions);
}

// An auditing store that records which fingerprint each canonical text
// arrived with: one text under two fingerprints means the walk rendered a
// state other than the one it claimed.
class TextRecordingStore final : public check::StateStore {
 public:
  bool insert(util::Fingerprint fp,
              const std::function<std::string()>& canonical) override {
    const auto [it, fresh] = fp_of_.try_emplace(canonical(), fp);
    if (!(it->second == fp)) {
      ++mismatches;
    }
    for (const auto& seen : seen_) {
      if (seen == fp) {
        ++hits_;
        return false;
      }
    }
    seen_.push_back(fp);
    return true;
  }
  [[nodiscard]] bool audit() const noexcept override { return true; }
  [[nodiscard]] std::size_t states() const override { return seen_.size(); }
  [[nodiscard]] std::size_t hits() const noexcept override { return hits_; }
  [[nodiscard]] bool saturated() const noexcept override { return false; }

  std::size_t mismatches = 0;

 private:
  std::map<std::string, util::Fingerprint> fp_of_;
  std::vector<util::Fingerprint> seen_;
  std::size_t hits_ = 0;
};

TEST(SerialDedupe, AuditRendersTheClaimedState) {
  // The explorer claims an interior node after taking its first step, so
  // the audit text must be rendered before that step.
  TextRecordingStore store;
  check::detail::SubtreeOptions sub;
  sub.dedupe_states = true;
  sub.table = &store;
  const auto sr = check::detail::explore_job(
      last_writer_factory({2, 2, 1}, -7), {}, sub);
  EXPECT_TRUE(sr.fully_explored);
  EXPECT_GT(sr.subtrees_pruned, 0u);
  EXPECT_EQ(store.mismatches, 0u);
}

TEST(SerialDedupe, AuditedAugmentedWalkFindsNoCollision) {
  // Every distinct state of an exhaustive augmented-snapshot walk, text and
  // hash, behind the audit: a 128-bit collision would throw.  The counts
  // pin which states the fingerprint merges.
  ScheduleExploreOptions opt;
  opt.max_crashes = 0;
  opt.dedupe_states = true;
  opt.dedupe_audit = true;
  const auto res = explore_schedules(
      check::make_world_factory("aug-script:2,u0s,u1s"), opt);
  EXPECT_FALSE(res.violation);
  EXPECT_TRUE(res.exhausted);
  EXPECT_EQ(res.executions, 32636u);
  EXPECT_EQ(res.states_seen, 131912u);
  EXPECT_EQ(res.subtrees_pruned, 2609u);
  EXPECT_FALSE(res.table_saturated);
}

TEST(SerialDedupe, OffByDefault) {
  auto res = explore_schedules(last_writer_factory({2, 2}, -7));
  EXPECT_EQ(res.states_seen, 0u);
  EXPECT_EQ(res.subtrees_pruned, 0u);
  EXPECT_EQ(res.executions, 6u);  // C(4,2): no dedupe, no violation
}

}  // namespace
}  // namespace revisim
