// Tests for the extension modules: the randomized ND runner (the
// "randomized wait-free" reading of Section 5), the ABA-freedom checker
// (§5.3), the finite colorless-task formalism (§2), the general Theorem
// 21(1) bound, and the umbrella header.
#include <gtest/gtest.h>

#include "src/revisim.h"  // umbrella: everything below must come through it

namespace revisim {
namespace {

TEST(RandomizedRunner, NDCoinTerminatesWithRandomCoins) {
  solo::NDCoinConsensus nd(3, 3);
  std::size_t done = 0;
  std::size_t total_steps = 0;
  const std::size_t runs = 100;
  for (std::uint64_t seed = 0; seed < runs; ++seed) {
    auto res = solo::run_randomized(nd, {4, 5, 6}, seed, 100'000);
    if (res.all_done) {
      ++done;
      total_steps += res.total_steps;
      for (const auto& out : res.outputs) {
        ASSERT_TRUE(out.has_value());
        EXPECT_TRUE(*out == 4 || *out == 5 || *out == 6);
      }
    }
  }
  // Random coins against a random scheduler terminate essentially always.
  EXPECT_EQ(done, runs);
  EXPECT_GT(total_steps, 0u);
}

TEST(RandomizedRunner, DeterminizedMatchesSpaceOfRandomized) {
  // Section 5's point: the randomized protocol and its determinization use
  // the same object.
  auto nd = std::make_shared<solo::NDCoinConsensus>(2, 2);
  solo::DeterminizedProtocol det(nd);
  EXPECT_EQ(det.components(), nd->components());
}

TEST(RandomizedRunner, RespectsStepBudget) {
  solo::NDCoinConsensus nd(2, 2);
  auto res = solo::run_randomized(nd, {0, 1}, 1, 3);
  EXPECT_FALSE(res.all_done);
  EXPECT_EQ(res.total_steps, 3u);
}

TEST(ABAChecker, DetectsABA) {
  using W = std::vector<std::pair<std::size_t, Val>>;
  EXPECT_TRUE(check::is_aba_free(W{{0, 1}, {0, 2}, {1, 1}}));
  EXPECT_FALSE(check::is_aba_free(W{{0, 1}, {0, 2}, {0, 1}}));  // classic ABA
  // Re-writing the same value without leaving it is not an ABA.
  EXPECT_TRUE(check::is_aba_free(W{{0, 1}, {0, 1}, {0, 2}}));
  // Same value on different components is fine.
  EXPECT_TRUE(check::is_aba_free(W{{0, 1}, {1, 1}, {0, 2}, {1, 2}}));
  EXPECT_TRUE(check::is_aba_free(W{}));
}

TEST(ABAChecker, MonotoneProtocolsAreABAFree) {
  // Racing writes strictly growing (round, value) pairs per process, but
  // *different processes* can rewrite the same pair after it was
  // overwritten - so racing alone is not guaranteed ABA-free, while the
  // Corollary 36 wrapper always is.  Verify on real runs.
  auto inner = std::make_shared<proto::RacingAgreement>(3, 2);
  solo::ABAFreeProtocol wrapped(inner);
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    proto::ProtocolRun run(wrapped, {1, 2, 3});
    ASSERT_TRUE(run.run_random(seed, 200'000));
    std::vector<std::pair<std::size_t, Val>> writes;
    for (const auto& rec : run.log()) {
      if (rec.is_update) {
        writes.emplace_back(rec.component, rec.value);
      }
    }
    EXPECT_TRUE(check::is_aba_free(writes)) << "seed " << seed;
  }
}

TEST(MaxRegisters, NDMaxConsensusTerminatesAndIsValid) {
  solo::NDMaxConsensus nd(3, 3);
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    auto res = solo::run_randomized(nd, {4, 5, 6}, seed, 100'000);
    ASSERT_TRUE(res.all_done) << "seed " << seed;
    for (const auto& out : res.outputs) {
      EXPECT_TRUE(*out == 4 || *out == 5 || *out == 6);
    }
  }
}

TEST(MaxRegisters, ExecutionsAreABAFreeWithoutTagging) {
  // §5.3: protocols over max-registers are ABA-free by construction.
  solo::NDMaxConsensus nd(4, 3);
  for (std::uint64_t seed = 0; seed < 80; ++seed) {
    auto res = solo::run_randomized(nd, {1, 9, 1, 9}, seed, 100'000);
    EXPECT_TRUE(check::is_aba_free(res.applied_writes)) << "seed " << seed;
  }
}

TEST(MaxRegisters, PlainWriteVariantDoesExhibitABA) {
  // Contrast: the same state machine over plain registers can rewrite a
  // (component, value) pair after it was overwritten - the ABA the
  // Corollary 36 tagging exists to rule out.
  solo::NDCoinConsensus nd(3, 2);
  std::size_t aba_runs = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    auto res = solo::run_randomized(nd, {5, 7, 5}, seed, 100'000);
    if (!check::is_aba_free(res.applied_writes)) {
      ++aba_runs;
    }
  }
  EXPECT_GT(aba_runs, 0u)
      << "no ABA observed; the contrast test lost its subject";
}

TEST(MaxRegisters, SoloSearchHandlesWriteMaxSemantics) {
  // The determinizer's solo search applies write-max to the expectation
  // vector; a terminating solo path must exist from scratch.
  solo::NDMaxConsensus nd(2, 2);
  solo::SoloSearch search;
  search.machine = &nd;
  auto d = search.shortest(nd.initial(0, 3), View(2));
  ASSERT_TRUE(d.has_value());
  EXPECT_LT(*d, 12u);
}

TEST(MaxRegisters, FetchAddSemantics) {
  View v(2);
  solo::NDOp op;
  op.kind = solo::NDOpKind::kFetchAdd;
  op.component = 1;
  op.value = 5;
  auto r1 = solo::apply_nd_op(v, op);
  EXPECT_EQ(r1.previous, 0);
  EXPECT_EQ(v[1], std::optional<Val>(5));
  auto r2 = solo::apply_nd_op(v, op);
  EXPECT_EQ(r2.previous, 5);
  EXPECT_EQ(v[1], std::optional<Val>(10));
  // write-max keeps the maximum.
  op.kind = solo::NDOpKind::kWriteMax;
  op.value = 3;
  (void)solo::apply_nd_op(v, op);
  EXPECT_EQ(v[1], std::optional<Val>(10));
  op.value = 12;
  (void)solo::apply_nd_op(v, op);
  EXPECT_EQ(v[1], std::optional<Val>(12));
}

TEST(Colorless, KSetTriplePassesClosure) {
  auto task = tasks::FiniteColorlessTask::kset(2, {1, 2, 3, 4});
  EXPECT_EQ(task.check_closure(), "");
}

TEST(Colorless, BrokenTriplesFailClosure) {
  using tasks::FiniteColorlessTask;
  using tasks::ValueSet;
  // I missing a subset.
  FiniteColorlessTask bad1("bad1", {{ValueSet{1, 2}}}, {{ValueSet{1}}},
                           {{ValueSet{1, 2}, {ValueSet{1}}}});
  EXPECT_NE(bad1.check_closure(), "");
  // Delta undefined on an input set.
  FiniteColorlessTask bad2("bad2", {ValueSet{1}, ValueSet{2}},
                           {ValueSet{1}, ValueSet{2}},
                           {{ValueSet{1}, {ValueSet{1}}}});
  EXPECT_NE(bad2.check_closure(), "");
}

TEST(Colorless, AgreesWithSpecializedValidatorExhaustively) {
  // On a small domain, Delta-membership and the KSetAgreement validator
  // must coincide for every (input multiset, output multiset) pair.
  const tasks::ValueSet domain{1, 2, 3};
  for (std::size_t k = 1; k <= 2; ++k) {
    auto finite = tasks::FiniteColorlessTask::kset(k, domain);
    ASSERT_EQ(finite.check_closure(), "");
    tasks::KSetAgreement fast(k);
    // Enumerate all input vectors of length 3 and output vectors of length
    // <= 2 over the domain (plus empty).
    std::vector<Val> vals{1, 2, 3};
    for (Val a : vals) {
      for (Val b : vals) {
        for (Val c : vals) {
          const std::vector<Val> in{a, b, c};
          std::vector<std::vector<Val>> outs{{}};
          for (Val y : vals) {
            outs.push_back({y});
            for (Val z : vals) {
              outs.push_back({y, z});
            }
          }
          for (const auto& out : outs) {
            EXPECT_EQ(finite.validate(in, out).ok, fast.validate(in, out).ok)
                << "k=" << k << " in={" << a << b << c << "}";
          }
        }
      }
    }
  }
}

TEST(Bounds, Theorem21GeneralForm) {
  // f = 2 specialization equals the approx bound.
  for (double eps : {1e-2, 1e-6, 1e-12}) {
    EXPECT_EQ(bounds::theorem21_space_bound(
                  8, 2, bounds::approx_step_lower_bound(eps)),
              bounds::approx_space_lower_bound(8, eps));
  }
  // The floor(n/f)+1 term kicks in for huge L and small n/f.
  EXPECT_EQ(bounds::theorem21_space_bound(4, 2, 1e30), 3u);
  // Degenerate L.
  EXPECT_EQ(bounds::theorem21_space_bound(10, 2, 1.0), 1u);
  EXPECT_THROW((void)bounds::theorem21_space_bound(4, 0, 10.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace revisim
