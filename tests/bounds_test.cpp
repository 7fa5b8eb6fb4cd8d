// Tests for the closed-form bounds of §4.5/§4.6.
#include <gtest/gtest.h>

#include <cmath>

#include "src/bounds/bounds.h"

namespace revisim {
namespace {

using namespace revisim::bounds;

TEST(Bounds, Choose) {
  EXPECT_EQ(choose(5, 2), 10u);
  EXPECT_EQ(choose(10, 0), 1u);
  EXPECT_EQ(choose(10, 10), 1u);
  EXPECT_EQ(choose(3, 5), 0u);
  EXPECT_EQ(choose(64, 32), kSaturated);  // > 2^64
}

TEST(Bounds, ARecurrence) {
  // a(1) = 0; a(2) = (C(m,1)+1)*0 + C(m,1) = m; a(3) = (C(m,2)+1)*m + C(m,2).
  EXPECT_EQ(a_bound(1, 4), 0u);
  EXPECT_EQ(a_bound(2, 4), 4u);
  EXPECT_EQ(a_bound(3, 4), (6u + 1u) * 4u + 6u);
  // Closed-form sanity: a(r) <= 2^{m(r-1)} for small cases.
  for (std::size_t m = 2; m <= 5; ++m) {
    for (std::size_t r = 1; r <= m; ++r) {
      const double bound = std::pow(2.0, double(m) * double(r - 1));
      EXPECT_LE(static_cast<double>(a_bound(r, m)), bound)
          << "m=" << m << " r=" << r;
    }
  }
}

TEST(Bounds, BGrowth) {
  // Lemma 30's recurrence (the paper's closed form
  // a(m)(a(m-1)+1)^{i-1} disagrees with it; see bounds.cpp):
  //   b(1) = a(m); b(i) = (a(m-1)+1) sum_{j<i} b(j) + a(m).
  const std::uint64_t am = a_bound(3, 3);
  const std::uint64_t am1 = a_bound(2, 3);
  EXPECT_EQ(b_bound(1, 3), am);
  EXPECT_EQ(b_bound(2, 3), (am1 + 1) * am + am);
  EXPECT_EQ(b_bound(3, 3), (am1 + 1) * (am + b_bound(2, 3)) + am);
  // Monotone in i.
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_LE(b_bound(i, 3), b_bound(i + 1, 3));
  }
}

TEST(Bounds, StepBound) {
  EXPECT_EQ(covering_step_bound(2, 2), (2 * 2 + 7) * b_bound(2, 2) + 3);
  EXPECT_EQ(log2_coarse_step_bound(2, 3), 18.0);
}

TEST(Bounds, KSetLowerMatchesPaperSpecialCases) {
  // Consensus (k = x = 1): exactly n registers.
  for (std::size_t n = 2; n <= 12; ++n) {
    EXPECT_EQ(kset_space_lower_bound(n, 1, 1), n);
    EXPECT_EQ(kset_space_upper_bound(n, 1, 1), n);  // tight
  }
  // (n-1)-set agreement with x = 1: exactly 2 registers.
  for (std::size_t n = 3; n <= 12; ++n) {
    EXPECT_EQ(kset_space_lower_bound(n, n - 1, 1), 2u);
    EXPECT_EQ(kset_space_upper_bound(n, n - 1, 1), n - (n - 1) + 1);
  }
  // Lower never exceeds upper.
  for (std::size_t n = 2; n <= 20; ++n) {
    for (std::size_t k = 1; k < n; ++k) {
      for (std::size_t x = 1; x <= k; ++x) {
        EXPECT_LE(kset_space_lower_bound(n, k, x),
                  kset_space_upper_bound(n, k, x))
            << n << " " << k << " " << x;
      }
    }
  }
  EXPECT_THROW((void)kset_space_lower_bound(3, 3, 1), std::invalid_argument);
  EXPECT_THROW((void)kset_space_lower_bound(5, 2, 3), std::invalid_argument);
}

TEST(Bounds, ApproxBounds) {
  // L = 0.5 log3(1/eps).
  EXPECT_NEAR(approx_step_lower_bound(1.0 / 9.0), 1.0, 1e-9);
  EXPECT_NEAR(approx_step_lower_bound(1.0 / 81.0), 2.0, 1e-9);
  // Corollary 34's floor(n/2)+1 term only dominates for astronomically
  // small epsilon (<= 3^-2048, beyond double range); at the smallest
  // representable epsilon the sqrt(log2(L/2)) term still rules: for n = 4,
  // L ~ 314 and sqrt(log2(157)) ~ 2.7, so the bound is 2.
  EXPECT_EQ(approx_space_lower_bound(4, 1e-300), 2u);
  // And for tiny n the floor(n/2)+1 term does dominate.
  EXPECT_EQ(approx_space_lower_bound(2, 1e-300), 2u);
  // For large epsilon the bound degenerates gracefully.
  EXPECT_GE(approx_space_lower_bound(100, 0.3), 1u);
  // Monotone in 1/eps for fixed large n.
  EXPECT_LE(approx_space_lower_bound(1000, 1e-6),
            approx_space_lower_bound(1000, 1e-30));
}

TEST(Bounds, TableRenders) {
  auto t = kset_bound_table(5);
  EXPECT_NE(t.find("lower"), std::string::npos);
  EXPECT_NE(t.find("\n  5   1   1   5   5\n"), std::string::npos);
}

}  // namespace
}  // namespace revisim
