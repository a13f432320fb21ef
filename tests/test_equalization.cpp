#include "walk/equalization.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "stats/moments.hpp"
#include "walk/recollision.hpp"

namespace antdense::walk {
namespace {

using graph::Ring;
using graph::Torus2D;

TEST(EqualizationCurve, OddStepsNeverEqualizeOnTorus) {
  // The torus is bipartite (Corollary 10: probability 0 for odd m).
  const Torus2D torus(16, 16);
  const auto curve = measure_equalization_curve(torus, 9, 20000, 1, 2);
  for (std::uint32_t m = 1; m <= 9; m += 2) {
    EXPECT_DOUBLE_EQ(curve.probability[m], 0.0) << "m=" << m;
  }
}

TEST(EqualizationCurve, TorusExactValueAtM2) {
  // Return after 2 steps: second step must undo the first: 1/4.
  const Torus2D torus(64, 64);
  const auto curve = measure_equalization_curve(torus, 2, 60000, 2, 2);
  EXPECT_NEAR(curve.probability[2], 0.25, 0.01);
}

TEST(EqualizationCurve, RingExactValueAtM2) {
  // +- or -+: 1/2.
  const Ring ring(64);
  const auto curve = measure_equalization_curve(ring, 2, 60000, 3, 2);
  EXPECT_NEAR(curve.probability[2], 0.5, 0.01);
}

TEST(EqualizationCurve, TorusExactValueAtM4) {
  // P[S4 = 0] for 4 steps in 2-D: count paths returning to origin:
  // multinomial: sum over (i up/down pairs, j left/right pairs).
  // Number of returning 4-step paths: sum_{i=0..2} C(4;i,i,2-i,2-i)
  //  = 4!/(0!0!2!2!) + 4!/(1!1!1!1!) + 4!/(2!2!0!0!) = 6+24+6 = 36.
  // Probability = 36/256 = 9/64 ≈ 0.1406.
  const Torus2D torus(64, 64);
  const auto curve = measure_equalization_curve(torus, 4, 80000, 4, 2);
  EXPECT_NEAR(curve.probability[4], 36.0 / 256.0, 0.008);
}

TEST(EqualizationCurve, DecayRoughlyHarmonicOnTorus) {
  const Torus2D torus(256, 256);
  const auto curve = measure_equalization_curve(torus, 64, 60000, 5, 2);
  // Theta(1/(m+1)): P[16] / P[64] should be ~4 (within noise).
  const double ratio = curve.probability[16] / curve.probability[64];
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 8.0);
}

TEST(EqualizationCounts, BoundedAndDeterministic) {
  const Torus2D torus(64, 64);
  const auto a = equalization_counts(torus, 50, 2000, 6, 1);
  const auto b = equalization_counts(torus, 50, 2000, 6, 2);
  EXPECT_EQ(a, b);
  for (double c : a) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 50.0);
  }
}

TEST(EqualizationCounts, RingReturnsMoreOftenThanTorus) {
  // Weak local mixing on the ring: ~sqrt(t) returns vs ~log(t).
  const Ring ring(4096);
  const Torus2D torus(64, 64);
  const auto ring_counts = equalization_counts(ring, 400, 8000, 7, 2);
  const auto torus_counts = equalization_counts(torus, 400, 8000, 7, 2);
  double ring_mean = 0.0, torus_mean = 0.0;
  for (double c : ring_counts) ring_mean += c;
  for (double c : torus_counts) torus_mean += c;
  ring_mean /= static_cast<double>(ring_counts.size());
  torus_mean /= static_cast<double>(torus_counts.size());
  EXPECT_GT(ring_mean, 3.0 * torus_mean);
}

// Corollary 16 / Claim 14: E[c^k] <= k! w^k log^k(2t) with one constant
// w, so w_k(t) = (E[c^k] / k!)^{1/k} / log(2t) stays in a band over k and
// t on the 2-D torus, for a single walk's equalizations and for a pair's
// re-collisions after a first collision.  The ring's counts grow like
// sqrt(t), so there the same w_k(t) climbs with t.
std::vector<double> implied_w(const std::vector<double>& counts,
                              std::uint32_t t) {
  std::vector<double> w;
  double factorial = 1.0;
  for (int k = 1; k <= 4; ++k) {
    factorial *= k;
    w.push_back(std::pow(stats::raw_moment(counts, k) / factorial, 1.0 / k) /
                std::log(2.0 * t));
  }
  return w;
}

TEST(EqualizationCounts, MomentsFollowTheLogEnvelope) {
  constexpr std::uint64_t kTrials = 20000;
  const Torus2D torus(256, 256);
  const Ring ring(1u << 16);
  std::vector<double> ring_w;
  for (std::uint32_t t : {64u, 256u, 1024u}) {
    SCOPED_TRACE(t);
    for (const auto& counts :
         {equalization_counts(torus, t, kTrials, 8, 2),
          pair_collision_counts_given_first(torus, t, kTrials, 9, 2)}) {
      for (double w : implied_w(counts, t)) {
        EXPECT_GT(w, 0.2);
        EXPECT_LT(w, 0.4);
      }
    }
    const auto w = implied_w(
        pair_collision_counts_given_first(ring, t, kTrials, 10, 2), t);
    for (std::size_t k = 0; k < ring_w.size(); ++k) {
      EXPECT_GT(w[k], 1.3 * ring_w[k]) << "k=" << k + 1;
    }
    ring_w = w;
  }
}

}  // namespace
}  // namespace antdense::walk
