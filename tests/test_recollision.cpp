#include "walk/recollision.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <optional>
#include <string>

#include "core/bounds.hpp"
#include "graph/complete.hpp"
#include "graph/explicit_topology.hpp"
#include "graph/generators.hpp"
#include "graph/hypercube.hpp"
#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "graph/torus_kd.hpp"
#include "spectral/walk_matrix.hpp"
#include "stats/regression.hpp"

namespace antdense::walk {
namespace {

using graph::CompleteGraph;
using graph::Hypercube;
using graph::Ring;
using graph::Torus2D;
using graph::TorusKD;

TEST(RecollisionCurve, StartsAtProbabilityOne) {
  const Torus2D torus(32, 32);
  const auto curve = measure_recollision_curve(torus, 4, 2000, 1, 2);
  EXPECT_DOUBLE_EQ(curve.probability[0], 1.0);
  EXPECT_EQ(curve.trials, 2000u);
  EXPECT_EQ(curve.probability.size(), 5u);
}

TEST(RecollisionCurve, Torus2DExactValueAtM1) {
  // Both agents step to the same neighbor: 4 * (1/4)^2 = 1/4.
  const Torus2D torus(64, 64);
  const auto curve = measure_recollision_curve(torus, 1, 60000, 2, 2);
  EXPECT_NEAR(curve.probability[1], 0.25, 0.01);
}

TEST(RecollisionCurve, HypercubeExactValueAtM1) {
  // Both flip the same of k bits: 1/k.
  const Hypercube cube(8);
  const auto curve = measure_recollision_curve(cube, 1, 60000, 3, 2);
  EXPECT_NEAR(curve.probability[1], 1.0 / 8.0, 0.01);
}

TEST(RecollisionCurve, RingExactValueAtM1) {
  // Both step the same direction: 2 * (1/2)^2 = 1/2.
  const Ring ring(128);
  const auto curve = measure_recollision_curve(ring, 1, 60000, 4, 2);
  EXPECT_NEAR(curve.probability[1], 0.5, 0.01);
}

TEST(RecollisionCurve, CompleteGraphIsUniform) {
  // After any m >= 1, both agents are at independent near-uniform nodes:
  // P ~ 1/(A-1) (both move to one of A-1 others... empirically ~1/A).
  const CompleteGraph g(256);
  const auto curve = measure_recollision_curve(g, 3, 60000, 5, 2);
  for (std::uint32_t m = 1; m <= 3; ++m) {
    EXPECT_NEAR(curve.probability[m], 1.0 / 256.0, 0.005) << "m=" << m;
  }
}

TEST(RecollisionCurve, DecaysOnTorus) {
  const Torus2D torus(128, 128);
  const auto curve = measure_recollision_curve(torus, 64, 40000, 6, 2);
  // Compare averages of early vs late windows (even m only — odd m are
  // noisier since the relative walk is lazy-like but collisions can
  // occur at any parity here because both walkers move).
  double early = 0.0, late = 0.0;
  for (std::uint32_t m = 1; m <= 8; ++m) early += curve.probability[m];
  for (std::uint32_t m = 57; m <= 64; ++m) late += curve.probability[m];
  EXPECT_GT(early / 8.0, 4.0 * (late / 8.0));
}

TEST(RecollisionCurve, DeterministicAcrossThreadCounts) {
  const Torus2D torus(32, 32);
  const auto a = measure_recollision_curve(torus, 8, 10000, 7, 1);
  const auto b = measure_recollision_curve(torus, 8, 10000, 7, 2);
  EXPECT_EQ(a.hits, b.hits);
}

// One family's measured re-collision curve beside its Lemma 4 / 20 /
// 22 / 23 / 25 bound beta(m) and, for the ring and the tori, the decay
// exponent -k/2 that bound carries.
struct FamilyCurve {
  std::string family;
  RecollisionCurve curve;
  std::function<double(std::uint32_t m)> beta;
  std::optional<double> slope;  // of log p(m) against log m, over even m
};

template <typename T>
RecollisionCurve pairs_on(const T& topo, std::uint32_t m_max,
                          std::uint64_t seed) {
  return measure_recollision_curve(topo, m_max, 100000, seed, 2);
}

std::vector<FamilyCurve> family_curves() {
  std::vector<FamilyCurve> rows;
  rows.push_back({"torus2d", pairs_on(Torus2D(256, 256), 64, 11),
                  [](std::uint32_t m) { return core::beta_torus2d(m, 65536); },
                  -1.0});
  rows.push_back({"ring", pairs_on(Ring(1u << 16), 128, 12),
                  [](std::uint32_t m) { return core::beta_ring(m, 1u << 16); },
                  -0.5});
  for (std::uint32_t k : {3u, 4u}) {
    const TorusKD torus(k, k == 3 ? 48 : 20);
    const auto nodes = torus.num_nodes();
    rows.push_back({"toruskd k=" + std::to_string(k),
                    pairs_on(torus, k == 3 ? 32 : 16, 10 + k),
                    [k, nodes](std::uint32_t m) {
                      return core::beta_torus_kd(m, k, nodes);
                    },
                    -0.5 * k});
  }
  for (std::uint32_t k : {12u, 16u}) {
    const Hypercube cube(k);
    const auto nodes = cube.num_nodes();
    rows.push_back({"hypercube " + std::to_string(k),
                    pairs_on(cube, 48, 20 + k),
                    [nodes](std::uint32_t m) {
                      return core::beta_hypercube(m, nodes);
                    },
                    std::nullopt});
  }
  for (std::uint32_t d : {4u, 8u}) {
    constexpr std::uint32_t kNodes = 2048;
    const auto g = graph::make_random_regular_graph(kNodes, d, 30 + d);
    const double lambda = spectral::second_eigenvalue_magnitude(g);
    rows.push_back({"random-regular d=" + std::to_string(d),
                    pairs_on(graph::ExplicitTopology(g), 24, 40 + d),
                    [lambda](std::uint32_t m) {
                      return core::beta_expander(m, lambda, kNodes);
                    },
                    std::nullopt});
  }
  return rows;
}

TEST(RecollisionCurve, StaysUnderEachFamilyBound) {
  for (const auto& row : family_curves()) {
    SCOPED_TRACE(row.family);
    const auto& p = row.curve.probability;
    const double pairs = static_cast<double>(row.curve.trials);
    std::vector<double> ms, ps;
    for (std::uint32_t m = 1; m < p.size(); ++m) {
      const double se = std::sqrt(p[m] * (1.0 - p[m]) / pairs);
      EXPECT_LE(p[m] - 3.0 * se, row.beta(m)) << "m=" << m;
      if (m % 2 == 0) {
        ms.push_back(m);
        ps.push_back(p[m]);
      }
    }
    if (row.slope) {
      EXPECT_NEAR(stats::log_log_fit(ms, ps).slope, *row.slope, 0.15);
    }
  }
}

TEST(PairCollisionCounts, AtLeastZeroAndBoundedByT) {
  const Torus2D torus(64, 64);
  const auto counts = pair_collision_counts_given_first(torus, 32, 5000, 8, 2);
  ASSERT_EQ(counts.size(), 5000u);
  for (double c : counts) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 32.0);
  }
}

TEST(PairCollisionCounts, MeanGrowsLogarithmically) {
  // E[collisions in t rounds | collision at 0] = sum_m Theta(1/m) ~ log t:
  // quadrupling t should add roughly a constant, not multiply.
  const Torus2D torus(256, 256);
  const auto short_counts =
      pair_collision_counts_given_first(torus, 64, 30000, 9, 2);
  const auto long_counts =
      pair_collision_counts_given_first(torus, 256, 30000, 9, 2);
  double mean_short = 0.0, mean_long = 0.0;
  for (double c : short_counts) mean_short += c;
  for (double c : long_counts) mean_long += c;
  mean_short /= static_cast<double>(short_counts.size());
  mean_long /= static_cast<double>(long_counts.size());
  EXPECT_GT(mean_long, mean_short);
  EXPECT_LT(mean_long, 2.0 * mean_short)
      << "log growth expected, got " << mean_short << " -> " << mean_long;
}

}  // namespace
}  // namespace antdense::walk
