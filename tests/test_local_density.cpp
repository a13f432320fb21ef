#include "local_density_oracle.hpp"

#include <gtest/gtest.h>

#include "rng/xoshiro256pp.hpp"
#include "stats/accumulator.hpp"

namespace antdense::testing {
namespace {

using graph::Torus2D;

TEST(L1BallSize, PlaneFormula) {
  const Torus2D torus(32, 32);
  EXPECT_EQ(l1_ball_size(torus, 1), 5u);    // center + 4 neighbors
  EXPECT_EQ(l1_ball_size(torus, 2), 13u);
  EXPECT_EQ(l1_ball_size(torus, 3), 25u);
}

TEST(L1BallSize, ValidatesRadius) {
  const Torus2D torus(16, 16);
  EXPECT_THROW(l1_ball_size(torus, 0), std::invalid_argument);
  EXPECT_THROW(l1_ball_size(torus, 8), std::invalid_argument);  // wraps
  EXPECT_NO_THROW(l1_ball_size(torus, 7));
}

TEST(L1BallSize, MatchesEnumeration) {
  const Torus2D torus(64, 64);
  for (std::uint32_t r : {1u, 2u, 5u, 10u}) {
    std::uint64_t count = 0;
    const auto center = Torus2D::pack(32, 32);
    for (std::uint32_t x = 0; x < 64; ++x) {
      for (std::uint32_t y = 0; y < 64; ++y) {
        if (torus.l1_distance(center, Torus2D::pack(x, y)) <= r) {
          ++count;
        }
      }
    }
    EXPECT_EQ(l1_ball_size(torus, r), count) << "r=" << r;
  }
}

TEST(AgentsWithin, CountsAndWraps) {
  const Torus2D torus(16, 16);
  const std::vector<Torus2D::node_type> positions{
      Torus2D::pack(0, 0), Torus2D::pack(15, 0),  // wraps to distance 1
      Torus2D::pack(2, 0), Torus2D::pack(8, 8)};
  EXPECT_EQ(agents_within(torus, positions, Torus2D::pack(0, 0), 2, false),
            3u);
  EXPECT_EQ(agents_within(torus, positions, Torus2D::pack(0, 0), 2, true),
            2u);  // self excluded once
}

TEST(LocalDensity, UniformPlacementTracksGlobal) {
  const Torus2D torus(64, 64);
  rng::Xoshiro256pp gen(1);
  std::vector<Torus2D::node_type> positions(820);  // d ~ 0.2
  for (auto& p : positions) {
    p = torus.random_node(gen);
  }
  const auto locals = per_agent_local_density(torus, positions, 6);
  stats::Accumulator acc;
  for (double l : locals) {
    acc.add(l);
  }
  // Mean local density of others ~ (N-1)/A.
  EXPECT_NEAR(acc.mean(), 819.0 / 4096.0, 0.01);
}

TEST(LocalDensity, ClusteredPlacementDivergesFromGlobal) {
  const Torus2D torus(64, 64);
  rng::Xoshiro256pp gen(2);
  std::vector<Torus2D::node_type> positions;
  for (std::uint32_t i = 0; i < 64; ++i) {
    positions.push_back(Torus2D::pack(i % 8, i / 8));
  }
  const double global_d = 63.0 / 4096.0;
  const auto locals = per_agent_local_density(torus, positions, 4);
  stats::Accumulator acc;
  for (double l : locals) {
    acc.add(l);
  }
  EXPECT_GT(acc.mean(), 10.0 * global_d);
  // And far from the cluster the local density is zero.
  EXPECT_DOUBLE_EQ(
      local_density(torus, positions, Torus2D::pack(40, 40), 4), 0.0);
}

}  // namespace
}  // namespace antdense::testing
