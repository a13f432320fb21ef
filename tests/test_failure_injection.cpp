// Robustness experiments from Section 6.1: noisy collision detection,
// non-uniform placement, and lazy/biased movement.  These tests pin the
// *documented degradation modes*: unbiased scaling under symmetric noise,
// systematic bias under asymmetric noise, and slow convergence under
// clustering.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/torus2d.hpp"
#include "sim/density_sim.hpp"
#include "stats/accumulator.hpp"

namespace antdense::sim {
namespace {

using graph::Torus2D;

double mean_estimate(const Torus2D& torus, const DensityConfig& cfg,
                     std::uint64_t seed, int trials) {
  stats::Accumulator acc;
  for (int trial = 0; trial < trials; ++trial) {
    const DensityResult r =
        run_density_walk(torus, cfg, seed + static_cast<std::uint64_t>(trial));
    for (double e : r.estimates()) {
      acc.add(e);
    }
  }
  return acc.mean();
}

TEST(FailureInjection, MissedDetectionsScaleEstimateDown) {
  // Missing each partner with probability p makes E[d~] = (1-p) d —
  // a *predictable* attenuation an ant/robot could calibrate away.
  const Torus2D torus(24, 24);
  DensityConfig cfg;
  cfg.num_agents = 60;
  cfg.rounds = 100;
  const double d = 59.0 / 576.0;
  cfg.detection_miss_probability = 0.4;
  const double mean = mean_estimate(torus, cfg, 100, 60);
  EXPECT_NEAR(mean, 0.6 * d, 0.07 * d);
}

TEST(FailureInjection, SpuriousDetectionsAddConstantOffset) {
  // Spurious rate s adds +s to the expected encounter rate.
  const Torus2D torus(24, 24);
  DensityConfig cfg;
  cfg.num_agents = 60;
  cfg.rounds = 100;
  const double d = 59.0 / 576.0;
  cfg.spurious_collision_probability = 0.05;
  const double mean = mean_estimate(torus, cfg, 200, 60);
  EXPECT_NEAR(mean, d + 0.05, 0.01);
}

TEST(FailureInjection, CombinedNoiseComposesLinearly) {
  const Torus2D torus(24, 24);
  DensityConfig cfg;
  cfg.num_agents = 60;
  cfg.rounds = 100;
  const double d = 59.0 / 576.0;
  cfg.detection_miss_probability = 0.25;
  cfg.spurious_collision_probability = 0.02;
  const double mean = mean_estimate(torus, cfg, 300, 60);
  EXPECT_NEAR(mean, 0.75 * d + 0.02, 0.012);
}

TEST(FailureInjection, ClusteredPlacementInflatesShortRunEstimates) {
  // All agents packed in an 8x8 corner of a 64x64 torus: short-horizon
  // encounter rates reflect the (high) local density, not the global d.
  const Torus2D torus(64, 64);
  DensityConfig cfg;
  cfg.num_agents = 64;
  cfg.rounds = 16;  // far too short to traverse the torus
  std::vector<Torus2D::node_type> clustered;
  for (std::uint32_t i = 0; i < 64; ++i) {
    clustered.push_back(Torus2D::pack(i % 8, i / 8));
  }
  stats::Accumulator acc;
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    const DensityResult r =
        run_density_walk(torus, cfg, 400 + trial, SingleExec{}, &clustered);
    for (double e : r.estimates()) {
      acc.add(e);
    }
  }
  const double global_d = 63.0 / 4096.0;
  // Local density inside the patch is ~64/64 = 1; expect estimates far
  // above global density (at least 5x).
  EXPECT_GT(acc.mean(), 5.0 * global_d);
}

TEST(FailureInjection, ClusteredPlacementHealsOverLongRuns) {
  // With enough rounds the walks spread and the encounter rate falls
  // back toward the global density (still biased upward by the early
  // rounds, so compare short vs long horizons).
  const Torus2D torus(64, 64);
  std::vector<Torus2D::node_type> clustered;
  for (std::uint32_t i = 0; i < 64; ++i) {
    clustered.push_back(Torus2D::pack(i % 8, i / 8));
  }
  auto run_mean = [&](std::uint32_t rounds, std::uint64_t seed) {
    DensityConfig cfg;
    cfg.num_agents = 64;
    cfg.rounds = rounds;
    stats::Accumulator acc;
    for (std::uint64_t trial = 0; trial < 30; ++trial) {
      const DensityResult r =
          run_density_walk(torus, cfg, seed + trial, SingleExec{}, &clustered);
      for (double e : r.estimates()) {
        acc.add(e);
      }
    }
    return acc.mean();
  };
  const double short_mean = run_mean(16, 500);
  const double long_mean = run_mean(2048, 600);
  EXPECT_LT(long_mean, short_mean / 3.0);
}

TEST(FailureInjection, LazinessSlowsButDoesNotBias) {
  const Torus2D torus(24, 24);
  DensityConfig cfg;
  cfg.num_agents = 60;
  cfg.rounds = 150;
  cfg.lazy_probability = 0.5;
  const double d = 59.0 / 576.0;
  const double mean = mean_estimate(torus, cfg, 700, 60);
  EXPECT_NEAR(mean, d, 0.06 * d);
}

}  // namespace
}  // namespace antdense::sim
