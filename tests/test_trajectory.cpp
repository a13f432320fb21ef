// Anytime density estimates: the `trajectory` workload's snapshot series
// (running c/r at each checkpoint, error shrinking along the run) and the
// TrajectoryObserver it rides on (last snapshot equal to the walk's c/t,
// argument validation).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/torus2d.hpp"
#include "scenario/experiment.hpp"
#include "scenario/spec.hpp"
#include "sim/density_sim.hpp"
#include "sim/walk_engine.hpp"

namespace antdense {
namespace {

using graph::Torus2D;
using scenario::Experiment;
using scenario::ScenarioResult;
using scenario::ScenarioSpec;
using scenario::Workload;
using sim::CollisionObserver;
using sim::SingleExec;
using sim::TrajectoryObserver;
using sim::run_walk;
using sim::WalkConfig;

ScenarioSpec tiny_spec(const std::string& topology, Workload workload) {
  ScenarioSpec spec;
  spec.topology = topology;
  spec.workload = workload;
  spec.agents = 40;
  spec.rounds = 30;
  spec.trials = 2;
  spec.seed = 7;
  return spec;
}

TEST(Trajectory, SnapshotsAreRunningEstimates) {
  // Every snapshot is c/r at its checkpoint round r: a non-negative
  // multiple of 1/r.  The series is deterministic in the seed.
  ScenarioSpec spec = tiny_spec("torus2d:16x16", Workload::kTrajectory);
  spec.trials = 1;
  spec.agents = 20;
  spec.tracked = 20;
  spec.rounds = 50;
  spec.checkpoints = 3;
  const ScenarioResult result = Experiment(spec).run();
  EXPECT_EQ(result.checkpoints, (std::vector<std::uint32_t>{16, 33, 50}));
  EXPECT_DOUBLE_EQ(result.true_value, 19.0 / 256.0);
  ASSERT_EQ(result.series.size(), 20u);
  for (const auto& trace : result.series) {
    ASSERT_EQ(trace.size(), 3u);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const double scaled = trace[i] * result.checkpoints[i];
      EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
      EXPECT_GE(trace[i], 0.0);
    }
  }
  EXPECT_EQ(Experiment(spec).run().series, result.series);
  // The tracked count is clamped to the population, and must be >= 1.
  spec.tracked = 25;
  EXPECT_EQ(Experiment(spec).run().series.size(), 20u);
  spec.tracked = 0;
  EXPECT_THROW(Experiment{spec}, std::invalid_argument);
}

TEST(Trajectory, ErrorShrinksAlongTheRun) {
  // Anytime property: pooled absolute error at the late checkpoint is
  // well below the error at the early one.
  ScenarioSpec spec = tiny_spec("torus2d:48x48", Workload::kTrajectory);
  spec.trials = 1;
  spec.agents = 231;  // d ~ 0.1
  spec.tracked = 231;
  spec.rounds = 2048;
  spec.checkpoints = 64;  // the first snapshot is round 32
  double early = 0.0;
  double late = 0.0;
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    spec.seed = 100 + trial;
    const ScenarioResult result = Experiment(spec).run();
    ASSERT_EQ(result.checkpoints.front(), 32u);
    for (const auto& trace : result.series) {
      early += std::fabs(trace.front() - result.true_value);
      late += std::fabs(trace.back() - result.true_value);
    }
  }
  EXPECT_LT(late, 0.5 * early);
}

/// Tracked agents' running estimates at `checkpoints`: the trajectory
/// workload's observer pair on a single-stream walk.
std::vector<std::vector<double>> trajectory(const Torus2D& torus,
                                            std::uint32_t agents,
                                            std::uint32_t tracked,
                                            std::vector<std::uint32_t> checkpoints,
                                            std::uint64_t seed,
                                            std::vector<std::uint64_t>* counts) {
  WalkConfig cfg;
  cfg.num_agents = agents;
  cfg.rounds = checkpoints.back();
  CollisionObserver collisions(agents);
  TrajectoryObserver snapshots(collisions, tracked, std::move(checkpoints));
  run_walk(torus, cfg, seed, SingleExec{},
           static_cast<const std::vector<Torus2D::node_type>*>(nullptr),
           collisions, snapshots);
  if (counts != nullptr) {
    *counts = collisions.counts();
  }
  return snapshots.take_estimates();
}

TEST(TrajectoryObserver, FinalSnapshotIsTheWalksEstimate) {
  // The last snapshot is exactly c/t of the whole walk, and the
  // snapshots are deterministic in the seed.
  const Torus2D torus(16, 16);
  std::vector<std::uint64_t> counts;
  const auto a = trajectory(torus, 12, 4, {5, 20}, 9, &counts);
  EXPECT_EQ(trajectory(torus, 12, 4, {5, 20}, 9, nullptr), a);
  ASSERT_EQ(a.size(), 4u);
  for (std::size_t agent = 0; agent < a.size(); ++agent) {
    ASSERT_EQ(a[agent].size(), 2u);
    EXPECT_DOUBLE_EQ(a[agent][1], static_cast<double>(counts[agent]) / 20.0);
    const double scaled_first = a[agent][0] * 5;
    EXPECT_NEAR(scaled_first, std::round(scaled_first), 1e-9);
  }
}

TEST(TrajectoryObserver, ValidatesArguments) {
  const CollisionObserver collisions(10);
  EXPECT_THROW(TrajectoryObserver(collisions, 0, {10}), std::invalid_argument);
  EXPECT_THROW(TrajectoryObserver(collisions, 11, {10}),
               std::invalid_argument);
  EXPECT_THROW(TrajectoryObserver(collisions, 2, {}), std::invalid_argument);
  EXPECT_THROW(TrajectoryObserver(collisions, 2, {10, 10}),
               std::invalid_argument);
  EXPECT_THROW(TrajectoryObserver(collisions, 2, {0, 10}),
               std::invalid_argument);
  EXPECT_NO_THROW(TrajectoryObserver(collisions, 10, {1, 10}));
}

}  // namespace
}  // namespace antdense
