// Differential suite for graph::AnyTopology: walks driven through the
// type-erased handle must be bit-identical (fixed seed) to walks driven
// through each wrapped concrete topology, for both the batched and the
// lazy (sequential) stepping paths — erasure may cost dispatch, never
// a different stream.
#include "graph/any_topology.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/ba.hpp"
#include "graph/complete.hpp"
#include "graph/explicit_topology.hpp"
#include "graph/generators.hpp"
#include "graph/gnp.hpp"
#include "graph/graph.hpp"
#include "graph/hypercube.hpp"
#include "graph/ring.hpp"
#include "graph/rgg2d.hpp"
#include "graph/torus2d.hpp"
#include "graph/torus_kd.hpp"
#include "rng/xoshiro256pp.hpp"
#include "scenario/registry.hpp"
#include "sim/density_sim.hpp"
#include "sim/trajectory.hpp"
#include "sim/trial_runner.hpp"

namespace antdense {
namespace {

constexpr std::uint64_t kSeed = 0xD1FFu;

sim::DensityConfig config(double lazy) {
  sim::DensityConfig cfg;
  cfg.num_agents = 60;
  cfg.rounds = 50;
  cfg.lazy_probability = lazy;
  return cfg;
}

/// Runs the same density walk through the concrete topology and through
/// an AnyTopology wrapper and demands identical per-agent counts.
template <graph::Topology T>
void expect_identical_walks(const T& topo) {
  const graph::AnyTopology any(topo);
  EXPECT_EQ(any.num_nodes(), topo.num_nodes());
  EXPECT_EQ(any.degree(), topo.degree());
  EXPECT_EQ(any.name(), topo.name());

  for (const double lazy : {0.0, 0.3}) {
    SCOPED_TRACE(topo.name() + (lazy > 0.0 ? " lazy" : " batched"));
    const sim::DensityResult concrete =
        sim::run_density_walk(topo, config(lazy), kSeed);
    const sim::DensityResult erased =
        sim::run_density_walk(any, config(lazy), kSeed);
    EXPECT_EQ(concrete.collision_counts, erased.collision_counts);
    EXPECT_EQ(concrete.num_nodes, erased.num_nodes);
  }
}

TEST(AnyTopology, SatisfiesTopologyConcepts) {
  static_assert(graph::Topology<graph::AnyTopology>);
}

TEST(AnyTopology, MatchesTorus2D) {
  expect_identical_walks(graph::Torus2D(24, 17));
}

TEST(AnyTopology, MatchesRing) { expect_identical_walks(graph::Ring(701)); }

TEST(AnyTopology, MatchesHypercube) {
  expect_identical_walks(graph::Hypercube(10));
}

TEST(AnyTopology, MatchesTorusKD) {
  expect_identical_walks(graph::TorusKD(3, 9));
}

TEST(AnyTopology, MatchesCompleteGraph) {
  expect_identical_walks(graph::CompleteGraph(512));
}

TEST(AnyTopology, MatchesRgg2D) {
  expect_identical_walks(graph::Rgg2D(900, 0.08, 21));
}

TEST(AnyTopology, MatchesGnp) {
  expect_identical_walks(graph::Gnp(240, 0.08, 22));
}

TEST(AnyTopology, MatchesBa) { expect_identical_walks(graph::Ba(240, 3, 23)); }

TEST(AnyTopology, MatchesExplicitExpander) {
  // Narrower (uint32) node handles exercise the widening path.
  const graph::Graph g = graph::make_random_regular_graph(300, 6, 11);
  expect_identical_walks(graph::ExplicitTopology(g, "expander"));
}

TEST(AnyTopology, BatchedKeysMatchScalarKeys) {
  const graph::Torus2D torus(13, 29);
  const graph::AnyTopology any(torus);
  rng::Xoshiro256pp gen(7);
  std::vector<std::uint64_t> nodes(257);
  for (auto& n : nodes) {
    n = torus.random_node(gen);
  }
  std::vector<std::uint64_t> batched(nodes.size());
  any.keys(nodes, std::span<std::uint64_t>(batched));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(batched[i], torus.key(nodes[i]));
    EXPECT_EQ(any.key(nodes[i]), torus.key(nodes[i]));
  }
}

TEST(AnyTopology, NodeKeysDispatcherUsesBatchedMember) {
  const graph::Ring ring(91);
  const graph::AnyTopology any(ring);
  std::vector<std::uint64_t> nodes = {0, 1, 50, 90};
  std::vector<std::uint64_t> out(nodes.size());
  graph::node_keys(any, std::span<const std::uint64_t>(nodes),
                   std::span<std::uint64_t>(out));
  EXPECT_EQ(out, nodes);  // ring keys are the node ids themselves
}

TEST(AnyTopology, CopiesShareTheSubstrate) {
  const graph::AnyTopology original{graph::Torus2D(16, 16)};
  const graph::AnyTopology copy = original;  // value semantics
  const sim::DensityResult a =
      sim::run_density_walk(original, config(0.0), kSeed);
  const sim::DensityResult b = sim::run_density_walk(copy, config(0.0), kSeed);
  EXPECT_EQ(a.collision_counts, b.collision_counts);
  EXPECT_EQ(copy.name(), original.name());
}

TEST(AnyTopology, TargetRecoversTheConcreteType) {
  const graph::AnyTopology any{graph::Torus2D(8, 9)};
  const graph::Torus2D* torus = any.target<graph::Torus2D>();
  ASSERT_NE(torus, nullptr);
  EXPECT_EQ(torus->width(), 8u);
  EXPECT_EQ(torus->height(), 9u);
  EXPECT_EQ(any.target<graph::Ring>(), nullptr);
}

TEST(AnyTopology, AppendNeighborsEnumeratesTheBall) {
  const graph::Hypercube cube(5);
  const graph::AnyTopology any(cube);
  std::vector<std::uint64_t> neighbors;
  any.append_neighbors(0, neighbors);
  ASSERT_EQ(neighbors.size(), 5u);
  for (std::uint64_t v : neighbors) {
    EXPECT_EQ(graph::Hypercube::hamming(0, v), 1u);
  }
}

TEST(AnyTopology, PayloadKeepsBorrowedGraphAlive) {
  // Build through the registry inside a scope; the returned handle owns
  // the explicit graph via its payload, so walking after the scope ends
  // must be safe and deterministic.
  graph::AnyTopology any = scenario::Registry::built_in().make(
      "expander:d=6,n=300,seed=11");
  const graph::Graph g = graph::make_random_regular_graph(300, 6, 11);
  const graph::ExplicitTopology concrete(g, "expander");
  const sim::DensityResult a =
      sim::run_density_walk(concrete, config(0.0), kSeed);
  const sim::DensityResult b = sim::run_density_walk(any, config(0.0), kSeed);
  EXPECT_EQ(a.collision_counts, b.collision_counts);
}

TEST(AnyTopology, TrajectoriesMatchConcrete) {
  const graph::Torus2D torus(20, 20);
  const graph::AnyTopology any(torus);
  const std::vector<std::uint32_t> checkpoints = {5, 10, 30};
  const sim::TrajectoryResult concrete =
      sim::run_trajectory(torus, 40, 3, checkpoints, kSeed);
  const sim::TrajectoryResult erased =
      sim::run_trajectory(any, 40, 3, checkpoints, kSeed);
  EXPECT_EQ(concrete.estimates, erased.estimates);
  EXPECT_EQ(concrete.checkpoints, erased.checkpoints);
}

TEST(AnyTopology, TrialRunnerIsThreadCountInvariant) {
  const graph::AnyTopology any{graph::Ring(401)};
  const std::vector<double> one_thread =
      sim::collect_all_agent_estimates(any, config(0.0), kSeed, 4, 1);
  const std::vector<double> four_threads =
      sim::collect_all_agent_estimates(any, config(0.0), kSeed, 4, 4);
  EXPECT_EQ(one_thread, four_threads);
}

TEST(AnyTopology, SensingNoiseMatchesConcrete) {
  const graph::Torus2D torus(15, 15);
  const graph::AnyTopology any(torus);
  sim::DensityConfig cfg = config(0.0);
  cfg.detection_miss_probability = 0.2;
  cfg.spurious_collision_probability = 0.05;
  const sim::DensityResult concrete =
      sim::run_density_walk(torus, cfg, kSeed);
  const sim::DensityResult erased = sim::run_density_walk(any, cfg, kSeed);
  EXPECT_EQ(concrete.collision_counts, erased.collision_counts);
}

}  // namespace
}  // namespace antdense
