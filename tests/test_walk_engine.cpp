// Differential tests pinning the WalkEngine's compatibility contract:
// the observer-based engine must reproduce the frozen pre-engine loops
// (sim/legacy_reference.hpp) bit-for-bit at fixed seeds in every mode
// except detection-miss, whose stream was deliberately re-goldened when
// the per-partner Bernoulli loop became one binomial draw (that path is
// pinned statistically and at its deterministic edge cases instead).
// Also covers the batched topology API (same generator stream as
// sequential stepping) and the engine-only observers.
#include "sim/walk_engine.hpp"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "graph/biased_torus2d.hpp"
#include "graph/complete.hpp"
#include "graph/explicit_topology.hpp"
#include "graph/generators.hpp"
#include "graph/hypercube.hpp"
#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "graph/torus_kd.hpp"
#include "local_density_oracle.hpp"
#include "sim/density_sim.hpp"
#include "sim/legacy_reference.hpp"
#include "stats/accumulator.hpp"

namespace antdense::sim {
namespace {

using graph::Hypercube;
using graph::Ring;
using graph::Torus2D;

DensityConfig base_config() {
  DensityConfig cfg;
  cfg.num_agents = 40;
  cfg.rounds = 120;
  return cfg;
}

template <graph::Topology T>
void expect_density_walk_matches_legacy(const T& topo,
                                        const DensityConfig& cfg,
                                        std::uint64_t seed) {
  const DensityResult engine = run_density_walk(topo, cfg, seed);
  const DensityResult reference = legacy::run_density_walk(topo, cfg, seed);
  EXPECT_EQ(engine.collision_counts, reference.collision_counts)
      << "on " << topo.name() << " seed " << seed;
  EXPECT_EQ(engine.rounds, reference.rounds);
  EXPECT_EQ(engine.num_nodes, reference.num_nodes);
}

TEST(EngineEquivalence, DensityWalkMatchesLegacyAcrossTopologies) {
  const DensityConfig cfg = base_config();
  for (std::uint64_t seed : {1ull, 77ull, 0xDEADull}) {
    expect_density_walk_matches_legacy(Ring(512), cfg, seed);
    expect_density_walk_matches_legacy(Torus2D(24, 24), cfg, seed);
    expect_density_walk_matches_legacy(Hypercube(10), cfg, seed);
    expect_density_walk_matches_legacy(graph::TorusKD(3, 8), cfg, seed);
    expect_density_walk_matches_legacy(graph::CompleteGraph(100), cfg, seed);
  }
}

TEST(EngineEquivalence, DensityWalkMatchesLegacyOnExpander) {
  const graph::Graph g = graph::make_random_regular_graph(128, 4, 99);
  const graph::ExplicitTopology topo(g, "rr");
  expect_density_walk_matches_legacy(topo, base_config(), 5);
}

TEST(EngineEquivalence, DensityWalkMatchesLegacyOnFallbackTopology) {
  // BiasedTorus2D has no batched member: the engine's generic fallback
  // must still match the legacy per-agent loop.
  const auto topo = graph::BiasedTorus2D::with_drift(20, 20, 0.1);
  expect_density_walk_matches_legacy(topo, base_config(), 13);
}

TEST(EngineEquivalence, LazyWalkMatchesLegacy) {
  DensityConfig cfg = base_config();
  cfg.lazy_probability = 0.3;
  expect_density_walk_matches_legacy(Torus2D(16, 16), cfg, 21);
  expect_density_walk_matches_legacy(Ring(256), cfg, 22);
}

TEST(EngineEquivalence, SpuriousWalkMatchesLegacy) {
  // Spurious detections stay one Bernoulli draw per agent, so even this
  // noisy mode is stream-identical to the legacy loop.
  DensityConfig cfg = base_config();
  cfg.spurious_collision_probability = 0.2;
  expect_density_walk_matches_legacy(Torus2D(16, 16), cfg, 31);
  expect_density_walk_matches_legacy(Hypercube(9), cfg, 32);
}

TEST(EngineEquivalence, InitialPositionsMatchLegacy) {
  const Torus2D torus(16, 16);
  DensityConfig cfg = base_config();
  std::vector<Torus2D::node_type> start;
  for (std::uint32_t i = 0; i < cfg.num_agents; ++i) {
    start.push_back(Torus2D::pack(i % 4, i / 16));
  }
  const DensityResult engine =
      run_density_walk(torus, cfg, 41, SingleExec{}, &start);
  const DensityResult reference =
      legacy::run_density_walk(torus, cfg, 41, &start);
  EXPECT_EQ(engine.collision_counts, reference.collision_counts);
}

TEST(EngineEquivalence, PropertyWalkMatchesLegacy) {
  DensityConfig cfg = base_config();
  std::vector<bool> has_property(cfg.num_agents, false);
  for (std::uint32_t i = 0; i < cfg.num_agents; i += 3) {
    has_property[i] = true;
  }
  for (std::uint64_t seed : {2ull, 1234ull}) {
    for (int topo_case = 0; topo_case < 3; ++topo_case) {
      auto check = [&](const auto& topo) {
        const PropertyResult engine =
            run_property_walk(topo, cfg, has_property, seed);
        const PropertyResult reference =
            legacy::run_property_walk(topo, cfg, has_property, seed);
        EXPECT_EQ(engine.total_counts, reference.total_counts)
            << topo.name() << " seed " << seed;
        EXPECT_EQ(engine.property_counts, reference.property_counts)
            << topo.name() << " seed " << seed;
      };
      if (topo_case == 0) {
        check(Ring(300));
      } else if (topo_case == 1) {
        check(Torus2D(20, 20));
      } else {
        check(Hypercube(10));
      }
    }
  }
}

// --- The re-goldened detection-miss path ------------------------------

TEST(EngineEquivalence, MissPathIsDeterministicInSeed) {
  const Torus2D torus(12, 12);
  DensityConfig cfg = base_config();
  cfg.detection_miss_probability = 0.4;
  const DensityResult a = run_density_walk(torus, cfg, 7);
  const DensityResult b = run_density_walk(torus, cfg, 7);
  EXPECT_EQ(a.collision_counts, b.collision_counts);
}

TEST(EngineEquivalence, MissPathKeepsLegacyAttenuation) {
  // E[d~] = (1-p) d must survive the binomial re-golden.  Pins the
  // distribution the legacy Bernoulli loop realized.
  const Torus2D torus(16, 16);
  DensityConfig cfg;
  cfg.num_agents = 50;
  cfg.rounds = 80;
  cfg.detection_miss_probability = 0.35;
  const double d = 49.0 / 256.0;
  stats::Accumulator engine_acc;
  stats::Accumulator legacy_acc;
  for (std::uint64_t trial = 0; trial < 120; ++trial) {
    for (double e : run_density_walk(torus, cfg, 900 + trial).estimates()) {
      engine_acc.add(e);
    }
    for (double e :
         legacy::run_density_walk(torus, cfg, 900 + trial).estimates()) {
      legacy_acc.add(e);
    }
  }
  EXPECT_NEAR(engine_acc.mean(), 0.65 * d,
              4.0 * engine_acc.standard_error() + 1e-12);
  // Engine and legacy agree with each other within combined noise.
  EXPECT_NEAR(engine_acc.mean(), legacy_acc.mean(),
              4.0 * (engine_acc.standard_error() +
                     legacy_acc.standard_error()));
}

TEST(EngineEquivalence, FullMissStillZeroesCounts) {
  const Torus2D torus(4, 4);
  DensityConfig cfg;
  cfg.num_agents = 10;
  cfg.rounds = 32;
  cfg.detection_miss_probability = 1.0;
  const DensityResult r = run_density_walk(torus, cfg, 9);
  for (std::uint64_t c : r.collision_counts) {
    EXPECT_EQ(c, 0u);
  }
}

// --- Batched neighbor sampling ----------------------------------------

template <graph::Topology T>
void expect_bulk_matches_sequential(const T& topo, std::uint64_t seed) {
  rng::Xoshiro256pp place(seed);
  std::vector<typename T::node_type> start(1000);
  for (auto& p : start) {
    p = topo.random_node(place);
  }

  rng::Xoshiro256pp gen_seq(seed + 1);
  rng::Xoshiro256pp gen_bulk(seed + 1);
  std::vector<typename T::node_type> seq = start;
  std::vector<typename T::node_type> bulk = start;
  for (int step = 0; step < 5; ++step) {
    for (auto& p : seq) {
      p = topo.random_neighbor(p, gen_seq);
    }
    graph::random_neighbors(
        topo, std::span<const typename T::node_type>(bulk),
        std::span<typename T::node_type>(bulk), gen_bulk);
    EXPECT_EQ(seq, bulk) << topo.name() << " diverged at step " << step;
    EXPECT_EQ(gen_seq(), gen_bulk())
        << topo.name() << " consumed a different number of draws";
    // Keep both generators aligned after the probe draw above.
  }
}

TEST(BulkNeighbors, StreamIdenticalToSequentialStepping) {
  expect_bulk_matches_sequential(Ring(1000), 51);
  expect_bulk_matches_sequential(Torus2D(40, 30), 52);
  expect_bulk_matches_sequential(Hypercube(12), 53);
  expect_bulk_matches_sequential(graph::TorusKD(4, 5), 54);
  expect_bulk_matches_sequential(graph::CompleteGraph(333), 55);
  const graph::Graph g = graph::make_random_regular_graph(200, 6, 7);
  expect_bulk_matches_sequential(graph::ExplicitTopology(g, "rr"), 56);
}

TEST(BulkNeighbors, SizeMismatchThrows) {
  const Ring ring(64);
  rng::Xoshiro256pp gen(1);
  std::vector<Ring::node_type> in(8, 0);
  std::vector<Ring::node_type> out(7, 0);
  EXPECT_THROW(graph::random_neighbors(
                   ring, std::span<const Ring::node_type>(in),
                   std::span<Ring::node_type>(out), gen),
               std::invalid_argument);
}

// --- Engine config + observer composition ------------------------------

TEST(WalkConfig, ValidatesFields) {
  WalkConfig cfg;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // zero agents
  cfg.num_agents = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // zero rounds
  cfg.rounds = 1;
  EXPECT_NO_THROW(cfg.validate());
  cfg.lazy_probability = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.lazy_probability = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(WalkEngine, ComposedObserversMatchSeparateRuns) {
  // Observers that do not draw from the generator can be stacked without
  // changing each other's results: a combined collision+property run
  // must equal the two dedicated drivers at the same stream seed.
  const Torus2D torus(16, 16);
  constexpr std::uint32_t kAgents = 30;
  constexpr std::uint32_t kRounds = 90;
  std::vector<bool> has_property(kAgents, false);
  has_property[0] = has_property[5] = has_property[17] = true;

  WalkConfig cfg;
  cfg.num_agents = kAgents;
  cfg.rounds = kRounds;
  CollisionObserver collisions(kAgents);
  PropertyObserver properties(has_property, torus.num_nodes());
  constexpr std::uint64_t kStreamSeed = 0xABCDEFull;
  run_walk(torus, cfg, kStreamSeed, SingleExec{},
           static_cast<const std::vector<Torus2D::node_type>*>(nullptr),
           collisions, properties);

  CollisionObserver collisions_only(kAgents);
  run_walk(torus, cfg, kStreamSeed, SingleExec{},
           static_cast<const std::vector<Torus2D::node_type>*>(nullptr),
           collisions_only);
  EXPECT_EQ(collisions.counts(), collisions_only.counts());

  PropertyObserver properties_only(has_property, torus.num_nodes());
  run_walk(torus, cfg, kStreamSeed, SingleExec{},
           static_cast<const std::vector<Torus2D::node_type>*>(nullptr),
           properties_only);
  EXPECT_EQ(properties.total_counts(), properties_only.total_counts());
  EXPECT_EQ(properties.property_counts(),
            properties_only.property_counts());

  // total_counts is exactly what the CollisionObserver accumulates.
  EXPECT_EQ(properties.total_counts(), collisions.counts());
}

/// Every agent's L1-ball local density at `checkpoints` (the oracle
/// observer), optionally from a given placement.
std::vector<std::vector<double>> local_densities(
    const Torus2D& torus, std::uint32_t agents, std::uint32_t radius,
    std::vector<std::uint32_t> checkpoints, std::uint64_t seed,
    const std::vector<Torus2D::node_type>* initial_positions) {
  WalkConfig cfg;
  cfg.num_agents = agents;
  cfg.rounds = checkpoints.back();
  testing::LocalDensityObserver balls(torus, radius, std::move(checkpoints));
  run_walk(torus, cfg, seed, SingleExec{}, initial_positions, balls);
  return balls.densities();
}

TEST(LocalDensityObserver, ClusteredStartRelaxesTowardGlobalDensity) {
  const Torus2D torus(64, 64);
  constexpr std::uint32_t kAgents = 64;
  std::vector<Torus2D::node_type> clustered;
  for (std::uint32_t i = 0; i < kAgents; ++i) {
    clustered.push_back(Torus2D::pack(i % 8, i / 8));
  }
  const auto densities =
      local_densities(torus, kAgents, /*radius=*/4, {1, 2048}, 77, &clustered);
  ASSERT_EQ(densities.size(), 2u);
  ASSERT_EQ(densities[0].size(), kAgents);
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) {
      s += x;
    }
    return s / static_cast<double>(v.size());
  };
  const double early = mean(densities[0]);
  const double late = mean(densities[1]);
  const double global_density = 63.0 / 4096.0;
  // Packed 8x8 start: experienced local density starts far above the
  // global density and relaxes most of the way back down.
  EXPECT_GT(early, 10.0 * global_density);
  EXPECT_LT(late, early / 3.0);
}

TEST(LocalDensityObserver, DeterministicInSeed) {
  const Torus2D torus(32, 32);
  EXPECT_EQ(local_densities(torus, 20, 3, {4, 16}, 5, nullptr),
            local_densities(torus, 20, 3, {4, 16}, 5, nullptr));
}

TEST(LocalDensityObserver, NeedsTheWholePopulationInOneView) {
  // The observer snapshots every agent per call, so a multi-shard walk
  // is rejected instead of recording one row per shard.
  const Torus2D torus(32, 32);
  WalkConfig cfg;
  cfg.num_agents = 20;
  cfg.rounds = 4;
  testing::LocalDensityObserver one_shard(torus, 3, {2, 4});
  run_walk(torus, cfg, 5, ShardExec{.shard_size = 20},
           static_cast<const std::vector<Torus2D::node_type>*>(nullptr),
           one_shard);
  EXPECT_EQ(one_shard.densities().size(), 2u);
  testing::LocalDensityObserver sharded(torus, 3, {2, 4});
  EXPECT_THROW(
      run_walk(torus, cfg, 5, ShardExec{.shard_size = 8},
               static_cast<const std::vector<Torus2D::node_type>*>(nullptr),
               sharded),
      std::invalid_argument);
}

}  // namespace
}  // namespace antdense::sim
