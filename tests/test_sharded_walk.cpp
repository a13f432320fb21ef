// Tests pinning the sharded engine's contract (sim/sharded_walk.hpp):
// the ShardPlan layout; multi-shard result-document goldens at the
// default grain (placement, stepping, counting and noise draws across
// shards, for a density spec, a lazy noisy walk and a churned torus);
// the occupancy-counter choice (the dense and hash counters give the
// shard loop byte-equal results for every family and observer, and
// with_occupancy_counter's picks); the stream's identity edges;
// statistical sanity of the sharded stream (Algorithm 1 stays
// unbiased); and thread-count invariance at the scenario::Experiment
// level, where `threads` fans out trials — every workload and family
// for engine=sharded, and every engine on a ring crowded past the dense
// counter's byte.
#include "sim/sharded_walk.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/any_topology.hpp"
#include "graph/hypercube.hpp"
#include "graph/torus2d.hpp"
#include "scenario/ball_density.hpp"
#include "scenario/experiment.hpp"
#include "scenario/registry.hpp"
#include "sim/dense_counter.hpp"
#include "sim/density_sim.hpp"
#include "sim/dynamic_world.hpp"
#include "stats/accumulator.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace antdense::sim {
namespace {

using graph::Hypercube;
using graph::Torus2D;

// Small shards force real multi-shard merges at test sizes.
constexpr std::uint32_t kTestShardSize = 16;
constexpr unsigned kThreadCounts[] = {1, 2, 8};

DensityConfig base_config() {
  DensityConfig cfg;
  cfg.num_agents = 40;
  cfg.rounds = 120;
  return cfg;
}

// --- ShardPlan layout -------------------------------------------------

TEST(ShardPlan, CoversPopulationContiguously) {
  const ShardPlan plan = ShardPlan::make(100, 16);
  EXPECT_EQ(plan.num_shards(), 7u);
  std::uint32_t expected_begin = 0;
  for (std::uint32_t s = 0; s < plan.num_shards(); ++s) {
    EXPECT_EQ(plan.begin(s), expected_begin);
    EXPECT_GT(plan.end(s), plan.begin(s));
    expected_begin = plan.end(s);
  }
  EXPECT_EQ(expected_begin, 100u);
  EXPECT_EQ(plan.end(plan.num_shards() - 1), 100u);
}

TEST(ShardPlan, ExactMultipleAndSingleShard) {
  EXPECT_EQ(ShardPlan::make(64, 16).num_shards(), 4u);
  EXPECT_EQ(ShardPlan::make(15, 16).num_shards(), 1u);
  EXPECT_EQ(ShardPlan::make(1, 4096).num_shards(), 1u);
}

TEST(ShardPlan, RejectsDegenerateInputs) {
  EXPECT_THROW(ShardPlan::make(0, 16), std::invalid_argument);
  EXPECT_THROW(ShardPlan::make(10, 0), std::invalid_argument);
}

// --- Occupancy counters ----------------------------------------------

/// A fresh counter of type Counter for a walk of `agents` on `topo`.
template <typename Counter>
Counter make_counter(const graph::AnyTopology& topo, std::uint32_t agents) {
  if constexpr (std::is_same_v<Counter, DenseCollisionCounter>) {
    return Counter(topo.num_nodes());
  } else {
    return Counter(agents);
  }
}

/// One shard-loop walk on a Counter: 16-agent shards on derive_stream
/// generators.
template <typename Counter, class... Obs>
void run_loop_on(const graph::AnyTopology& topo, WalkConfig cfg,
                 WorldDynamics* dynamics, Obs&... observers) {
  constexpr std::uint64_t kSeed = 0xC0DE;
  cfg.dynamics = dynamics;
  const ShardPlan plan = ShardPlan::make(cfg.num_agents, kTestShardSize);
  std::vector<rng::Xoshiro256pp> gens;
  for (std::uint32_t s = 0; s < plan.num_shards(); ++s) {
    gens.emplace_back(rng::derive_stream(kSeed, s));
  }
  Counter counter = make_counter<Counter>(topo, cfg.num_agents);
  obs::EngineTap tap("sharded", {"step_count", "observe", "mutate"});
  detail::run_shard_loop(
      topo, cfg, kSeed, plan, std::move(gens), /*view_gen=*/nullptr, tap,
      detail::kShardedPhases,
      static_cast<const std::vector<std::uint64_t>*>(nullptr), counter,
      observers...);
}

/// Every observer's output from one counter's walks on a family.
struct LoopOutputs {
  std::vector<std::uint64_t> noisy_counts;
  std::vector<std::vector<double>> trajectory;
  std::vector<std::uint64_t> total_counts;
  std::vector<std::uint64_t> property_counts;
  std::vector<std::vector<double>> ball_densities;
  std::vector<double> churn_estimates;
  std::vector<double> drift_estimates;
};

template <typename Counter>
LoopOutputs run_every_observer(const graph::AnyTopology& topo,
                               std::uint32_t agents = 40) {
  WalkConfig cfg;
  cfg.num_agents = agents;
  cfg.rounds = 30;
  LoopOutputs out;
  {
    CollisionObserver counts(
        cfg.num_agents,
        {.detection_miss = 0.3, .spurious = 0.1, .dropout = 0.1});
    TrajectoryObserver trajectory(counts, 5, {5, 15, 30});
    run_loop_on<Counter>(topo, cfg, nullptr, counts, trajectory);
    out.noisy_counts = counts.take_counts();
    out.trajectory = trajectory.take_estimates();
  }
  {
    std::vector<bool> has_property(cfg.num_agents, false);
    for (std::uint32_t i = 0; i < cfg.num_agents; i += 3) {
      has_property[i] = true;
    }
    PropertyObserver property(has_property, topo.num_nodes());
    run_loop_on<Counter>(topo, cfg, nullptr, property);
    out.total_counts = property.take_total_counts();
    out.property_counts = property.take_property_counts();
  }
  {
    scenario::BallDensityObserver balls(topo, 2, {1, 10, 30}, cfg.num_agents);
    run_loop_on<Counter>(topo, cfg, nullptr, balls);
    out.ball_densities = balls.take_densities();
  }
  {
    // About five edge drops and two node failures per round, on any
    // substrate size.
    const double per_node = 1.0 / static_cast<double>(topo.num_nodes());
    ChurnDynamics churn(topo, 5.0 * per_node, 2.0 * per_node, 5, 1);
    CollisionObserver counts(cfg.num_agents, {}, &churn);
    run_loop_on<Counter>(topo, cfg, &churn, counts);
    out.churn_estimates = counts.estimates(cfg.rounds);
  }
  {
    DriftDynamics drift(topo, cfg.num_agents, 0.05, 0.2, 1);
    CollisionObserver counts(cfg.num_agents, {}, &drift);
    run_loop_on<Counter>(topo, cfg, &drift, counts);
    out.drift_estimates = counts.estimates(cfg.rounds);
  }
  return out;
}

void expect_same_outputs(const LoopOutputs& got, const LoopOutputs& want) {
  EXPECT_EQ(got.noisy_counts, want.noisy_counts);
  EXPECT_EQ(got.trajectory, want.trajectory);
  EXPECT_EQ(got.total_counts, want.total_counts);
  EXPECT_EQ(got.property_counts, want.property_counts);
  EXPECT_EQ(got.ball_densities, want.ball_densities);
  EXPECT_EQ(got.churn_estimates, want.churn_estimates);
  EXPECT_EQ(got.drift_estimates, want.drift_estimates);
}

TEST(OccupancyCounters, EveryCounterGivesTheShardLoopTheSameBytes) {
  // Occupancy is exact in both counters, so the counter may not show in
  // any observer's output: noise draws, property counts, trajectories,
  // ball densities, and churn/drift masking.
  const auto& registry = scenario::Registry::built_in();
  for (const char* family :
       {"ring:97", "torus2d:12x10", "toruskd:3x5", "hypercube:7",
        "complete:60", "expander:d=4,n=64,seed=3"}) {
    SCOPED_TRACE(family);
    const graph::AnyTopology topo = registry.make(family);
    const LoopOutputs hash = run_every_observer<CollisionCounter>(topo);
    ASSERT_EQ(hash.noisy_counts.size(), 40u);
    std::uint64_t collisions = 0;
    for (const std::uint64_t c : hash.total_counts) {
      collisions += c;
    }
    EXPECT_GT(collisions, 0u) << "the walk must collide to test anything";
    expect_same_outputs(run_every_observer<DenseCollisionCounter>(topo),
                        hash);
  }
}

TEST(OccupancyCounters, SaturatedBytesSpillExactly) {
  // 5000 agents on 12 nodes: about 417 per node, so every byte of the
  // dense counter saturates each round and the rest spills.
  const graph::AnyTopology ring =
      scenario::Registry::built_in().make("ring:12");
  const LoopOutputs hash = run_every_observer<CollisionCounter>(ring, 5000);
  ASSERT_EQ(hash.noisy_counts.size(), 5000u);
  expect_same_outputs(run_every_observer<DenseCollisionCounter>(ring, 5000),
                      hash);
}

/// The counter with_occupancy_counter builds for these inputs.
std::string picked_counter(std::uint64_t nodes, std::uint32_t agents) {
  std::string picked;
  with_occupancy_counter(nodes, agents, [&]<typename Counter>(Counter&) {
    picked = std::is_same_v<Counter, DenseCollisionCounter> ? "dense"
                                                            : "hash";
  });
  return picked;
}

TEST(OccupancyCounters, SelectionTable) {
  struct Row {
    const char* what;
    std::uint64_t nodes;
    std::uint32_t agents;
    const char* counter;
  };
  const Row rows[] = {
      {"lattice: torus2d 1000^2, 1e5 agents", 1'000'000, 100'000, "dense"},
      {"daemon: torus2d 64^2, 300 agents", 4096, 300, "dense"},
      {"gnp 2000, 1e3 agents", 2000, 1000, "dense"},
      {"implicit: rgg2d 1e6, 1e4 agents", 1'000'000, 10'000, "dense"},
      {"rgg2d 1e6, 1e3 agents", 1'000'000, 1000, "hash"},
      {"hypercube:24, 1e3 agents", std::uint64_t{1} << 24, 1000, "hash"},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(picked_counter(row.nodes, row.agents), row.counter) << row.what;
  }
}

// --- Contract edges ---------------------------------------------------

TEST(ShardedContract, ShardSizeIsPartOfTheStream) {
  // Regrouping agents into different shards reassigns streams, so the
  // grain is identity-bearing — document it by pinning the difference.
  const Torus2D torus(24, 24);
  const DensityConfig cfg = base_config();
  const DensityResult a = run_density_walk(
      torus, cfg, 7, ShardExec{.shard_size = 16});
  const DensityResult b = run_density_walk(
      torus, cfg, 7, ShardExec{.shard_size = 8});
  EXPECT_NE(a.collision_counts, b.collision_counts);
}

TEST(ShardedContract, DistinctFromSingleStreamEngine) {
  // The sharded engine deliberately defines its own stream: even a
  // single-shard walk is seeded through derive_stream, not the root.
  const Torus2D torus(24, 24);
  const DensityConfig cfg = base_config();
  const DensityResult sharded = run_density_walk(
      torus, cfg, 7, ShardExec{});
  const DensityResult single = run_density_walk(torus, cfg, 7);
  EXPECT_NE(sharded.collision_counts, single.collision_counts);
}

TEST(ShardedContract, DeterministicAcrossRepeatedRuns) {
  const Hypercube cube(10);
  const DensityConfig cfg = base_config();
  const ShardExec exec{.shard_size = kTestShardSize};
  const DensityResult a = run_density_walk(cube, cfg, 9, exec);
  const DensityResult b = run_density_walk(cube, cfg, 9, exec);
  EXPECT_EQ(a.collision_counts, b.collision_counts);
}

TEST(ShardedStatistics, DensityEstimatesStayUnbiased) {
  // Theorem 1's unbiasedness (E[c/t] = d) must survive the stream
  // change: pooled sharded estimates match the true density within 4
  // standard errors, same envelope as the single-stream regression.
  const Torus2D torus(16, 16);
  DensityConfig cfg;
  cfg.num_agents = 50;
  cfg.rounds = 80;
  const double d = 49.0 / 256.0;
  stats::Accumulator acc;
  for (std::uint64_t trial = 0; trial < 120; ++trial) {
    const DensityResult r = run_density_walk(
        torus, cfg, 900 + trial,
        ShardExec{.shard_size = kTestShardSize});
    for (double e : r.estimates()) {
      acc.add(e);
    }
  }
  EXPECT_NEAR(acc.mean(), d, 4.0 * acc.standard_error() + 1e-12);
}

// --- Multi-shard goldens ----------------------------------------------

TEST(ShardedGolden, MultiShardResultDocumentsArePinned) {
  // 9000 agents at the default 4096-agent grain are three shards, so
  // these pin the cross-shard order of placement, stepping, counting
  // and noise draws at the engine=sharded grain itself.  The document
  // hash is to_json() minus the wall-clock fields, dumped compact; the
  // document echoes `threads`, so it is put back before hashing and
  // one hash covers every thread count.
  const struct {
    const char* json;
    const char* hash;
  } goldens[] = {
      {R"({"topology":"torus2d:128x128","workload":"density","agents":9000,
           "rounds":30,"seed":7,"engine":"sharded"})",
       "c81575c4519b6ce5"},
      {R"({"topology":"torus2d:96x96","workload":"density","agents":9000,
           "rounds":30,"seed":8,"lazy":0.3,"miss":0.25,"spurious":0.02,
           "dropout":0.1,"engine":"sharded"})",
       "47dbca3de2a3d7af"},
      {R"({"topology":"torus2d:128x128","workload":"density","agents":9000,
           "rounds":30,"seed":9,"engine":"sharded",
           "dynamics":"churn:p_edge=0.005,p_fail=0.0025,mean_down=8"})",
       "add569dc89c9dbd7"},
  };
  for (const auto& g : goldens) {
    const scenario::ScenarioSpec pinned = scenario::ScenarioSpec::from_json(
        util::JsonValue::parse(g.json));
    ASSERT_EQ(ShardPlan::make(pinned.agents).num_shards(), 3u);
    for (const unsigned threads : {1u, 4u}) {
      scenario::ScenarioSpec spec = pinned;
      spec.threads = threads;
      scenario::ScenarioResult result = scenario::Experiment(spec).run();
      result.spec.threads = pinned.threads;
      util::JsonValue doc = result.to_json();
      doc.erase("elapsed_seconds");
      doc.erase("elapsed_ns");
      EXPECT_EQ(util::hex64(util::fnv1a64(doc.dump(0))), g.hash)
          << "multi-shard result drifted for " << g.json << " at "
          << threads << " thread(s)";
    }
  }
}

// --- Experiment-level invariance (all workloads, all families) --------

TEST(ShardedExperiment, AllWorkloadsAllFamiliesThreadInvariant) {
  // engine=sharded through the scenario facade: the emitted artifact
  // must be byte-identical for threads ∈ {1, 2, 8} on every topology
  // family x workload cell (trials > 1 for the pooling workloads so the
  // trial fan-out path is covered too).
  const char* topologies[] = {"torus2d:12x12",  "ring:200",
                              "hypercube:8",    "toruskd:3x6",
                              "complete:128",
                              "expander:d=8,n=128,seed=7"};
  const scenario::Workload workloads[] = {
      scenario::Workload::kDensity, scenario::Workload::kProperty,
      scenario::Workload::kTrajectory, scenario::Workload::kLocalDensity};
  for (const char* topology : topologies) {
    for (const scenario::Workload workload : workloads) {
      SCOPED_TRACE(std::string(topology) + " / " +
                   scenario::workload_name(workload));
      scenario::ScenarioSpec spec;
      spec.topology = topology;
      spec.workload = workload;
      spec.engine = scenario::EngineMode::kSharded;
      spec.agents = 24;
      spec.rounds = 20;
      spec.checkpoints = 4;
      const bool pooled = workload == scenario::Workload::kDensity ||
                          workload == scenario::Workload::kProperty;
      spec.trials = pooled ? 2 : 1;
      std::string reference;
      for (unsigned threads : kThreadCounts) {
        spec.threads = threads;
        scenario::ScenarioResult result =
            scenario::Experiment(spec).run();
        result.elapsed_seconds = 0.0;  // the wall-clock fields
        result.elapsed_ns = 0;
        const std::string dump = result.to_json().dump(0);
        if (reference.empty()) {
          reference = dump;
        } else {
          // The spec echoes `threads`, which legitimately differs.
          scenario::ScenarioSpec canonical = result.spec;
          canonical.threads = kThreadCounts[0];
          result.spec = canonical;
          EXPECT_EQ(result.to_json().dump(0), reference)
              << "diverged at threads=" << threads;
        }
      }
    }
  }
}

TEST(ShardedExperiment, CrowdedRingEveryEngineThreadInvariant) {
  // ring:12 with 5000 agents holds about 417 agents per node, past the
  // dense counter's byte, so every round spills.  Each engine's result
  // document must not depend on the thread count.
  for (const scenario::EngineMode engine :
       {scenario::EngineMode::kSingleStream, scenario::EngineMode::kSharded,
        scenario::EngineMode::kVector}) {
    for (const scenario::Workload workload :
         {scenario::Workload::kDensity, scenario::Workload::kProperty}) {
      scenario::ScenarioSpec spec;
      spec.topology = "ring:12";
      spec.workload = workload;
      spec.engine = engine;
      spec.agents = 5000;
      spec.rounds = 20;
      spec.trials = 2;
      SCOPED_TRACE(scenario::engine_mode_name(engine) + " / " +
                   scenario::workload_name(workload));
      std::string reference;
      for (const unsigned threads : {1u, 2u, 4u}) {
        spec.threads = threads;
        scenario::ScenarioResult result = scenario::Experiment(spec).run();
        result.elapsed_seconds = 0.0;
        result.elapsed_ns = 0;
        result.spec.threads = 1;  // the echoed knob legitimately differs
        const std::string dump = result.to_json().dump(0);
        if (reference.empty()) {
          reference = dump;
        } else {
          EXPECT_EQ(dump, reference) << "diverged at threads=" << threads;
        }
      }
    }
  }
}

}  // namespace
}  // namespace antdense::sim
