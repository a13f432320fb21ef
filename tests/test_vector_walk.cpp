// The vector engine's contract suite (sim/vector_walk.hpp, run on the
// shard loop):
//   - sequential equivalence: graph::random_neighbors (word-step kernel,
//     batched Lemire, bulk fallback) == per-agent random_neighbor draws
//     from an equal-seeded WideStream or Xoshiro256pp, on every explicit
//     family and through the type-erased AnyTopology handle;
//   - dense/hash counter equality: which occupancy counter a walk used
//     is unobservable in its results;
//   - golden pins: the vector engine's own streams at fixed seeds (the
//     analogue of the single/sharded goldens — engine=vector is a third
//     identity, not a re-golden of the scalar engines);
//   - statistical equivalence with the scalar engines on all nine
//     topology families: pooled means within 3 combined standard
//     errors, and the Theorem-1 (eps, delta) envelope on the planned
//     round count;
//   - scenario facade: engine=vector runs every workload and is
//     thread-count invariant (threads only fan out trials).
#include "sim/vector_walk.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/density_estimator.hpp"
#include "graph/any_topology.hpp"
#include "graph/ba.hpp"
#include "graph/complete.hpp"
#include "graph/explicit_topology.hpp"
#include "graph/generators.hpp"
#include "graph/gnp.hpp"
#include "graph/hypercube.hpp"
#include "graph/rgg2d.hpp"
#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "graph/torus_kd.hpp"
#include "obs/telemetry.hpp"
#include "rng/xoshiro256pp.hpp"
#include "rng/xoshiro_wide.hpp"
#include "scenario/experiment.hpp"
#include "sim/dense_counter.hpp"
#include "sim/density_sim.hpp"
#include "sim/sharded_walk.hpp"
#include "sim/trial_runner.hpp"
#include "stats/accumulator.hpp"

namespace antdense::sim {
namespace {

constexpr std::uint64_t kSeed = 0x7E012;  // fixed: regression, not stats

// --- The dense counter ------------------------------------------------

TEST(DenseCounter, MatchesHashCounterOnRandomKeys) {
  constexpr std::uint64_t kKeys = 64;
  DenseCollisionCounter dense(kKeys);
  CollisionCounter hash(200);
  rng::Xoshiro256pp gen(kSeed);
  for (int round = 0; round < 20; ++round) {
    dense.begin_round();
    hash.begin_round();
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t key = rng::uniform_below(gen, kKeys);
      ASSERT_EQ(dense.add(key), hash.add(key));
    }
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      ASSERT_EQ(dense.occupancy(key), hash.occupancy(key)) << "key " << key;
    }
  }
}

TEST(DenseCounter, PreviousRoundReadsAsEmpty) {
  DenseCollisionCounter counter(8);
  counter.begin_round();
  counter.add(3);
  counter.add(3);
  EXPECT_EQ(counter.occupancy(3), 2u);
  counter.begin_round();
  EXPECT_EQ(counter.occupancy(3), 0u);
}

TEST(DenseCounter, CountsStayExactPastTheByte) {
  // Keys filled to either side of the byte's 255 (the rest spill), in
  // interleaved order, over several rounds whose per-key totals change:
  // every add's return value and every occupancy equals the hash
  // counter's.
  constexpr std::uint64_t kKeys = 8;
  const std::uint32_t adds[kKeys] = {254, 255, 256, 1000, 0, 1, 300, 255};
  DenseCollisionCounter dense(kKeys);
  CollisionCounter hash(kKeys);
  for (std::uint32_t round = 0; round < 4; ++round) {
    dense.begin_round();
    hash.begin_round();
    std::uint32_t left[kKeys];
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      // Rotate the totals so a key saturated last round is not this one.
      left[key] = adds[(key + round) % kKeys];
    }
    for (bool any = true; any;) {
      any = false;
      for (std::uint64_t key = 0; key < kKeys; ++key) {
        if (left[key] > 0) {
          --left[key];
          any = true;
          ASSERT_EQ(dense.add(key), hash.add(key))
              << "round " << round << " key " << key;
        }
      }
    }
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      EXPECT_EQ(dense.occupancy(key), adds[(key + round) % kKeys])
          << "round " << round << " key " << key;
      EXPECT_EQ(dense.occupancy(key), hash.occupancy(key));
    }
  }
}

TEST(DenseCounter, SelectionPolicy) {
  constexpr std::uint64_t kCap = std::uint64_t{1} << 24;
  EXPECT_TRUE(use_dense_counter(1, 1));
  EXPECT_TRUE(use_dense_counter(
      kCap, (kCap + kDenseNodesPerAgent - 1) / kDenseNodesPerAgent));
  EXPECT_FALSE(use_dense_counter(kCap + 1, kCap));
  EXPECT_FALSE(use_dense_counter(0, 1));
  // The nodes-per-agent ratio: sparse populations count in the hash
  // table, whatever the substrate's size.
  EXPECT_TRUE(use_dense_counter(192, 1));
  EXPECT_FALSE(use_dense_counter(193, 1));
  EXPECT_TRUE(use_dense_counter(1'000'000, 10'000));
  EXPECT_FALSE(use_dense_counter(kCap, 1000));
  EXPECT_FALSE(use_dense_counter(1000, 0));
}

TEST(VectorEngine, CounterChoiceIsUnobservable) {
  // Same walk through the dense counter (the policy's pick on this
  // substrate) and the hash counter: identical counts.
  const graph::Torus2D torus(24, 24);
  DensityConfig cfg;
  cfg.num_agents = 60;
  cfg.rounds = 100;
  ASSERT_TRUE(use_dense_counter(torus.num_nodes(), cfg.num_agents));
  const DensityResult dense = run_density_walk_vector(torus, cfg, kSeed);
  // The vector engine's streams (run_walk's VectorExec branch), with
  // the shard loop on the hash counter.
  const std::uint64_t stream_seed = rng::derive_seed(kSeed, 0x51u);
  rng::Xoshiro256pp obs_gen(rng::derive_seed(stream_seed, kVectorObserverTag));
  CollisionObserver observer(cfg.num_agents);
  CollisionCounter hash(cfg.num_agents);
  obs::EngineTap tap("vector", {"step", "count", "observe", "mutate"});
  detail::run_shard_loop(
      torus, cfg.walk_config(), stream_seed,
      ShardPlan::make(cfg.num_agents, cfg.num_agents),
      std::vector<rng::WideStream>{rng::WideStream(stream_seed)}, &obs_gen,
      tap, detail::kSinglePhases,
      static_cast<const std::vector<graph::Torus2D::node_type>*>(nullptr),
      hash, observer);
  EXPECT_EQ(dense.collision_counts, observer.counts());
}

// --- Sequential equivalence of batched stepping ------------------------

/// Walks `agents` agents `rounds` rounds twice from equal G generators:
/// through graph::random_neighbors in place, and through per-agent
/// random_neighbor calls.  Positions and generator state must agree.
template <typename G, graph::Topology T>
void expect_batched_step_sequential_equivalent(const T& topo,
                                               std::uint32_t agents,
                                               std::uint32_t rounds) {
  using node = typename T::node_type;
  G gen_batch(kSeed);
  G gen_seq(kSeed);
  std::vector<node> pos_batch(agents);
  for (auto& p : pos_batch) {
    p = topo.random_node(gen_batch);
  }
  std::vector<node> pos_seq(agents);
  for (auto& p : pos_seq) {
    p = topo.random_node(gen_seq);
  }
  ASSERT_EQ(pos_batch, pos_seq);
  graph::RowCache rows;  // one per walk, as the shard loop keeps it
  for (std::uint32_t r = 0; r < rounds; ++r) {
    graph::random_neighbors(topo, std::span<const node>(pos_batch),
                            std::span<node>(pos_batch), gen_batch, rows);
    for (auto& p : pos_seq) {
      p = topo.random_neighbor(p, gen_seq);
    }
    ASSERT_EQ(pos_batch, pos_seq) << topo.name() << " round " << r;
  }
  // Same words consumed overall.
  EXPECT_EQ(gen_batch(), gen_seq()) << topo.name();
}

template <graph::Topology T>
void expect_sequential_equivalent_on_both_generators(const T& topo) {
  // 300 agents straddles the 256-word block boundary, so partial blocks
  // and full blocks are both exercised.
  expect_batched_step_sequential_equivalent<rng::WideStream>(topo, 300, 12);
  expect_batched_step_sequential_equivalent<rng::Xoshiro256pp>(topo, 300,
                                                               12);
}

TEST(VectorStep, SequentialEquivalenceAllExplicitFamilies) {
  const graph::Graph expander = graph::make_random_regular_graph(128, 8, 7);
  const graph::ExplicitTopology explicit_expander(expander, "expander");
  expect_sequential_equivalent_on_both_generators(graph::Ring(997));
  expect_sequential_equivalent_on_both_generators(graph::Torus2D(48, 32));
  expect_sequential_equivalent_on_both_generators(graph::TorusKD(3, 7));
  expect_sequential_equivalent_on_both_generators(graph::Hypercube(11));
  expect_sequential_equivalent_on_both_generators(graph::CompleteGraph(512));
  expect_sequential_equivalent_on_both_generators(explicit_expander);
  // Through the handle: the pick path behind a virtual, and the
  // elementwise path of a narrower (uint32) node type.
  expect_sequential_equivalent_on_both_generators(
      graph::AnyTopology(graph::TorusKD(3, 7)));
  expect_sequential_equivalent_on_both_generators(
      graph::AnyTopology(explicit_expander));
}

TEST(VectorStep, ErasedMatchesConcrete) {
  // Through graph::AnyTopology the same walks must be bit-identical:
  // the WideStream virtuals forward to the same graph::random_neighbors.
  DensityConfig cfg;
  cfg.num_agents = 80;
  cfg.rounds = 60;
  const graph::Torus2D torus(32, 32);
  const graph::Ring ring(1000);
  const graph::TorusKD kd(3, 7);
  EXPECT_EQ(run_density_walk_vector(torus, cfg, kSeed).collision_counts,
            run_density_walk_vector(graph::AnyTopology(torus), cfg, kSeed)
                .collision_counts);
  EXPECT_EQ(run_density_walk_vector(ring, cfg, kSeed).collision_counts,
            run_density_walk_vector(graph::AnyTopology(ring), cfg, kSeed)
                .collision_counts);
  EXPECT_EQ(run_density_walk_vector(kd, cfg, kSeed).collision_counts,
            run_density_walk_vector(graph::AnyTopology(kd), cfg, kSeed)
                .collision_counts);
}

TEST(VectorEngine, LazyWalkMatchesScalarConsumption) {
  // The lazy path draws stay/step interleaved from the wide stream; it
  // must be deterministic and well-formed on both engines' view types.
  const graph::Torus2D torus(24, 24);
  DensityConfig cfg;
  cfg.num_agents = 50;
  cfg.rounds = 80;
  cfg.lazy_probability = 0.3;
  const DensityResult a = run_density_walk_vector(torus, cfg, kSeed);
  const DensityResult b = run_density_walk_vector(torus, cfg, kSeed);
  EXPECT_EQ(a.collision_counts, b.collision_counts);
  EXPECT_EQ(a.collision_counts.size(), 50u);
}

// --- Golden pins ------------------------------------------------------

TEST(VectorEngine, GoldenDensityWalk) {
  // engine=vector's own golden stream: torus2d 16x16, 50 agents, 80
  // rounds, seed 900.  Re-goldening this means the vector identity
  // changed (lane count, tags, draw order) — never do it casually.
  const graph::Torus2D torus(16, 16);
  DensityConfig cfg;
  cfg.num_agents = 50;
  cfg.rounds = 80;
  const DensityResult r = run_density_walk_vector(torus, cfg, 900);
  ASSERT_EQ(r.collision_counts.size(), 50u);
  const std::uint64_t golden_first8[8] = {22, 10, 33, 25, 16, 13, 13, 17};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(r.collision_counts[i], golden_first8[i]) << "agent " << i;
  }
  std::uint64_t sum = 0;
  for (const std::uint64_t c : r.collision_counts) {
    sum += c;
  }
  EXPECT_EQ(sum, 828u);
}

// --- Statistical equivalence across engines, all nine families --------

struct FamilyCase {
  std::string label;
  graph::AnyTopology topo;
};

std::vector<FamilyCase> nine_families() {
  std::vector<FamilyCase> cases;
  cases.push_back({"torus2d", graph::AnyTopology(graph::Torus2D(16, 16))});
  cases.push_back({"ring", graph::AnyTopology(graph::Ring(256))});
  cases.push_back({"toruskd", graph::AnyTopology(graph::TorusKD(3, 6))});
  cases.push_back({"hypercube", graph::AnyTopology(graph::Hypercube(8))});
  cases.push_back(
      {"complete", graph::AnyTopology(graph::CompleteGraph(256))});
  auto expander = std::make_shared<graph::Graph>(
      graph::make_random_regular_graph(256, 8, 7));
  cases.push_back(
      {"expander",
       graph::AnyTopology::with_payload(
           graph::ExplicitTopology(*expander, "expander"), expander)});
  cases.push_back(
      {"rgg2d", graph::AnyTopology(graph::Rgg2D(1024, 0.06, 7))});
  cases.push_back({"gnp", graph::AnyTopology(graph::Gnp(400, 0.03, 7))});
  cases.push_back({"ba", graph::AnyTopology(graph::Ba(400, 4, 7))});
  return cases;
}

// Per-trial means of a flat trials-x-agents estimate pool.  Estimates
// WITHIN one trial are correlated (agents share collision events), so
// the iid standard error over the pooled vector understates the true
// spread; trial means are genuinely independent samples.
std::vector<double> trial_means(const std::vector<double>& flat,
                                std::uint32_t agents) {
  std::vector<double> means;
  for (std::size_t start = 0; start + agents <= flat.size();
       start += agents) {
    double sum = 0.0;
    for (std::uint32_t a = 0; a < agents; ++a) {
      sum += flat[start + a];
    }
    means.push_back(sum / agents);
  }
  return means;
}

TEST(VectorStatistics, MatchesSingleEngineOnAllNineFamilies) {
  // Cross-engine equivalence: the vector and single engines sample the
  // same distribution, so their per-trial mean estimates agree within 4
  // combined standard errors on every family — including the irregular
  // implicit ones, where comparing engine-to-engine sidesteps the
  // degree-bias modeling an absolute envelope would need.  4 SE, same
  // as the sharded suite's unbiasedness envelope: this is a fixed-seed
  // regression run once per CI job across nine families, so the bound
  // must hold the whole family sweep, not one draw.
  DensityConfig cfg;
  cfg.num_agents = 40;
  cfg.rounds = 60;
  constexpr std::uint32_t kTrials = 32;
  for (const FamilyCase& fam : nine_families()) {
    SCOPED_TRACE(fam.label);
    stats::Accumulator vec;
    for (const double m :
         trial_means(collect_all_agent_estimates(fam.topo, cfg, kSeed,
                                                 kTrials, 2, VectorExec{}),
                     cfg.num_agents)) {
      vec.add(m);
    }
    stats::Accumulator single;
    for (const double m :
         trial_means(collect_all_agent_estimates(fam.topo, cfg, kSeed,
                                                 kTrials, 2),
                     cfg.num_agents)) {
      single.add(m);
    }
    ASSERT_EQ(vec.count(), kTrials);
    ASSERT_EQ(single.count(), kTrials);
    const double se = std::sqrt(vec.standard_error() * vec.standard_error() +
                                single.standard_error() *
                                    single.standard_error());
    EXPECT_NEAR(vec.mean(), single.mean(), 4.0 * se + 1e-12)
        << fam.label << ": vector " << vec.mean() << " vs single "
        << single.mean();
  }
}

TEST(VectorStatistics, UnbiasedWithinEnvelopeOnRegularFamilies) {
  // Absolute Theorem-1 unbiasedness (E[c/t] = d) on the regular
  // families, same 4-SE envelope as the sharded-engine regression.
  DensityConfig cfg;
  cfg.num_agents = 50;
  cfg.rounds = 80;
  const graph::Torus2D torus(16, 16);
  const double d = 49.0 / 256.0;
  stats::Accumulator acc;
  for (std::uint64_t trial = 0; trial < 120; ++trial) {
    const DensityResult r = run_density_walk_vector(torus, cfg, 900 + trial);
    for (const double e : r.estimates()) {
      acc.add(e);
    }
  }
  EXPECT_NEAR(acc.mean(), d, 4.0 * acc.standard_error() + 1e-12);
}

TEST(VectorStatistics, Theorem1EnvelopeAtPlannedRounds) {
  // Run the paper's (eps, delta) plan on the vector engine: the
  // fraction of estimates within eps*d must clear 1 - delta with slack
  // for Monte Carlo error.
  const graph::Torus2D torus(16, 16);
  constexpr std::uint32_t kAgents = 50;
  const double d = 49.0 / 256.0;
  const double eps = 0.5;
  const double delta = 0.2;
  DensityConfig cfg;
  cfg.num_agents = kAgents;
  cfg.rounds = core::plan_rounds(eps, delta, d, torus.num_nodes());
  std::uint64_t within = 0;
  std::uint64_t total = 0;
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    const DensityResult r = run_density_walk_vector(torus, cfg, 70 + trial);
    for (const double e : r.estimates()) {
      ++total;
      if (std::fabs(e - d) <= eps * d) {
        ++within;
      }
    }
  }
  const double frac = static_cast<double>(within) / static_cast<double>(total);
  EXPECT_GE(frac, 1.0 - delta) << "within-eps fraction " << frac;
}

// --- Scenario facade --------------------------------------------------

TEST(VectorExperiment, AllWorkloadsAllFamiliesThreadInvariant) {
  // engine=vector through the scenario facade: artifacts byte-identical
  // for threads in {1, 4} on every family x workload cell (threads fan
  // out trials only; the walk stream never depends on them).
  const char* topologies[] = {"torus2d:12x12",
                              "ring:200",
                              "hypercube:8",
                              "toruskd:3x6",
                              "complete:128",
                              "expander:d=8,n=128,seed=7",
                              "rgg2d:n=1024,r=0.06,seed=7",
                              "gnp:n=400,p=0.03,seed=7",
                              "ba:n=400,d=4,seed=7"};
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
      spec.engine = scenario::EngineMode::kVector;
      spec.agents = 24;
      spec.rounds = 20;
      spec.checkpoints = 4;
      const bool pooled = workload == scenario::Workload::kDensity ||
                          workload == scenario::Workload::kProperty;
      spec.trials = pooled ? 2 : 1;
      std::string reference;
      for (const unsigned threads : {1u, 4u}) {
        spec.threads = threads;
        scenario::ScenarioResult result = scenario::Experiment(spec).run();
        result.elapsed_seconds = 0.0;
        result.elapsed_ns = 0;
        scenario::ScenarioSpec canonical = result.spec;
        canonical.threads = 1;
        result.spec = canonical;
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
