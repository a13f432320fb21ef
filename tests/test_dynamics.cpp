// The dynamics layer, unit level: TimeVaryingWorld overlay semantics,
// the three built-in WorldDynamics models, DynamicsRegistry parsing /
// canonicalization / diagnostics, the redesigned sensing sub-object
// (both JSON spellings), and the identity rules — pinned hashes prove
// dynamics-absent specs keep their historical identity_hash and that
// spelling variants of one dynamic spec collapse to one hash.
#include "sim/dynamic_world.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/any_topology.hpp"
#include "graph/time_varying.hpp"
#include "rng/random.hpp"
#include "rng/stream.hpp"
#include "rng/xoshiro256pp.hpp"
#include "scenario/dynamics_registry.hpp"
#include "scenario/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/density_sim.hpp"
#include "sim/vector_walk.hpp"
#include "sim/walk_engine.hpp"
#include "util/json.hpp"

namespace antdense {
namespace {

using scenario::DynamicsRegistry;
using scenario::EngineMode;
using scenario::Registry;
using scenario::ScenarioSpec;
using scenario::SensingSpec;
using scenario::Workload;

// ---------------------------------------------------------------------
// TimeVaryingWorld
// ---------------------------------------------------------------------

TEST(TimeVaryingWorld, TracksFailuresAndDownEdges) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:8");
  graph::TimeVaryingWorld world(topo);

  EXPECT_EQ(world.num_failed_nodes(), 0u);
  EXPECT_EQ(world.num_down_edges(), 0u);
  EXPECT_TRUE(world.move_allowed(0, 1));

  EXPECT_TRUE(world.fail_node(3));
  EXPECT_FALSE(world.fail_node(3)) << "already failed";
  EXPECT_TRUE(world.node_failed(3));
  EXPECT_FALSE(world.node_failed(4));
  EXPECT_FALSE(world.move_allowed(2, 3));
  EXPECT_TRUE(world.move_allowed(3, 3)) << "staying put is always allowed";

  EXPECT_TRUE(world.drop_edge(5, 6));
  EXPECT_FALSE(world.drop_edge(6, 5)) << "undirected: same edge";
  EXPECT_TRUE(world.edge_down(5, 6));
  EXPECT_TRUE(world.edge_down(6, 5));
  EXPECT_FALSE(world.edge_down(6, 7));
  EXPECT_FALSE(world.move_allowed(5, 6));
  EXPECT_TRUE(world.move_allowed(6, 7));
}

TEST(TimeVaryingWorld, DeflectPicksSmallestAdmissibleNeighbor) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:8");
  graph::TimeVaryingWorld world(topo);
  std::vector<std::uint64_t> scratch;

  // Ring neighbors of 4 are {3, 5}; unperturbed, deflect picks 3.
  EXPECT_EQ(world.deflect(4, scratch), 3u);
  world.fail_node(3);
  EXPECT_EQ(world.deflect(4, scratch), 5u);
  world.drop_edge(4, 5);
  EXPECT_EQ(world.deflect(4, scratch), 4u) << "every neighbor blocked";
}

TEST(TimeVaryingWorld, RecoverSweepsWithProbabilityOne) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:16");
  graph::TimeVaryingWorld world(topo);
  world.fail_node(1);
  world.fail_node(9);
  world.drop_edge(2, 3);
  rng::Xoshiro256pp gen(7);
  world.recover(0.0, gen);
  EXPECT_EQ(world.num_failed_nodes(), 2u);
  EXPECT_EQ(world.num_down_edges(), 1u);
  world.recover(1.0, gen);
  EXPECT_EQ(world.num_failed_nodes(), 0u);
  EXPECT_EQ(world.num_down_edges(), 0u);
}

/// The overlay's contract written with std::set membership: insertion-
/// ordered vectors, swap-and-pop recovery, one Bernoulli per element.
struct ReferenceWorld {
  using EdgeKey = graph::TimeVaryingWorld::EdgeKey;

  const graph::AnyTopology* topo;
  std::vector<std::uint64_t> failed_order;
  std::set<std::uint64_t> failed;
  std::vector<EdgeKey> down_order;
  std::set<EdgeKey> down;

  static EdgeKey edge(std::uint64_t a, std::uint64_t b) {
    return {std::min(a, b), std::max(a, b)};
  }
  bool fail_node(std::uint64_t u) {
    const std::uint64_t key = topo->key(u);
    if (!failed.insert(key).second) {
      return false;
    }
    failed_order.push_back(key);
    return true;
  }
  bool drop_edge(std::uint64_t u, std::uint64_t v) {
    const EdgeKey key = edge(topo->key(u), topo->key(v));
    if (!down.insert(key).second) {
      return false;
    }
    down_order.push_back(key);
    return true;
  }
  template <class T, class Set>
  static void sweep(std::vector<T>& order, Set& members, double p,
                    rng::Xoshiro256pp& gen) {
    std::vector<std::size_t> recovered;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (rng::bernoulli(gen, p)) {
        recovered.push_back(i);
      }
    }
    for (std::size_t r = recovered.size(); r-- > 0;) {
      members.erase(order[recovered[r]]);
      order[recovered[r]] = order.back();
      order.pop_back();
    }
  }
  void recover(double p, rng::Xoshiro256pp& gen) {
    if (p == 0.0) {
      return;
    }
    sweep(failed_order, failed, p, gen);
    sweep(down_order, down, p, gen);
  }
  bool node_failed(std::uint64_t key) const { return failed.count(key) != 0; }
  bool edge_down(std::uint64_t a, std::uint64_t b) const {
    return down.count(edge(a, b)) != 0;
  }
  std::uint64_t deflect(std::uint64_t from) const {
    const std::uint64_t from_key = topo->key(from);
    std::vector<std::uint64_t> nbrs;
    topo->append_neighbors(from, nbrs);
    std::uint64_t best = from;
    std::uint64_t best_key = ~std::uint64_t{0};
    for (const std::uint64_t w : nbrs) {
      const std::uint64_t w_key = topo->key(w);
      if (w_key != from_key && !node_failed(w_key) &&
          !edge_down(from_key, w_key) && w_key < best_key) {
        best = w;
        best_key = w_key;
      }
    }
    return best;
  }
};

TEST(TimeVaryingWorld, MatchesASetReferenceThroughGrowthAndDrain) {
  // 144 nodes and 288 edges: the state reaches hundreds of elements, so
  // both indexes and the prefilter resize several times, then drains.
  const graph::AnyTopology topo = Registry::built_in().make("torus2d:12x12");
  graph::TimeVaryingWorld world(topo);
  ReferenceWorld ref{&topo, {}, {}, {}, {}};
  rng::Xoshiro256pp ops(2024);
  rng::Xoshiro256pp gen(77);
  rng::Xoshiro256pp ref_gen(77);
  std::vector<std::uint64_t> scratch;
  std::vector<std::uint64_t> nbrs;
  std::size_t peak = 0;

  // Every node handle (handles are packed encodings, not 0..n-1): a
  // breadth-first sweep of the connected torus.
  std::vector<std::uint64_t> nodes{topo.random_node(ops)};
  std::set<std::uint64_t> seen{nodes[0]};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nbrs.clear();
    topo.append_neighbors(nodes[i], nbrs);
    for (const std::uint64_t v : nbrs) {
      if (seen.insert(v).second) {
        nodes.push_back(v);
      }
    }
  }
  ASSERT_EQ(nodes.size(), topo.num_nodes());
  bool drained = false;

  constexpr int kCalls = 12000;
  constexpr int kGrowCalls = 7000;
  for (int call = 0; call < kCalls; ++call) {
    const bool growing = call < kGrowCalls;
    const double roll = rng::uniform_unit(ops);
    const double insert_share = growing ? 0.9 : 0.3;
    std::string what;
    if (roll < insert_share / 2) {
      const std::uint64_t u = topo.random_node(ops);
      what = "fail_node(" + std::to_string(u) + ")";
      EXPECT_EQ(world.fail_node(u), ref.fail_node(u)) << what;
    } else if (roll < insert_share) {
      const std::uint64_t u = topo.random_node(ops);
      nbrs.clear();
      topo.append_neighbors(u, nbrs);
      const std::uint64_t v = nbrs[rng::uniform_below(ops, nbrs.size())];
      what = "drop_edge(" + std::to_string(u) + "," + std::to_string(v) + ")";
      EXPECT_EQ(world.drop_edge(u, v), ref.drop_edge(u, v)) << what;
    } else {
      const double p = growing ? 0.005 : 0.15;
      what = "recover(" + std::to_string(p) + ")";
      world.recover(p, gen);
      ref.recover(p, ref_gen);
      ASSERT_EQ(gen(), ref_gen()) << what << " drew a different stream";
    }
    ASSERT_EQ(world.num_failed_nodes(), ref.failed.size()) << what;
    ASSERT_EQ(world.num_down_edges(), ref.down.size()) << what;
    const std::size_t state = ref.failed.size() + ref.down.size();
    peak = std::max(peak, state);
    drained = drained || (!growing && state == 0);

    for (const std::uint64_t u : nodes) {
      const std::uint64_t u_key = topo.key(u);
      ASSERT_EQ(world.node_failed(u_key), ref.node_failed(u_key))
          << "node " << u << " after call " << call << " " << what;
      ASSERT_EQ(world.deflect(u, scratch), ref.deflect(u))
          << "node " << u << " after call " << call << " " << what;
      nbrs.clear();
      topo.append_neighbors(u, nbrs);
      for (const std::uint64_t v : nbrs) {
        const std::uint64_t v_key = topo.key(v);
        ASSERT_EQ(world.edge_down(u_key, v_key), ref.edge_down(u_key, v_key))
            << "edge " << u << "-" << v << " after call " << call << " "
            << what;
        ASSERT_EQ(world.move_allowed(u_key, v_key),
                  !ref.node_failed(v_key) && !ref.edge_down(u_key, v_key))
            << "move " << u << "->" << v << " after call " << call << " "
            << what;
      }
    }
  }
  EXPECT_GE(peak, 300u) << "the sequence must grow the state far enough "
                           "to resize the indexes and the prefilter";
  EXPECT_TRUE(drained) << "the sequence must drain the state to empty";

  world.recover(1.0, gen);
  EXPECT_EQ(world.num_failed_nodes(), 0u);
  EXPECT_EQ(world.num_down_edges(), 0u);
  for (const std::uint64_t u : nodes) {
    EXPECT_FALSE(world.node_failed(topo.key(u)));
    EXPECT_FALSE(world.may_block(topo.key(u)))
        << "an empty overlay's prefilter must be clear";
  }
}

// ---------------------------------------------------------------------
// WorldDynamics models
// ---------------------------------------------------------------------

/// One mutation tick as the engines run it: with the keys of `pos`.
void tick(sim::WorldDynamics& model, const graph::AnyTopology& topo,
          std::uint32_t round, rng::Xoshiro256pp& gen,
          std::vector<std::uint64_t>& pos) {
  std::vector<std::uint64_t> keys(pos.size());
  topo.keys(pos, keys);
  model.mutate(round, gen, std::span<std::uint64_t>(pos), keys);
}

TEST(ChurnDynamics, ZeroRatesConsumeNoRandomnessAndRewriteNothing) {
  const graph::AnyTopology topo = Registry::built_in().make("torus2d:8x8");
  sim::ChurnDynamics model(topo, 0.0, 0.0, 10, 5);
  EXPECT_FALSE(model.rewrites_moves());

  std::vector<std::uint64_t> pos(6, 0);
  rng::Xoshiro256pp mut_gen(99);
  tick(model, topo, 2, mut_gen, pos);
  rng::Xoshiro256pp fresh(99);
  EXPECT_EQ(mut_gen(), fresh())
      << "a churn tick with p_edge=p_fail=0 and nothing down must not "
         "touch the mutation stream";
  EXPECT_EQ(model.world().num_failed_nodes(), 0u);
}

TEST(ChurnDynamics, EvictsWalkersFromFailedNodes) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:8");
  // p_fail=1 with a huge mean_down: every tick fails Binomial(8, 1) = 8
  // node draws (with repeats), so failures accumulate fast.
  sim::ChurnDynamics model(topo, 0.0, 1.0, 1000000, 3);
  std::vector<std::uint64_t> pos = {0, 1, 2, 3, 4, 5};
  rng::Xoshiro256pp mut_gen(rng::derive_mutation_stream(11, 3));
  tick(model, topo, 2, mut_gen, pos);
  EXPECT_GT(model.world().num_failed_nodes(), 0u);
  std::vector<std::uint64_t> scratch;
  for (const std::uint64_t p : pos) {
    EXPECT_FALSE(model.world().node_failed(topo.key(p)) &&
                 model.world().deflect(p, scratch) != p)
        << "no walker may remain on a failed node that has an "
           "admissible neighbor";
  }
}

TEST(ChurnDynamics, RewriteMovesBlocksDownEdgesAndDeflectsIntoFailures) {
  // The rewrite contract on a hand-built world: a move across a down
  // edge is vetoed, a move onto a failed node deflects.
  const graph::AnyTopology topo = Registry::built_in().make("ring:8");
  graph::TimeVaryingWorld world(topo);
  world.drop_edge(1, 2);
  world.fail_node(5);

  std::vector<std::uint64_t> scratch;
  EXPECT_FALSE(world.move_allowed(1, 2));
  EXPECT_FALSE(world.move_allowed(4, 5));
  EXPECT_EQ(world.deflect(4, scratch), 3u);
}

TEST(DriftDynamics, KillsAndRevivesPopulationsAtExtremeRates) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:32");
  sim::DriftDynamics model(topo, 8, /*p_death=*/1.0, /*p_birth=*/0.0, 1);
  std::vector<std::uint64_t> pos(8, 0);
  rng::Xoshiro256pp mut_gen(4);
  tick(model, topo, 2, mut_gen, pos);
  for (std::uint32_t slot = 0; slot < 8; ++slot) {
    EXPECT_EQ(model.count_mask()[slot], 0);
  }

  sim::DriftDynamics cycle(topo, 4, /*p_death=*/1.0, /*p_birth=*/1.0, 1);
  std::vector<std::uint64_t> pos4(4, 0);
  tick(cycle, topo, 2, mut_gen, pos4);  // all die
  tick(cycle, topo, 3, mut_gen, pos4);  // all reborn
  for (std::uint32_t slot = 0; slot < 4; ++slot) {
    EXPECT_EQ(cycle.count_mask()[slot], 1);
    EXPECT_EQ(cycle.birth_rounds()[slot], 3u)
        << "a reborn slot restarts its estimate at its birth round";
  }
}

TEST(DriftDynamics, CollisionObserverDropsTheDeadAndRestartsTheReborn) {
  // The observer driven by hand, round by round, with the engine's
  // masked counting: only live slots occupy the counter.
  const graph::AnyTopology topo = Registry::built_in().make("ring:32");
  rng::Xoshiro256pp gen(9);
  const auto observe_round = [&](sim::CollisionObserver& observer,
                                 const sim::DriftDynamics& drift,
                                 std::uint32_t round,
                                 const std::vector<std::uint64_t>& keys) {
    const auto n = static_cast<std::uint32_t>(keys.size());
    sim::CollisionCounter counter(n);
    counter.begin_round();
    for (std::uint32_t i = 0; i < n; ++i) {
      if (drift.count_mask()[i] != 0) {
        counter.add(keys[i]);
      }
    }
    observer.after_round(sim::RoundView{round, 0, n, n, keys, counter, gen});
  };

  // Every slot dies after round 1 and is reborn at round 3.
  sim::DriftDynamics cycle(topo, 3, /*p_death=*/1.0, /*p_birth=*/1.0, 1);
  sim::CollisionObserver observer(3, {}, &cycle);
  std::vector<std::uint64_t> pos(3, 0);
  observe_round(observer, cycle, 1, {7, 7, 7});
  EXPECT_EQ(observer.counts(), (std::vector<std::uint64_t>{2, 2, 2}));
  tick(cycle, topo, 2, gen, pos);
  observe_round(observer, cycle, 2, {7, 7, 7});
  EXPECT_EQ(observer.counts(), (std::vector<std::uint64_t>{2, 2, 2}))
      << "dead slots observe nothing";
  EXPECT_TRUE(observer.estimates(2).empty()) << "dead slots are left out";
  tick(cycle, topo, 3, gen, pos);
  observe_round(observer, cycle, 3, {1, 2, 3});
  EXPECT_EQ(observer.counts(), (std::vector<std::uint64_t>{0, 0, 0}))
      << "a reborn slot's count restarts at its birth round";
  observe_round(observer, cycle, 4, {5, 5, 6});
  EXPECT_EQ(observer.estimates(4), (std::vector<double>{0.5, 0.5, 0.0}))
      << "estimates divide by the rounds observed since birth";

  // Some slots die, the rest keep observing: one estimate per live slot.
  sim::DriftDynamics half(topo, 8, /*p_death=*/0.5, /*p_birth=*/0.0, 3);
  sim::CollisionObserver partial(8, {}, &half);
  const std::vector<std::uint64_t> together(8, 4);
  std::vector<std::uint64_t> pos8(8, 0);
  observe_round(partial, half, 1, together);
  tick(half, topo, 2, gen, pos8);
  observe_round(partial, half, 2, together);
  std::uint64_t live = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    live += half.count_mask()[i];
  }
  ASSERT_GT(live, 0u);
  ASSERT_LT(live, 8u);
  // Round 1: seven partners each; round 2: the other live slots.
  const double expected = (7.0 + static_cast<double>(live - 1)) / 2.0;
  EXPECT_EQ(partial.estimates(2), std::vector<double>(live, expected));
}

TEST(FadeDynamics, MissWalkStaysInUnitIntervalAndGatesObservations) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:32");
  sim::FadeDynamics model(16, /*p0=*/0.9, /*step=*/0.3, 2);
  std::vector<std::uint64_t> pos(16, 0);
  rng::Xoshiro256pp mut_gen(8);
  for (std::uint32_t r = 2; r < 40; ++r) {
    tick(model, topo, r, mut_gen, pos);
    for (const double p : model.miss_probabilities()) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }

  sim::FadeDynamics blind(2, /*p0=*/1.0, /*step=*/0.0, 0);
  EXPECT_TRUE(blind.transforms_observations());
  rng::Xoshiro256pp gen(1);
  EXPECT_EQ(blind.observe(0, 17, gen), 0u) << "miss=1 drops every partner";
  sim::FadeDynamics sharp(2, /*p0=*/0.0, /*step=*/0.0, 0);
  rng::Xoshiro256pp gen2(1);
  EXPECT_EQ(sharp.observe(0, 17, gen2), 17u);
  EXPECT_EQ(gen2(), rng::Xoshiro256pp(1)())
      << "miss=0 must not consume observation randomness";
}

// ---------------------------------------------------------------------
// DynamicsRegistry
// ---------------------------------------------------------------------

TEST(DynamicsRegistry, ListsBuiltInModelsWithGrammar) {
  const DynamicsRegistry& reg = DynamicsRegistry::built_in();
  const std::vector<std::string> names = reg.family_names();
  EXPECT_EQ(names, (std::vector<std::string>{"churn", "drift", "fade"}));
  for (const std::string& name : names) {
    EXPECT_TRUE(reg.has_family(name));
    EXPECT_FALSE(reg.grammar(name).empty());
    EXPECT_EQ(reg.grammar(name).rfind(name + ":", 0), 0u)
        << "grammar lines lead with the canonical spec prefix";
  }
}

TEST(DynamicsRegistry, CanonicalIsOrderFreeExplicitAndIdempotent) {
  const DynamicsRegistry& reg = DynamicsRegistry::built_in();
  const std::string canon = reg.canonical("churn:p_fail=0.5,p_edge=0.25");
  EXPECT_EQ(canon, "churn:p_edge=0.25,p_fail=0.5,mean_down=10,seed=0");
  EXPECT_EQ(reg.canonical(canon), canon) << "canonical is idempotent";
  EXPECT_EQ(reg.canonical("drift:p_death=0.01,p_birth=0.02"),
            "drift:p_death=0.01,p_birth=0.02,seed=0");
  EXPECT_EQ(reg.canonical("fade:p0=0.1,step=0.02,seed=9"),
            "fade:p0=0.1,step=0.02,seed=9");
}

TEST(DynamicsRegistry, MakeBuildsModelsWhoseNameIsTheCanonicalSpec) {
  const DynamicsRegistry& reg = DynamicsRegistry::built_in();
  const graph::AnyTopology topo = Registry::built_in().make("torus2d:8x8");
  for (const char* spec :
       {"churn:p_edge=0.01,p_fail=0.005", "drift:p_death=0.1,p_birth=0.1",
        "fade:p0=0.2,step=0.05"}) {
    const auto model = reg.make(spec, topo, 16);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), reg.canonical(spec))
        << "a built model re-spells its own canonical spec";
  }
}

TEST(DynamicsRegistry, DiagnosticsNameTheModelAndTheOffendingKeyValue) {
  const DynamicsRegistry& reg = DynamicsRegistry::built_in();
  const auto expect_message = [&](const std::string& spec,
                                  const std::string& fragment) {
    try {
      reg.canonical(spec);
      FAIL() << "expected '" << spec << "' to be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << "message '" << e.what() << "' must contain '" << fragment
          << "'";
    }
  };
  expect_message("quake:p=1", "unknown dynamics model 'quake'");
  expect_message("quake:p=1", "churn, drift, fade");
  expect_message("churn", "model:params");
  expect_message("churn:p_edge=0.1", "missing required parameter 'p_fail'");
  expect_message("churn:p_edge=0.1,p_fail=0.1,warp=2",
                 "unknown parameter 'warp=2'");
  expect_message("churn:p_edge=oops,p_fail=0",
                 "parameter 'p_edge=oops': expected a real number");
  expect_message("churn:p_edge=2,p_fail=0",
                 "parameter 'p_edge=2': must be in [0,1]");
  expect_message("churn:p_edge=0,p_fail=0,mean_down=0",
                 "parameter 'mean_down=0'");
  expect_message("drift:p_death=0.1", "missing required parameter");
  expect_message("fade:p0=1.5,step=0", "parameter 'p0=1.5'");
}

// ---------------------------------------------------------------------
// SensingSpec: both JSON spellings, one emission contract
// ---------------------------------------------------------------------

TEST(SensingSpec, FlatKeysAndVersionedObjectParseIdentically) {
  const ScenarioSpec flat = ScenarioSpec::from_json(util::JsonValue::parse(
      R"({"miss": 0.25, "spurious": 0.02, "dropout": 0.1})"));
  const ScenarioSpec structured =
      ScenarioSpec::from_json(util::JsonValue::parse(
          R"({"sensing": {"version": 1, "miss": 0.25, "spurious": 0.02,
              "dropout": 0.1}})"));
  EXPECT_EQ(flat.sensing.detection_miss, 0.25);
  EXPECT_EQ(flat.sensing.spurious, 0.02);
  EXPECT_EQ(flat.sensing.dropout, 0.1);
  EXPECT_EQ(structured.sensing.detection_miss, flat.sensing.detection_miss);
  EXPECT_EQ(structured.sensing.spurious, flat.sensing.spurious);
  EXPECT_EQ(structured.sensing.dropout, flat.sensing.dropout);
  EXPECT_TRUE(flat.sensing.any());
  EXPECT_FALSE(ScenarioSpec{}.sensing.any());
}

TEST(SensingSpec, RejectsUnknownKeysAndForeignVersions) {
  EXPECT_THROW(ScenarioSpec::from_json(util::JsonValue::parse(
                   R"({"sensing": {"version": 2, "miss": 0.1}})")),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json(util::JsonValue::parse(
                   R"({"sensing": {"mis": 0.1}})")),
               std::invalid_argument);
}

TEST(SensingSpec, EmissionIsIdentityStable) {
  // Dropout-free: the historical flat keys, byte for byte.
  ScenarioSpec spec;
  spec.sensing.detection_miss = 0.3;
  spec.sensing.spurious = 0.01;
  const util::JsonValue flat = spec.to_json();
  EXPECT_NE(flat.find("miss"), nullptr);
  EXPECT_NE(flat.find("spurious"), nullptr);
  EXPECT_EQ(flat.find("sensing"), nullptr);
  EXPECT_EQ(flat.find("dynamics"), nullptr);

  // Dropout set: the versioned object replaces the flat keys.
  spec.sensing.dropout = 0.05;
  const util::JsonValue structured = spec.to_json();
  EXPECT_EQ(structured.find("miss"), nullptr);
  EXPECT_EQ(structured.find("spurious"), nullptr);
  const util::JsonValue* sensing = structured.find("sensing");
  ASSERT_NE(sensing, nullptr);
  EXPECT_EQ(sensing->find("version")->as_uint(), SensingSpec::kVersion);
  EXPECT_EQ(sensing->find("dropout")->as_double(), 0.05);

  // Both shapes round-trip through from_json unchanged.
  const ScenarioSpec back = ScenarioSpec::from_json(structured);
  EXPECT_EQ(back.sensing.detection_miss, 0.3);
  EXPECT_EQ(back.sensing.dropout, 0.05);
}

// ---------------------------------------------------------------------
// Identity rules (hashes captured on the pre-dynamics build)
// ---------------------------------------------------------------------

TEST(Identity, DynamicsAbsentSpecsKeepTheirHistoricalHashes) {
  const Registry& reg = Registry::built_in();
  const auto hash_of = [&](const char* json) {
    return ScenarioSpec::from_json(util::JsonValue::parse(json))
        .identity_hash(reg);
  };
  EXPECT_EQ(hash_of(R"({"topology": "torus2d:32x32", "workload": "density",
                        "agents": 64, "rounds": 16, "seed": 1})"),
            "6b791ba8a22324ed");
  EXPECT_EQ(hash_of(R"({"topology": "torus2d:32x32", "workload": "density",
                        "agents": 64, "rounds": 16, "seed": 1,
                        "miss": 0.3, "spurious": 0.01})"),
            "852dd332fe5f235a");
  EXPECT_EQ(hash_of(R"({"topology": "ring:1024", "workload": "property",
                        "agents": 50, "rounds": 12,
                        "property-fraction": 0.25, "seed": 9,
                        "engine": "sharded", "threads": 8})"),
            "1ae6ba48666caa7a");
  EXPECT_EQ(hash_of(R"({"topology": "expander:n=512,d=8,seed=5",
                        "workload": "density", "agents": 100, "rounds": 0,
                        "eps": 0.2, "delta": 0.1, "engine": "vector",
                        "seed": 3, "lazy": 0.5})"),
            "11e6375517621ac0");
  EXPECT_EQ(hash_of(R"({"topology": "hypercube:10",
                        "workload": "trajectory", "tracked": 4,
                        "checkpoints": 5, "agents": 32, "rounds": 20,
                        "seed": 11})"),
            "6b50d01ab70dca71");
}

TEST(Identity, DynamicSpellingVariantsCollapseToOneHash) {
  const Registry& reg = Registry::built_in();
  ScenarioSpec a;
  a.dynamics = "churn:p_edge=0.01,p_fail=0.005";
  ScenarioSpec b;
  b.dynamics = "churn:p_fail=0.005,seed=0,p_edge=0.01,mean_down=10";
  EXPECT_EQ(a.identity_hash(reg), b.identity_hash(reg));
  ScenarioSpec c;
  EXPECT_NE(a.identity_hash(reg), c.identity_hash(reg))
      << "a dynamic spec must not collide with the static spec";
}

// ---------------------------------------------------------------------
// Fail-fast: the vector engine has no mutation phase
// ---------------------------------------------------------------------

TEST(Validation, VectorEngineRejectsDynamicsAtSpecValidationTime) {
  ScenarioSpec spec;
  spec.engine = EngineMode::kVector;
  spec.dynamics = "churn:p_edge=0.01,p_fail=0";
  try {
    spec.validate();
    FAIL() << "expected validate() to reject engine=vector + dynamics";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("engine=vector"), std::string::npos);
    EXPECT_NE(what.find("engine=single or engine=sharded"),
              std::string::npos);
  }
  spec.engine = EngineMode::kSharded;
  EXPECT_NO_THROW(spec.validate());
}

TEST(Validation, VectorWalkRejectsDynamicsAsDefenseInDepth) {
  const graph::AnyTopology topo = Registry::built_in().make("ring:64");
  sim::ChurnDynamics model(topo, 0.1, 0.0, 10, 1);
  sim::DensityConfig cfg;
  cfg.num_agents = 8;
  cfg.rounds = 4;
  sim::WalkConfig wcfg = cfg.walk_config();
  wcfg.dynamics = &model;
  sim::CollisionObserver observer(8);
  EXPECT_THROW(sim::run_walk_vector(topo, wcfg, 1, sim::VectorExec{},
                                    nullptr, observer),
               std::invalid_argument);
}

TEST(Validation, DynamicsRestrictedToDensityWorkload) {
  ScenarioSpec spec;
  spec.topology = "torus2d:16x16";
  spec.workload = Workload::kTrajectory;
  spec.agents = 8;
  spec.rounds = 8;
  spec.dynamics = "drift:p_death=0.1,p_birth=0.1";
  EXPECT_THROW(scenario::Experiment{spec}, std::invalid_argument);
}

TEST(Validation, ExperimentCanonicalizesTheDynamicsSpec) {
  ScenarioSpec spec;
  spec.topology = "torus2d:8x8";
  spec.agents = 8;
  spec.rounds = 4;
  spec.dynamics = "churn:p_fail=0,p_edge=0";
  const scenario::Experiment experiment(spec);
  EXPECT_EQ(experiment.spec().dynamics,
            "churn:p_edge=0,p_fail=0,mean_down=10,seed=0");
}

}  // namespace
}  // namespace antdense
