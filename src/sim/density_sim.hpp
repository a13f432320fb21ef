// The synchronous multi-agent random-walk drivers (the paper's model,
// Section 2): N anonymous agents on a regular topology, one step per
// round, collision counting through count(position) at the end of each
// round.
//
// One engine seam: a sim::Exec value names the engine that runs a walk
// — the single stream, the per-shard streams or the wide-lane vector
// stream (sim/vector_walk.hpp), all on the shard loop
// (sim/sharded_walk.hpp) — and sim::run_walk visits it once per walk.
// Every driver takes an Exec: run_density_walk is the seam plus a
// CollisionObserver, run_property_walk the seam plus a
// PropertyObserver.  Each engine has its own stream identity; within
// one, results never depend on the execution knobs except
// ShardExec::shard_size.
//
// The drivers also implement the perturbations Section 6.1 proposes for
// robustness studies (they are *off* by default, matching the paper's
// model exactly):
//   - lazy_probability: agent stays put with probability p each round;
//   - detection_miss_probability: each colliding partner goes undetected
//     independently with probability p (sampled as one binomial draw per
//     agent);
//   - spurious_collision_probability: a phantom collision is recorded
//     with probability p per round;
//   - caller-supplied initial positions (non-uniform placement).
//
// Determinism contract: for a fixed seed, single-engine results are
// bit-identical to the pre-engine loops (frozen in
// sim/legacy_reference.hpp) in every mode except
// detection_miss_probability > 0, whose stream was re-goldened when the
// per-partner Bernoulli loop became a binomial draw.
// tests/test_walk_engine.cpp pins both sides of this contract.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981); full
// concept-to-header map in docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "graph/topology.hpp"
#include "obs/telemetry.hpp"
#include "rng/random.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "rng/xoshiro_wide.hpp"
#include "sim/sharded_walk.hpp"
#include "sim/vector_walk.hpp"
#include "sim/walk_engine.hpp"
#include "util/check.hpp"

namespace antdense::sim {

/// The historical single-stream engine: the shard loop over one shard
/// on the stream seed itself, on the caller's thread.  No knobs.
struct SingleExec {};

/// Which engine runs a walk, with that engine's execution knobs.
using Exec = std::variant<SingleExec, ShardExec, VectorExec>;

/// The engine seam: runs the walk on the shard loop with `exec`'s
/// streams and the same observer pack.  `stream_seed` seeds the engine
/// directly (drivers derive their own stream tag first).  Each engine is
/// deterministic in its inputs; see sim/sharded_walk.hpp for the stream
/// contracts.
template <graph::Topology T, class... Obs>
  requires(WalkObserver<Obs, typename T::node_type> && ...)
void run_walk(const T& topo, const WalkConfig& cfg, std::uint64_t stream_seed,
              const Exec& exec,
              const std::vector<typename T::node_type>* initial_positions,
              Obs&... observers) {
  if (const auto* shard = std::get_if<ShardExec>(&exec)) {
    run_walk_sharded(topo, cfg, stream_seed, *shard, initial_positions,
                     observers...);
    return;
  }
  // engine=single and engine=vector: one shard holding every agent, on
  // the caller's thread.
  cfg.validate();
  const auto run_one_shard = [&]<typename Gen>(const char* engine, Gen gen,
                                               rng::Xoshiro256pp* view_gen) {
    obs::EngineTap tap(engine, {"step", "count", "observe", "mutate"});
    with_occupancy_counter(
        topo.num_nodes(), cfg.num_agents, [&](auto& counter) {
          detail::run_shard_loop(
              topo, cfg, stream_seed,
              ShardPlan::make(cfg.num_agents, cfg.num_agents),
              std::vector<Gen>{gen}, view_gen, tap,
              detail::kSinglePhases, initial_positions, counter,
              observers...);
        });
  };
  if (std::holds_alternative<VectorExec>(exec)) {
    rng::Xoshiro256pp obs_gen(
        rng::derive_seed(stream_seed, kVectorObserverTag));
    run_one_shard("vector", rng::WideStream(stream_seed), &obs_gen);
  } else {
    run_one_shard("single", rng::Xoshiro256pp(stream_seed), nullptr);
  }
}

struct DensityConfig {
  std::uint32_t num_agents = 0;
  std::uint32_t rounds = 0;
  double lazy_probability = 0.0;
  double detection_miss_probability = 0.0;
  double spurious_collision_probability = 0.0;
  /// An agent's whole observation is lost w.p. p per round (the round
  /// still divides the estimate) — see CollisionObserver::Noise.
  double observation_dropout_probability = 0.0;

  void validate() const {
    ANTDENSE_CHECK(num_agents >= 1, "need at least one agent");
    ANTDENSE_CHECK(rounds >= 1, "need at least one round");
    ANTDENSE_CHECK(lazy_probability >= 0.0 && lazy_probability < 1.0,
                   "lazy probability must be in [0,1)");
    ANTDENSE_CHECK(detection_miss_probability >= 0.0 &&
                       detection_miss_probability <= 1.0,
                   "miss probability must be in [0,1]");
    ANTDENSE_CHECK(spurious_collision_probability >= 0.0 &&
                       spurious_collision_probability <= 1.0,
                   "spurious probability must be in [0,1]");
    ANTDENSE_CHECK(observation_dropout_probability >= 0.0 &&
                       observation_dropout_probability <= 1.0,
                   "dropout probability must be in [0,1]");
  }

  /// The sensing slice of this config, for the CollisionObserver.
  CollisionObserver::Noise noise() const {
    return {.detection_miss = detection_miss_probability,
            .spurious = spurious_collision_probability,
            .dropout = observation_dropout_probability};
  }

  /// The movement-only slice of this config, for the walk engine.
  WalkConfig walk_config() const {
    WalkConfig cfg;
    cfg.num_agents = num_agents;
    cfg.rounds = rounds;
    cfg.lazy_probability = lazy_probability;
    return cfg;
  }
};

struct DensityResult {
  std::vector<std::uint64_t> collision_counts;  // per agent, summed rounds
  std::uint32_t rounds = 0;
  std::uint64_t num_nodes = 0;

  /// The paper's density d = n/A where n is the number of *other* agents.
  double true_density() const {
    return static_cast<double>(collision_counts.size() - 1) /
           static_cast<double>(num_nodes);
  }

  /// Per-agent estimates d~ = c / t (Algorithm 1's return value).
  std::vector<double> estimates() const {
    std::vector<double> out;
    out.reserve(collision_counts.size());
    for (std::uint64_t c : collision_counts) {
      out.push_back(static_cast<double>(c) / rounds);
    }
    return out;
  }
};

/// Runs Algorithm 1 for every agent simultaneously on `exec`'s engine
/// and returns all per-agent collision counts.  If `initial_positions`
/// is non-null it must hold num_agents nodes (used by the
/// non-uniform-placement experiments); otherwise agents start i.i.d.
/// uniform, as the paper assumes.  Deterministic in `seed`.
template <graph::Topology T>
DensityResult run_density_walk(
    const T& topo, const DensityConfig& cfg, std::uint64_t seed,
    const Exec& exec = SingleExec{},
    const std::vector<typename T::node_type>* initial_positions = nullptr) {
  cfg.validate();
  CollisionObserver observer(cfg.num_agents, cfg.noise());
  run_walk(topo, cfg.walk_config(), rng::derive_seed(seed, 0x51u), exec,
           initial_positions, observer);

  DensityResult result;
  result.collision_counts = observer.take_counts();
  result.rounds = cfg.rounds;
  result.num_nodes = topo.num_nodes();
  return result;
}

/// run_density_walk on a named engine, for callers that pick the engine
/// by function name (the perfbench probes among them).
template <graph::Topology T>
DensityResult run_density_walk_sharded(const T& topo, const DensityConfig& cfg,
                                       std::uint64_t seed,
                                       const ShardExec& exec) {
  return run_density_walk(topo, cfg, seed, exec);
}

template <graph::Topology T>
DensityResult run_density_walk_vector(const T& topo, const DensityConfig& cfg,
                                      std::uint64_t seed) {
  return run_density_walk(topo, cfg, seed, VectorExec{});
}

struct PropertyResult {
  std::vector<std::uint64_t> total_counts;     // collisions with anyone
  std::vector<std::uint64_t> property_counts;  // collisions with P-agents
  std::uint32_t rounds = 0;
  std::uint64_t num_nodes = 0;
};

/// Section 5.2's carriers: `num_property` of the `num_agents` agents,
/// uniformly without replacement, from `seed`'s tag-0xF00D stream.
inline std::vector<bool> draw_property_carriers(std::uint32_t num_agents,
                                                std::uint32_t num_property,
                                                std::uint64_t seed) {
  rng::Xoshiro256pp gen(rng::derive_seed(seed, 0xF00Du));
  std::vector<bool> has_property(num_agents, false);
  for (const std::uint64_t idx :
       rng::sample_without_replacement(gen, num_agents, num_property)) {
    has_property[idx] = true;
  }
  return has_property;
}

/// Two-class variant for Section 5.2: agents additionally detect whether
/// a colliding partner carries property P, tracking both encounter
/// counters simultaneously (one walk, two rates).  Honors
/// cfg.lazy_probability (the pre-engine loop silently ignored it); the
/// sensing-noise probabilities still apply only to run_density_walk.
template <graph::Topology T>
PropertyResult run_property_walk(const T& topo, const DensityConfig& cfg,
                                 const std::vector<bool>& has_property,
                                 std::uint64_t seed,
                                 const Exec& exec = SingleExec{}) {
  cfg.validate();
  ANTDENSE_CHECK(has_property.size() == cfg.num_agents,
                 "property flags must match agent count");
  PropertyObserver observer(has_property, topo.num_nodes());
  run_walk(topo, cfg.walk_config(), rng::derive_seed(seed, 0x52u), exec,
           static_cast<const std::vector<typename T::node_type>*>(nullptr),
           observer);

  PropertyResult result;
  result.total_counts = observer.take_total_counts();
  result.property_counts = observer.take_property_counts();
  result.rounds = cfg.rounds;
  result.num_nodes = topo.num_nodes();
  return result;
}

}  // namespace antdense::sim
