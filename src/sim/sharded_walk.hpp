// The shard round loop: the one implementation of Algorithm 1's
// synchronous round (Musco, Su & Lynch, PODC 2016, arXiv:1603.02981),
// behind all three engines — single, sharded and vector.  It runs on
// the caller's thread; walks run in parallel only as whole trials or
// experiments (sim::run_trials, the campaign scheduler, the daemon).
//
// Agent state (positions, keys, observer accumulators) lives in shared
// structure-of-arrays vectors split into contiguous shards (ShardPlan).
// Each shard owns a private generator, and randomness is keyed by the
// shard.  One round:
//   0. when a dynamics model is attached (sim/dynamics.hpp) and r >= 2:
//      the world mutates on its own domain-tagged stream — the shard
//      streams never change, so static configs stay bit-identical to
//      their goldens;
//   1. counter.begin_round(), then the observers' begin_round hooks;
//   2. step: every shard's agents step from the shard stream — the
//      batched topology API (graph::random_neighbors, same stream as
//      sequential calls, whichever generator the shard stream is), or
//      the per-agent Bernoulli/step loop for a lazy walk — and a
//      dynamics model rewrites blocked moves, block by block right after
//      each block steps.  Both paths read the walk's one graph::RowCache
//      (the lazy loop through graph::random_neighbor's single cached
//      step), so gnp and ba enumerate their rows once per walk, not once
//      per round, shard or lazy step;
//   3. count: the shard's keys are recomputed and the round's occupancy
//      counter is filled (masked by the model's alive slots), shard by
//      shard, in shard order, and each shard's fill hooks run
//      (auxiliary occupancy counting).  The counter is the one
//      with_occupancy_counter (sim/dense_counter.hpp) picks: the
//      direct-addressed byte-per-node DenseCollisionCounter, or the hash
//      CollisionCounter on sparse or huge substrates;
//   4. observe: after_round hooks read the now-complete occupancy and
//      write their own agents' slice, shard by shard — noise draws come
//      from the view generator: the shard stream, after the shard's step
//      draws, unless the entry point names a separate one;
//   5. end_round hooks take cross-shard snapshots.
// When the phase layout books step and count as one phase, each shard
// steps and counts before the next shard steps; otherwise every shard
// steps, then every shard counts, so the count phase is timed apart.
// Either way each shard makes the same draws in the same order.
//
// Three entry points fix the streams and telemetry layout:
//   - run_walk_sharded (engine=sharded): `shard_size`-agent shards on
//     rng::derive_stream(stream_seed, shard) generators; tap "sharded"
//     books steps 2–3 as one step_count phase (fill hooks included).
//   - sim::run_walk with SingleExec (engine=single, sim/density_sim.hpp):
//     one shard holding every agent, on Xoshiro256pp(stream_seed)
//     itself — the historical single-stream walk, draw for draw; tap
//     "single" books step, count (fill hooks included) and observe
//     apart.
//   - sim::run_walk with VectorExec (engine=vector, sim/vector_walk.hpp):
//     the same single shard on WideStream(stream_seed), with observer
//     noise on a generator of its own; tap "vector", laid out as single.
// All book the dynamics tick as mutate, and none books the
// begin_round/end_round hooks.
//
// Determinism contract: the output is a pure function of (stream_seed,
// WalkConfig, shard plan, shard streams): the shard decomposition and
// each shard's draw sequence are fixed, and occupancy is exact in every
// counter.  Observer slices are laid out in shard order within the
// shared arrays, so the "merge" is free.  tests/test_sharded_walk.cpp
// pins multi-shard engine=sharded result documents at the default grain
// and the dense and hash counters' agreement across every family and
// observer; tests/test_walk_engine.cpp pins engine=single against the
// frozen pre-engine loops, and tests/test_vector_walk.cpp pins the
// vector streams.
//
// The sharded stream is deliberately NOT the single engine's: even a
// one-shard sharded walk is seeded through derive_stream.  Pick per walk
// with a sim::Exec (sim/density_sim.hpp); per experiment via
// ScenarioSpec::engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/topology.hpp"
#include "obs/telemetry.hpp"
#include "rng/random.hpp"
#include "rng/stream.hpp"
#include "rng/xoshiro256pp.hpp"
#include "rng/xoshiro_wide.hpp"
#include "sim/dense_counter.hpp"
#include "sim/walk_engine.hpp"
#include "util/check.hpp"

namespace antdense::sim {

/// Deterministic decomposition of a population into contiguous shards.
/// The shard grain is part of the output contract (it decides which
/// stream steps which agent), so it is a parameter with a fixed default,
/// never a function of the machine.
struct ShardPlan {
  /// Default agents-per-shard: small enough that a shard's positions
  /// and keys stay cache-resident between its step and its count, large
  /// enough that per-shard overhead is noise.
  static constexpr std::uint32_t kDefaultShardSize = 4096;

  std::uint32_t num_agents = 0;
  std::uint32_t shard_size = kDefaultShardSize;

  static ShardPlan make(std::uint32_t num_agents,
                        std::uint32_t shard_size = kDefaultShardSize);

  std::uint32_t num_shards() const {
    return (num_agents + shard_size - 1) / shard_size;
  }
  std::uint32_t begin(std::uint32_t shard) const {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        num_agents, static_cast<std::uint64_t>(shard) * shard_size));
  }
  std::uint32_t end(std::uint32_t shard) const {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        num_agents, (static_cast<std::uint64_t>(shard) + 1) * shard_size));
  }
};

/// The sharded engine's entry in sim::Exec.  `shard_size` changes
/// results (it reassigns agents to streams).
struct ShardExec {
  /// Has no effect: every walk runs on the caller's thread.  Kept so
  /// existing callers that set it still compile.
  unsigned threads = 0;
  std::uint32_t shard_size = ShardPlan::kDefaultShardSize;
};

namespace detail {

/// Which phase of the engine's tap each part of a round is booked to.
/// The step and count passes share one span when their indices agree.
struct PhaseLayout {
  std::size_t step = 0;
  std::size_t count = 0;
  std::size_t observe = 0;
  std::size_t mutate = 0;
};

/// engine=sharded's tap: {"step_count", "observe", "mutate"}.
inline constexpr PhaseLayout kShardedPhases{
    .step = 0, .count = 0, .observe = 1, .mutate = 2};
/// engine=single's tap: {"step", "count", "observe", "mutate"}.
inline constexpr PhaseLayout kSinglePhases{
    .step = 0, .count = 1, .observe = 2, .mutate = 3};

/// The shard round loop (see the header comment).  `gens[s]` is shard
/// s's generator, a Xoshiro256pp or a rng::WideStream; either steps
/// through graph::random_neighbors.  `view_gen` is the
/// generator every view hands the observers; null means each shard's
/// own, which only a Xoshiro256pp shard stream can be.  `counter` is
/// fresh and holds the round's occupancy.  The entry points
/// (run_walk_sharded here, the SingleExec and VectorExec branches of
/// sim::run_walk) validate `cfg` and fix the plan, streams, phase
/// layout and counter.
template <graph::Topology T, typename Gen, typename Counter, class... Obs>
  requires(WalkObserverForView<Obs, typename T::node_type,
                               BasicRoundView<Counter>> &&
           ...)
void run_shard_loop(const T& topo, const WalkConfig& cfg,
                    std::uint64_t stream_seed, const ShardPlan& plan,
                    std::vector<Gen> gens, rng::Xoshiro256pp* view_gen,
                    obs::EngineTap& tap, const PhaseLayout& phases,
                    const std::vector<typename T::node_type>*
                        initial_positions,
                    Counter& counter, Obs&... observers) {
  using node = typename T::node_type;
  constexpr bool kScalarGens = std::is_same_v<Gen, rng::Xoshiro256pp>;
  static_assert(kScalarGens || std::is_same_v<Gen, rng::WideStream>,
                "shard streams are Xoshiro256pp or WideStream");
  const std::uint32_t n_agents = cfg.num_agents;
  const std::uint32_t n_shards = plan.num_shards();
  ANTDENSE_CHECK(initial_positions == nullptr ||
                     initial_positions->size() == n_agents,
                 "initial positions must match agent count");
  ANTDENSE_ASSERT(gens.size() == n_shards, "one generator per shard");
  ANTDENSE_ASSERT(kScalarGens || view_gen != nullptr,
                  "wide shard streams need a separate view generator");

  // Placement draws come from each shard's own stream, in shard order.
  std::vector<node> pos(n_agents);
  if (initial_positions != nullptr) {
    pos = *initial_positions;
  } else {
    for (std::uint32_t s = 0; s < n_shards; ++s) {
      for (std::uint32_t i = plan.begin(s); i < plan.end(s); ++i) {
        pos[i] = topo.random_node(gens[s]);
      }
    }
  }

  std::vector<std::uint64_t> keys(n_agents);
  const bool lazy = cfg.lazy_probability > 0.0;
  // The walk's row cache (graph::RowCache), read by every batched and
  // every lazy step of every shard.
  graph::RowCache rows;

  // Dynamics plumbing (sim/dynamics.hpp): dormant — null model, no
  // copies, per-round branches only — for static walks, whose streams
  // stay bit-identical to their goldens.  Mutation runs between rounds,
  // on its own domain-tagged stream that never touches the shard
  // streams; move rewriting and masked counting run per shard.
  constexpr bool kDynCapable = std::is_same_v<node, std::uint64_t>;
  WorldDynamics* dyn = cfg.dynamics;
  if constexpr (!kDynCapable) {
    ANTDENSE_CHECK(dyn == nullptr,
                   "dynamics models require a uint64-node topology "
                   "(run via graph::AnyTopology)");
    dyn = nullptr;
  }
  const bool rewrites = dyn != nullptr && dyn->rewrites_moves();
  const std::uint8_t* const count_mask =
      dyn != nullptr ? dyn->count_mask() : nullptr;
  rng::Xoshiro256pp mut_gen(
      dyn != nullptr
          ? rng::derive_mutation_stream(stream_seed, dyn->model_seed())
          : 0);
  // Moves are rewritten in blocks of this many agents: the block's
  // positions, snapshot and keys stay in L2 between the step and the
  // rewrite, and a batched sampler that sweeps per call (ba past the
  // row budget) still sweeps once per shard-sized block.
  constexpr std::uint32_t kMoveBlock = 4096;
  std::vector<node> prev(rewrites ? std::min(n_agents, kMoveBlock) : 0);

  std::uint32_t round = 0;
  const auto make_view = [&](std::uint32_t s) {
    rng::Xoshiro256pp* gen = view_gen;
    if constexpr (kScalarGens) {
      if (gen == nullptr) {
        gen = &gens[s];
      }
    }
    return BasicRoundView<Counter>{round,
                                   plan.begin(s),
                                   plan.end(s),
                                   n_agents,
                                   std::span<const std::uint64_t>(keys),
                                   counter,
                                   *gen};
  };

  // Step agents [b, e) from `gen`, draw for draw as one pass.
  const auto step_range = [&](Gen& gen, std::uint32_t b, std::uint32_t e) {
    if (lazy) {
      // Interleaved stay/step draws — must match the legacy stream, so
      // no batching here; each step still reads the walk's row cache.
      for (std::uint32_t i = b; i < e; ++i) {
        if (!rng::bernoulli(gen, cfg.lazy_probability)) {
          pos[i] = graph::random_neighbor(topo, pos[i], gen, rows);
        }
      }
    } else {
      graph::random_neighbors(
          topo, std::span<const node>(pos).subspan(b, e - b),
          std::span<node>(pos).subspan(b, e - b), gen, rows);
    }
  };

  // Step: the shard's draws, and the dynamics rewrite of blocked moves.
  const auto step_shard = [&](std::uint32_t s) {
    const std::uint32_t b = plan.begin(s);
    const std::uint32_t e = plan.end(s);
    if constexpr (kDynCapable) {
      if (rewrites) {
        // Block by block, while the block is cache-resident: snapshot
        // it (after the mutation tick, which may relocate evicted or
        // reborn agents), step it from the shard stream exactly as the
        // static walk would, then let the model veto or deflect its
        // blocked moves and key it for the count.  Blocks split the
        // shard's draws, never reorder them.
        for (std::uint32_t i = b, j = b; i < e; i = j) {
          j = i + std::min(kMoveBlock, e - i);
          std::copy(pos.begin() + i, pos.begin() + j, prev.begin());
          step_range(gens[s], i, j);
          dyn->rewrite_moves(std::span<const node>(prev).first(j - i), pos,
                             keys, i, j);
        }
        return;
      }
    }
    step_range(gens[s], b, e);
  };

  // Count: key the shard (a rewrite keyed it already), then fill this
  // round's occupancy and run the fill hooks.
  const auto count_shard = [&](std::uint32_t s) {
    const std::uint32_t b = plan.begin(s);
    const std::uint32_t e = plan.end(s);
    const std::span<std::uint64_t> shard_keys =
        std::span<std::uint64_t>(keys).subspan(b, e - b);
    if (!rewrites) {
      graph::node_keys(topo, std::span<const node>(pos).subspan(b, e - b),
                       shard_keys);
    }
    if (count_mask != nullptr) {
      for (std::uint32_t i = b; i < e; ++i) {
        if (count_mask[i] != 0) {
          counter.add(keys[i]);
        }
      }
    } else {
      fill_counter(counter, std::span<const std::uint64_t>(shard_keys));
    }
    tap.add_agent_steps(e - b);
    const auto view = make_view(s);
    (notify_fill(observers, view, std::span<const node>(pos)), ...);
  };

  for (round = 1; round <= cfg.rounds; ++round) {
    counter.begin_round();
    if constexpr (kDynCapable) {
      // The world is pristine in round 1 (the tick runs *between*
      // rounds).
      if (dyn != nullptr && round > 1) {
        const obs::EngineTap::PhaseSpan phase(tap, phases.mutate);
        dyn->mutate(round, mut_gen, std::span<std::uint64_t>(pos),
                    std::span<const std::uint64_t>(keys));
      }
    }
    (notify_begin_round(observers, round), ...);
    if (phases.step == phases.count) {
      const obs::EngineTap::PhaseSpan phase(tap, phases.step);
      for (std::uint32_t s = 0; s < n_shards; ++s) {
        step_shard(s);
        count_shard(s);
      }
    } else {
      {
        const obs::EngineTap::PhaseSpan phase(tap, phases.step);
        for (std::uint32_t s = 0; s < n_shards; ++s) {
          step_shard(s);
        }
      }
      const obs::EngineTap::PhaseSpan phase(tap, phases.count);
      for (std::uint32_t s = 0; s < n_shards; ++s) {
        count_shard(s);
      }
    }
    {
      const obs::EngineTap::PhaseSpan phase(tap, phases.observe);
      for (std::uint32_t s = 0; s < n_shards; ++s) {
        const auto view = make_view(s);
        (notify_after_round(observers, view, std::span<const node>(pos)),
         ...);
      }
    }
    (notify_end_round(observers, round), ...);
  }
  tap.add_rounds(cfg.rounds);
}

}  // namespace detail

/// Runs the sharded engine: the shard loop over `exec.shard_size`-agent
/// shards on derive_stream(stream_seed, s) generators, on the caller's
/// thread.  fill and after_round hooks fire once per shard per round, in
/// shard order.  Deterministic in (stream_seed, cfg, exec.shard_size).
template <graph::Topology T, class... Obs>
  requires(WalkObserver<Obs, typename T::node_type> && ...)
void run_walk_sharded(const T& topo, const WalkConfig& cfg,
                      std::uint64_t stream_seed, const ShardExec& exec,
                      const std::vector<typename T::node_type>*
                          initial_positions,
                      Obs&... observers) {
  cfg.validate();
  const ShardPlan plan = ShardPlan::make(cfg.num_agents, exec.shard_size);
  std::vector<rng::Xoshiro256pp> gens;
  gens.reserve(plan.num_shards());
  for (std::uint32_t s = 0; s < plan.num_shards(); ++s) {
    gens.emplace_back(rng::derive_stream(stream_seed, s));
  }
  obs::EngineTap tap("sharded", {"step_count", "observe", "mutate"});
  with_occupancy_counter(topo.num_nodes(), cfg.num_agents,
                         [&](auto& counter) {
                           detail::run_shard_loop(
                               topo, cfg, stream_seed, plan, std::move(gens),
                               /*view_gen=*/nullptr, tap,
                               detail::kShardedPhases,
                               initial_positions, counter, observers...);
                         });
}

}  // namespace antdense::sim
