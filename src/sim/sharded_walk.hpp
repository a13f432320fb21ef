// The sharded, multi-threaded execution model for Algorithm 1's round
// loop — the within-experiment counterpart of the campaign scheduler's
// experiment-level parallelism, built on the same principle: randomness
// is keyed by the unit of work, never by the executing thread.
//
// Agent state (positions, keys, observer accumulators) lives in shared
// structure-of-arrays vectors split into contiguous shards of
// `shard_size` agents.  Each shard owns a private generator seeded by
// rng::derive_stream(stream_seed, shard), and every round runs as two
// barrier-separated phases over the shards:
//
//   phase A (parallel): step the shard's agents from the shard stream,
//     recompute their keys, count them into the shared lock-free
//     ConcurrentCollisionCounter, and run observer fill hooks
//     (auxiliary counters, e.g. property occupancy);
//   phase B (parallel): observer after_round hooks read the now-
//     complete global occupancy and write their own agents' slice —
//     noise draws come from the shard stream, after the shard's phase-A
//     draws;
//   end of round (serial): end_round hooks take cross-shard snapshots
//     (trajectory checkpoints).
//
// Determinism contract: the output is a pure function of (stream_seed,
// WalkConfig, shard_size) — bit-identical for ANY thread count,
// including 1, because the shard decomposition and each shard's draw
// sequence never depend on scheduling.  Observer slices are laid out in
// shard order within the shared arrays, so the "merge" is free.
// tests/test_sharded_walk.cpp pins threads ∈ {1, 2, 8} equality across
// every topology family and workload.
//
// The sharded stream is deliberately NOT the single-stream engine's:
// run_walk_single at a fixed seed keeps its historical goldens, while
// run_walk_sharded defines its own (equally valid, Theorem-1-conforming)
// sample.  Pick per walk with sim::ShardExec in a sim::Exec
// (sim/density_sim.hpp); per experiment via ScenarioSpec::engine.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/topology.hpp"
#include "rng/stream.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/concurrent_counter.hpp"
#include "sim/walk_engine.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/worker_pool.hpp"

namespace antdense::sim {

/// Deterministic decomposition of a population into contiguous shards.
/// The shard grain is part of the output contract (it decides which
/// stream steps which agent), so it is a parameter with a fixed default,
/// never a function of the machine.
struct ShardPlan {
  /// Default agents-per-shard: small enough that a 100k-agent walk
  /// exposes ~25-way parallelism, large enough that per-shard phase
  /// overhead is noise.
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

/// Execution-resource knobs for the sharded engine.  `threads` never
/// changes results; `shard_size` does (it reassigns agents to streams).
struct ShardExec {
  unsigned threads = 0;  // worker threads; 0 = one per core
  std::uint32_t shard_size = ShardPlan::kDefaultShardSize;
};

/// Runs the sharded round loop.  Observers follow the same hook
/// vocabulary as run_walk_single (walk_engine.hpp) against ShardRoundView;
/// after_round/fill hooks fire once per shard per round, concurrently
/// across shards, and must only write state for agents in the view's
/// range.  Deterministic in (stream_seed, cfg, exec.shard_size) for any
/// exec.threads.
template <graph::Topology T, class... Obs>
  requires(WalkObserverForView<Obs, typename T::node_type, ShardRoundView> &&
           ...)
void run_walk_sharded(const T& topo, const WalkConfig& cfg,
                      std::uint64_t stream_seed, const ShardExec& exec,
                      const std::vector<typename T::node_type>*
                          initial_positions,
                      Obs&... observers) {
  cfg.validate();
  using node = typename T::node_type;
  const std::uint32_t n_agents = cfg.num_agents;
  ANTDENSE_CHECK(initial_positions == nullptr ||
                     initial_positions->size() == n_agents,
                 "initial positions must match agent count");

  const ShardPlan plan = ShardPlan::make(n_agents, exec.shard_size);
  const std::uint32_t n_shards = plan.num_shards();
  unsigned threads =
      exec.threads == 0 ? util::default_thread_count() : exec.threads;
  threads = std::min<unsigned>(threads, n_shards);

  std::vector<rng::Xoshiro256pp> gens;
  gens.reserve(n_shards);
  for (std::uint32_t s = 0; s < n_shards; ++s) {
    gens.emplace_back(rng::derive_stream(stream_seed, s));
  }

  // Placement draws come from each shard's own stream, so placement is
  // as thread-count-invariant as the walk itself.
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
  ConcurrentCollisionCounter counter(n_agents);
  const bool lazy = cfg.lazy_probability > 0.0;
  const bool concurrent = threads > 1;

  // Dynamics plumbing (see run_walk_single): mutation is SERIAL, between
  // rounds, on its own domain-tagged stream; move rewriting and masked
  // counting run per shard (const, deterministic, disjoint ranges), so
  // thread-count invariance holds with dynamics enabled.
  constexpr bool kDynCapable =
      std::is_same_v<typename T::node_type, std::uint64_t>;
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
  std::vector<node> prev(rewrites ? n_agents : 0);

  // Resolved on the caller thread; phase spans wrap the serial seams
  // around the two parallel phases (no new barriers), while striped
  // counter adds inside phase A come from the workers themselves.
  obs::EngineTap tap("sharded", {"step_count", "observe", "mutate"});

  std::uint32_t round = 0;
  const auto make_view = [&](std::uint32_t s) {
    return ShardRoundView{round,
                          plan.begin(s),
                          plan.end(s),
                          n_agents,
                          std::span<const std::uint64_t>(keys),
                          counter,
                          gens[s],
                          concurrent};
  };

  // Phase A: step, key, count, fill — everything that writes this
  // round's occupancy.
  const auto phase_a = [&](std::size_t shard) {
    const auto s = static_cast<std::uint32_t>(shard);
    const std::uint32_t b = plan.begin(s);
    const std::uint32_t e = plan.end(s);
    rng::Xoshiro256pp& gen = gens[s];
    if constexpr (kDynCapable) {
      if (rewrites) {
        // Disjoint slice per shard: the pre-step snapshot is race-free.
        std::copy(pos.begin() + b, pos.begin() + e, prev.begin() + b);
      }
    }
    if (lazy) {
      for (std::uint32_t i = b; i < e; ++i) {
        if (!rng::bernoulli(gen, cfg.lazy_probability)) {
          pos[i] = topo.random_neighbor(pos[i], gen);
        }
      }
    } else {
      graph::random_neighbors(
          topo, std::span<const node>(pos).subspan(b, e - b),
          std::span<node>(pos).subspan(b, e - b), gen);
    }
    if constexpr (kDynCapable) {
      if (rewrites) {
        dyn->rewrite_moves(prev, pos, b, e);
      }
    }
    graph::node_keys(topo, std::span<const node>(pos).subspan(b, e - b),
                     std::span<std::uint64_t>(keys).subspan(b, e - b));
    if (count_mask != nullptr) {
      if (concurrent) {
        for (std::uint32_t i = b; i < e; ++i) {
          if (count_mask[i] != 0) {
            counter.add(keys[i]);
          }
        }
      } else {
        for (std::uint32_t i = b; i < e; ++i) {
          if (count_mask[i] != 0) {
            counter.add_serial(keys[i]);
          }
        }
      }
    } else if (concurrent) {
      for (std::uint32_t i = b; i < e; ++i) {
        counter.add(keys[i]);
      }
    } else {
      for (std::uint32_t i = b; i < e; ++i) {
        counter.add_serial(keys[i]);
      }
    }
    // Per-worker sink: each pool worker lands on its own striped slot,
    // and the total is Σ shard sizes — exact for any thread count.
    tap.add_agent_steps(e - b);
    const ShardRoundView view = make_view(s);
    (detail::notify_fill(observers, view, std::span<const node>(pos)), ...);
  };

  // Phase B: observer reads of the completed round.
  const auto phase_b = [&](std::size_t shard) {
    const auto s = static_cast<std::uint32_t>(shard);
    const ShardRoundView view = make_view(s);
    (detail::notify_after_round(observers, view, std::span<const node>(pos)),
     ...);
  };

  // The pool outlives the round loop: each phase is a condvar wake, not
  // a thread spawn.  The single-thread path allocates no pool and runs
  // the same shards in the same order, so its output is identical.
  // The phase lambdas are wrapped in std::function once, here — doing
  // it per run() call would heap-allocate twice per round.
  std::unique_ptr<util::WorkerPool> pool;
  std::function<void(std::size_t)> phase_a_fn;
  std::function<void(std::size_t)> phase_b_fn;
  if (concurrent) {
    pool = std::make_unique<util::WorkerPool>(threads);
    phase_a_fn = phase_a;
    phase_b_fn = phase_b;
  }

  for (round = 1; round <= cfg.rounds; ++round) {
    counter.begin_round();
    if constexpr (kDynCapable) {
      if (dyn != nullptr && round > 1) {
        // Serial mutation tick between rounds, on the mutation stream —
        // identical for any thread count by construction.
        const obs::EngineTap::PhaseSpan phase(tap, 2);
        dyn->mutate(round, mut_gen, std::span<std::uint64_t>(pos));
      }
    }
    (detail::notify_begin_round(observers, round), ...);
    {
      const obs::EngineTap::PhaseSpan phase(tap, 0);
      if (concurrent) {
        pool->run(n_shards, phase_a_fn);
      } else {
        for (std::uint32_t s = 0; s < n_shards; ++s) {
          phase_a(s);
        }
      }
    }
    {
      const obs::EngineTap::PhaseSpan phase(tap, 1);
      if (concurrent) {
        pool->run(n_shards, phase_b_fn);
      } else {
        for (std::uint32_t s = 0; s < n_shards; ++s) {
          phase_b(s);
        }
      }
    }
    (detail::notify_end_round(observers, round), ...);
  }
  tap.add_rounds(cfg.rounds);
}

}  // namespace antdense::sim
