// The vector walk engine — the third identity-bearing engine variant
// (engine=vector beside single and sharded) and the second round loop
// beside the shard loop (sim/sharded_walk.hpp): the same synchronous
// round structure as engine=single, driven by wide batched randomness
// and vectorized kernels instead of per-agent scalar generator calls.
//
// What changes relative to engine=single, and why it re-goldens:
//   - The draw source is a rng::WideStream — kWideLanes xoshiro256++
//     streams emitted lane-interleaved (rng/xoshiro_wide.hpp) — so the
//     word sequence differs from the single engine's one scalar stream
//     by construction.  Like sharded's per-shard streams in PR 5, this
//     is an *identity* choice: engine=vector has its own golden streams
//     (tests/test_vector_walk.cpp), and the single/sharded streams are
//     untouched.
//   - Stepping goes through graph::vector_step: branchless word kernels
//     for ring/torus2d (AVX2 when compiled in), batched Lemire rejection
//     for the pick families, the topology's own bulk sampler otherwise.
//     All of it is sequential-equivalent over the WideStream, so the
//     vector stream is *defined* by "per-agent draws from the wide
//     stream" and every acceleration path is unobservable.
//   - Nothing changes in occupancy counting: the loop runs on the serial
//     counter with_occupancy_counter (sim/dense_counter.hpp) picks, like
//     the shard loop on one thread — the direct-addressed
//     DenseCollisionCounter on substrates small next to the population,
//     the hash CollisionCounter otherwise; counts are identical either
//     way.
//   - Observer noise draws come from a dedicated scalar generator at a
//     domain-tagged seed (kVectorObserverTag), keeping the
//     Xoshiro256pp-typed view contract and the movement stream cleanly
//     separated.
//
// Observer hooks, pack order, and view semantics are exactly
// engine=single's (one view of the whole population per round), except
// that begin_round hooks run after the step, with the other hooks; the
// view's counter type is whichever counter the walk selected, so
// observers templated on the view (all in-tree observers) work
// unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/topology.hpp"
#include "graph/vector_step.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "rng/xoshiro_wide.hpp"
#include "sim/dense_counter.hpp"
#include "sim/walk_engine.hpp"
#include "util/check.hpp"

namespace antdense::sim {

/// Domain-separation tag ("VECOBSRV") for the vector engine's observer
/// noise generator, disjoint from the movement lanes (kVectorLaneTag).
inline constexpr std::uint64_t kVectorObserverTag = 0x5645434F42535256ULL;

/// The vector engine's entry in sim::Exec.  It has no knobs: nothing
/// but `engine` itself selects the vector stream.
struct VectorExec {};

namespace detail {

/// The vector round loop on a fresh `counter`.
template <typename Counter, graph::Topology T, class... Obs>
void run_walk_vector_impl(
    const T& topo, const WalkConfig& cfg, std::uint64_t stream_seed,
    Counter& counter,
    const std::vector<typename T::node_type>* initial_positions,
    Obs&... observers) {
  using node = typename T::node_type;
  const std::uint32_t n_agents = cfg.num_agents;
  // Defense in depth behind the spec-validation fail-fast
  // (scenario::ScenarioSpec::validate rejects engine=vector + dynamics):
  // the wide-lane loop has no mutation phase.
  ANTDENSE_CHECK(cfg.dynamics == nullptr,
                 "the vector engine does not support dynamics models; "
                 "use engine=single or engine=sharded");

  rng::WideStream stream(stream_seed);
  rng::Xoshiro256pp obs_gen(rng::derive_seed(stream_seed, kVectorObserverTag));

  std::vector<node> pos(n_agents);
  if (initial_positions != nullptr) {
    pos = *initial_positions;
  } else {
    for (auto& p : pos) {
      p = topo.random_node(stream);
    }
  }

  std::vector<std::uint64_t> keys(n_agents);
  const bool lazy = cfg.lazy_probability > 0.0;

  obs::EngineTap tap("vector", {"step", "count", "observe"});
  for (std::uint32_t r = 1; r <= cfg.rounds; ++r) {
    counter.begin_round();
    {
      const obs::EngineTap::PhaseSpan phase(tap, 0);
      if (lazy) {
        // Interleaved stay/step draws, as in the scalar engines — lazy
        // walks keep sequential consumption so the stream stays one
        // flat sequence regardless of who moved.
        for (std::uint32_t i = 0; i < n_agents; ++i) {
          if (!rng::bernoulli(stream, cfg.lazy_probability)) {
            pos[i] = topo.random_neighbor(pos[i], stream);
          }
        }
      } else {
        graph::vector_step(topo, std::span<node>(pos), stream);
      }
    }
    {
      const obs::EngineTap::PhaseSpan phase(tap, 1);
      graph::node_keys(topo, std::span<const node>(pos),
                       std::span<std::uint64_t>(keys));
      fill_counter(counter, keys);
    }
    const BasicRoundView<Counter> view{r,
                                       0,
                                       n_agents,
                                       n_agents,
                                       std::span<const std::uint64_t>(keys),
                                       counter,
                                       obs_gen,
                                       /*concurrent_fill=*/false};
    const std::span<const node> positions(pos);
    {
      const obs::EngineTap::PhaseSpan phase(tap, 2);
      (notify_begin_round(observers, r), ...);
      (notify_fill(observers, view, positions), ...);
      (notify_after_round(observers, view, positions), ...);
      (notify_end_round(observers, r), ...);
    }
  }
  tap.add_rounds(cfg.rounds);
  tap.add_agent_steps(static_cast<std::uint64_t>(cfg.rounds) * n_agents);
}

}  // namespace detail

/// Runs the vector engine's round loop: uniform i.i.d. placement (or the
/// caller's positions), cfg.rounds vectorized steps, occupancy counting
/// on the serial counter with_occupancy_counter picks, observer hooks in
/// pack order.  Deterministic in `stream_seed` and independent of the
/// counter, AVX2 availability, and kernel specialization.
template <graph::Topology T, class... Obs>
  requires(WalkObserver<Obs, typename T::node_type> && ...)
void run_walk_vector(
    const T& topo, const WalkConfig& cfg, std::uint64_t stream_seed,
    const std::vector<typename T::node_type>* initial_positions,
    Obs&... observers) {
  cfg.validate();
  ANTDENSE_CHECK(initial_positions == nullptr ||
                     initial_positions->size() == cfg.num_agents,
                 "initial positions must match agent count");
  with_occupancy_counter(topo.num_nodes(), cfg.num_agents, /*threads=*/1,
                         [&](auto& counter) {
                           detail::run_walk_vector_impl(
                               topo, cfg, stream_seed, counter,
                               initial_positions, observers...);
                         });
}

}  // namespace antdense::sim
