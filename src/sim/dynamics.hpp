// The dynamics layer's engine-facing contract: a WorldDynamics is a
// perturbation model that mutates the world *between* rounds of the
// synchronous walk (Musco, Su & Lynch, PODC 2016 — whose motivating
// ants/robots live in a world that changes underfoot; see Hindes et al.
// on stochastic sensing and dynamics).
//
// Engine integration (run_walk_single / run_walk_sharded; the vector
// engine rejects models):
//
//   round r (r >= 2):   mutate(r, mut_gen, positions, keys)   [serial]
//                       step agents from the WALK stream      [unchanged]
//                       rewrite_moves(prev, pos, keys, b, e)  [per shard]
//                       count agents with count_mask()        [per shard]
//                       observer hooks                        [unchanged]
//
// `keys` is the engine's per-agent key array (keys[i] = topology key of
// agent i's node).  mutate reads the keys the engine counted last round;
// rewrite_moves writes the keys of the rewritten positions, and the
// engine counts those instead of keying the positions again.
//
// CollisionObserver (sim/walk_engine.hpp) reads count_mask() and
// birth_rounds() once per round, and routes partner counts through
// observe() when transforms_observations() says so.
//
// RNG-stream isolation is the heart of the contract: every stochastic
// mutation draw comes from `mut_gen`, a generator the engine seeds via
// rng::derive_mutation_stream(stream_seed, model_seed()) — a
// domain-tagged stream that shares nothing with the walk, shard, trial,
// or observer streams.  The walk stream is consumed exactly as in the
// static engine (agents step even when dead or deflected), so:
//   1. a null dynamics pointer reproduces the static goldens bit for
//      bit, and
//   2. the sharded engine stays thread-count-invariant with dynamics
//      enabled — mutate() runs serially between rounds, and
//      rewrite_moves()/observe() are const, deterministic, and touch
//      only the view's agent range.
//
// Models work in the type-erased node domain (graph::AnyTopology,
// node_type = uint64): the scenario layer is the only producer of
// dynamics models, and it always runs on AnyTopology.  A model must be
// constructed over the same topology handle the engine is stepping.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "rng/xoshiro256pp.hpp"

namespace antdense::sim {

/// Abstract perturbation model driven by the engines' mutation phase.
/// Implementations: sim/dynamic_world.hpp (churn, drift, fade), built
/// from spec strings by scenario::DynamicsRegistry.
class WorldDynamics {
 public:
  virtual ~WorldDynamics() = default;

  /// Canonical "model:k=v,..." spelling of this instance, mirroring
  /// Registry::canonical for topologies (diagnostics and artifacts).
  virtual std::string name() const = 0;

  /// The model's own seed parameter, folded into the mutation-stream
  /// derivation so two models in otherwise-identical scenarios draw
  /// independent mutation randomness.
  virtual std::uint64_t model_seed() const = 0;

  /// One mutation tick, called serially before the stepping phase of
  /// every round r >= 2 (the world is pristine in round 1, matching the
  /// static engine's first round).  May relocate agents in `positions`
  /// (evicting walkers from failed nodes, placing reborn agents); all
  /// stochastic choices must come from `mut_gen`.  keys[i] is the key
  /// of positions[i] on entry; a relocated agent's entry goes stale (the
  /// engine rekeys every agent after stepping).
  virtual void mutate(std::uint32_t round, rng::Xoshiro256pp& mut_gen,
                      std::span<std::uint64_t> positions,
                      std::span<const std::uint64_t> keys) = 0;

  /// True when the model constrains movement and the engine must call
  /// rewrite_moves after stepping (costs one position copy per round).
  virtual bool rewrites_moves() const { return false; }

  /// Deterministically rewrites the moves of agents [begin, end): agent
  /// i attempted prev[i] -> pos[i] on the *static* topology; the model
  /// may veto or deflect the move in place, and sets keys[i] to the key
  /// of the final pos[i].  Called only when rewrites_moves().  Const and
  /// data-race-free: the sharded engine calls it concurrently for
  /// disjoint ranges.
  virtual void rewrite_moves(std::span<const std::uint64_t> prev,
                             std::span<std::uint64_t> pos,
                             std::span<std::uint64_t> keys,
                             std::uint32_t begin, std::uint32_t end) const {
    (void)prev;
    (void)pos;
    (void)keys;
    (void)begin;
    (void)end;
  }

  /// Per-slot liveness mask (1 = alive: counts into round occupancy and
  /// observes), or nullptr when every agent always counts.  Dead slots
  /// keep stepping to preserve the walk stream.  The pointer is fixed
  /// for the model's life (null or not); the contents change only in
  /// mutate.  Indexed by agent slot.
  virtual const std::uint8_t* count_mask() const { return nullptr; }

  /// Per-slot round in which the slot's current incarnation was born (1
  /// for initial agents); non-null exactly when count_mask() is.
  /// Observers reset a slot's accumulators when this changes — a reborn
  /// agent is a *new* anonymous agent.
  virtual const std::uint32_t* birth_rounds() const { return nullptr; }

  /// True when the model perturbs observations and the observer must
  /// route each raw collision count through observe().
  virtual bool transforms_observations() const { return false; }

  /// Transforms slot `slot`'s raw partner count for this round.  Draws
  /// come from `gen` — the *observer's* view generator (walk or shard
  /// stream), in agent order within the view's range, which is what
  /// keeps sharded observation noise thread-count-invariant.  Const:
  /// called concurrently for disjoint ranges.
  virtual std::uint64_t observe(std::uint32_t slot, std::uint64_t others,
                                rng::Xoshiro256pp& gen) const {
    (void)slot;
    (void)gen;
    return others;
  }
};

}  // namespace antdense::sim
