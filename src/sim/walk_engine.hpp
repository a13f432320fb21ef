// The single-stream synchronous round loop (Musco, Su & Lynch, PODC
// 2016, arXiv:1603.02981, Algorithm 1) and the observers every workload
// plugs into it — density estimation, two-class property counting,
// trajectory recording, local-density profiling.  The sharded and
// vector engines (sim/sharded_walk.hpp, sim/vector_walk.hpp) run the
// same observers; sim::run_walk (sim/density_sim.hpp) picks the engine.
//
// Structure of one round (identical to the original loops):
//   0. when a dynamics model is attached (sim/dynamics.hpp) and r >= 2:
//      the world mutates on its own domain-tagged RNG stream — the
//      walk stream below never changes, so static configs stay
//      bit-identical to their goldens;
//   1. counter.begin_round()
//   2. every agent steps: the batched topology API when the walk is not
//      lazy (graph::random_neighbors — same generator stream as
//      sequential calls), the legacy per-agent Bernoulli/step loop when
//      it is;
//   3. keys are recomputed and the occupancy counter filled;
//   4. observer hooks fire, in pack order: begin_round (serial setup),
//      fill (auxiliary occupancy counting), after_round (per-agent
//      reads, seeing the round's keys, the occupancy counter, the
//      positions if asked for, and the generator for noise draws), and
//      end_round (cross-agent snapshots).
//
// Observers are a compile-time pack, so the round loop inlines their
// hooks with zero dispatch cost — the engine with a single
// CollisionObserver compiles to the same code shape as the original
// run_density_walk.  Generator-stream compatibility with the legacy
// loops is part of the contract (tests/test_walk_engine.cpp pins it
// bit-for-bit); the one deliberate re-golden is the detection-miss path,
// which now uses a single binomial draw per agent (rng::binomial)
// instead of a per-partner Bernoulli loop.
//
// The hooks work on a *view* that names an agent range [begin_agent,
// end_agent): run_walk_single always passes the full population, while
// the sharded engine (sim/sharded_walk.hpp) drives the same observers one
// shard at a time, against a concurrent counter and per-shard
// generators.  Observer state indexed by agent id is therefore written
// in disjoint slices, which is what makes the sharded merge free and
// thread-count-invariant.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/topology.hpp"
#include "obs/telemetry.hpp"
#include "rng/random.hpp"
#include "rng/stream.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/collision_counter.hpp"
#include "sim/concurrent_counter.hpp"
#include "sim/dynamics.hpp"
#include "util/check.hpp"

namespace antdense::sim {

/// Movement-only configuration of the round loop.  What happens with the
/// occupancy information (noise, snapshots, ...) belongs to observers.
struct WalkConfig {
  std::uint32_t num_agents = 0;
  std::uint32_t rounds = 0;
  double lazy_probability = 0.0;
  /// Optional world-mutation model (sim/dynamics.hpp), not owned; null
  /// means the historical static walk, bit for bit.  Requires a
  /// uint64-node topology (the scenario layer's AnyTopology) and the
  /// single or sharded engine.
  WorldDynamics* dynamics = nullptr;

  void validate() const;
};

/// What an observer sees at the end of each round.  Everything is a view
/// into engine state; observers must not hold onto it past the call.
/// `gen` is the generator whose draws are reproducible for this view's
/// agent range — the engine's single stream in run_walk_single, the
/// shard's private stream in run_walk_sharded.  Observers that draw from it
/// (noise models) become part of the reproducible stream, in pack order.
/// Hooks must only write observer state belonging to agents in
/// [begin_agent, end_agent); the sharded engine runs hooks for distinct
/// ranges concurrently.
template <typename Counter>
struct BasicRoundView {
  std::uint32_t round = 0;        // 1-based
  std::uint32_t begin_agent = 0;  // this view's agent range
  std::uint32_t end_agent = 0;
  std::uint32_t num_agents = 0;         // whole population
  std::span<const std::uint64_t> keys;  // keys[i] = key of agent i's node
  const Counter& counter;               // occupancy of the current round
  rng::Xoshiro256pp& gen;
  /// True when fill hooks run concurrently (sharded, threads > 1):
  /// auxiliary counters must use their thread-safe insertion path.
  bool concurrent_fill = false;
};

using RoundView = BasicRoundView<CollisionCounter>;
/// The sharded engine's view: same shape, lock-free counter.
using ShardRoundView = BasicRoundView<ConcurrentCollisionCounter>;

/// An observer is any type with at least one per-round hook:
/// `after_round(view)`, `after_round(view, positions)` (node handles,
/// not keys), or `end_round(round)`.  Optional hooks: `begin_round
/// (round)` (serial, before the round's fills) and `fill(view)`
/// (auxiliary occupancy counting between stepping and after_round).
///
/// The concept is checked against the *actual* view type each engine
/// passes (RoundView for run_walk_single, ShardRoundView for
/// run_walk_sharded):
/// the notify helpers skip hooks a view type cannot call, so without
/// this check an observer written against the wrong view would compile
/// and silently record nothing.
template <typename O, typename Node, typename View>
concept WalkObserverForView =
    requires(O& o, const View& v, std::span<const Node> pos,
             std::uint32_t round) {
      requires requires { o.after_round(v); } ||
                   requires { o.after_round(v, pos); } ||
                   requires { o.end_round(round); };
    };

template <typename O, typename Node>
concept WalkObserverFor = WalkObserverForView<O, Node, RoundView>;

/// Per-agent cumulative collision counts — Algorithm 1's `c`, with the
/// Section 6.1 sensing perturbations (detection misses, spurious
/// detections, dropout) applied at observation time.
///
/// Given a dynamics model (sim/dynamics.hpp) it also keeps a dynamic
/// world's books: dead slots neither count nor observe, a reborn slot
/// restarts from zero at its birth round, and raw partner counts pass
/// through the model's observation transform before the sensing noise.
/// The model's alive mask and birth rounds are read once per round; a
/// model with neither a mask nor a transform (churn) runs the static
/// loop unchanged.
class CollisionObserver {
 public:
  struct Noise {
    double detection_miss = 0.0;  // each partner goes undetected w.p. p
    double spurious = 0.0;        // phantom collision recorded w.p. p
    /// The whole observation is lost w.p. p (the round still counts
    /// toward the estimate's divisor).  Drawn first, before the miss
    /// and spurious draws, so dropout = 0 leaves the historical streams
    /// untouched.
    double dropout = 0.0;

    bool any() const {
      return detection_miss > 0.0 || spurious > 0.0 || dropout > 0.0;
    }
  };

  explicit CollisionObserver(std::uint32_t num_agents)
      : CollisionObserver(num_agents, Noise{}) {}
  /// `dynamics` is not owned and must outlive the observer.
  CollisionObserver(std::uint32_t num_agents, Noise noise,
                    const WorldDynamics* dynamics = nullptr);

  template <typename View>
  void after_round(const View& v) {
    ANTDENSE_ASSERT(v.num_agents == counts_.size(),
                    "observer sized for a different agent count");
    const std::uint8_t* const alive =
        dynamics_ != nullptr ? dynamics_->count_mask() : nullptr;
    const bool transforms =
        dynamics_ != nullptr && dynamics_->transforms_observations();
    if (alive == nullptr && !transforms && !noise_.any()) {
      if (collisions_tap_ == nullptr) {
        for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
          counts_[i] += v.counter.occupancy(v.keys[i]) - 1;
        }
      } else {
        // Telemetry-enabled copy of the loop: the disabled path above
        // carries no accumulator, keeping it identical to the frozen
        // hot loop the bench overhead gate compares against.
        std::uint64_t observed = 0;
        for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
          const std::uint64_t others = v.counter.occupancy(v.keys[i]) - 1;
          counts_[i] += others;
          observed += others;
        }
        collisions_tap_->add(observed);
      }
      return;
    }
    const std::uint32_t* const born =
        alive != nullptr ? dynamics_->birth_rounds() : nullptr;
    std::uint64_t observed = 0;
    for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
      if (alive != nullptr) {
        if (born[i] != seen_birth_[i]) {
          seen_birth_[i] = born[i];
          counts_[i] = 0;
          observed_rounds_[i] = 0;
        }
        if (alive[i] == 0) {
          continue;
        }
        ++observed_rounds_[i];
      }
      if (noise_.dropout > 0.0 && rng::bernoulli(v.gen, noise_.dropout)) {
        continue;  // reading lost entirely; no further draws this agent
      }
      std::uint64_t others = v.counter.occupancy(v.keys[i]) - 1;
      if (transforms) {
        others = dynamics_->observe(i, others, v.gen);
      }
      if (noise_.detection_miss > 0.0) {
        // Each partner is detected independently w.p. 1-p: one binomial
        // draw instead of the legacy per-partner Bernoulli loop.
        others = rng::binomial(v.gen, others, 1.0 - noise_.detection_miss);
      }
      if (noise_.spurious > 0.0 && rng::bernoulli(v.gen, noise_.spurious)) {
        ++others;
      }
      counts_[i] += others;
      observed += others;
    }
    if (collisions_tap_ != nullptr) {
      collisions_tap_->add(observed);
    }
  }

  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::vector<std::uint64_t> take_counts() { return std::move(counts_); }

  /// Algorithm 1's estimates c / t after a `rounds`-round walk: one per
  /// agent — or, under a model with an alive mask, one per slot alive at
  /// the end, over the rounds it observed since its birth.
  std::vector<double> estimates(std::uint32_t rounds) const;

 private:
  Noise noise_;
  const WorldDynamics* dynamics_ = nullptr;
  std::vector<std::uint64_t> counts_;
  /// Per-slot bookkeeping, sized only under a model with an alive mask.
  std::vector<std::uint32_t> observed_rounds_;
  std::vector<std::uint32_t> seen_birth_;
  /// Resolved from ambient telemetry at construction; null when
  /// telemetry is disabled (see walk_engine.cpp).
  obs::Counter* collisions_tap_ = nullptr;
};

/// Two-class counting for Section 5.2: total encounters and encounters
/// with property-P agents, from the same walk.  The property-occupancy
/// counter is filled in the engine's fill phase (concurrently under the
/// sharded engine) and read per agent in after_round.
class PropertyObserver {
 public:
  explicit PropertyObserver(std::vector<bool> has_property);

  void begin_round(std::uint32_t round);

  template <typename View>
  void fill(const View& v) {
    ANTDENSE_ASSERT(v.num_agents == has_property_.size(),
                    "observer sized for a different agent count");
    if (v.concurrent_fill) {
      for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
        if (has_property_[i]) {
          prop_counter_.add(v.keys[i]);
        }
      }
    } else {
      for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
        if (has_property_[i]) {
          prop_counter_.add_serial(v.keys[i]);
        }
      }
    }
  }

  template <typename View>
  void after_round(const View& v) {
    for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
      total_counts_[i] += v.counter.occupancy(v.keys[i]) - 1;
      const std::uint32_t prop_occ = prop_counter_.occupancy(v.keys[i]);
      property_counts_[i] += prop_occ - (has_property_[i] ? 1 : 0);
    }
  }

  const std::vector<std::uint64_t>& total_counts() const {
    return total_counts_;
  }
  const std::vector<std::uint64_t>& property_counts() const {
    return property_counts_;
  }
  std::vector<std::uint64_t> take_total_counts() {
    return std::move(total_counts_);
  }
  std::vector<std::uint64_t> take_property_counts() {
    return std::move(property_counts_);
  }

 private:
  std::vector<bool> has_property_;
  std::vector<std::uint64_t> total_counts_;
  std::vector<std::uint64_t> property_counts_;
  ConcurrentCollisionCounter prop_counter_;
};

/// Snapshots the running estimate c/r of the first `tracked_agents`
/// agents at each checkpoint (Algorithm 1 is anytime).  Reads counts
/// from a CollisionObserver, which must appear *before* this observer in
/// the engine's pack so its counts are current.  Snapshotting happens in
/// the serial end_round hook because it reads counts across every
/// shard's slice.
class TrajectoryObserver {
 public:
  TrajectoryObserver(const CollisionObserver& source,
                     std::uint32_t tracked_agents,
                     std::vector<std::uint32_t> checkpoints);

  void end_round(std::uint32_t round);

  const std::vector<std::uint32_t>& checkpoints() const {
    return checkpoints_;
  }
  /// estimates()[a][i] = agent a's running estimate at checkpoint i.
  const std::vector<std::vector<double>>& estimates() const {
    return estimates_;
  }
  std::vector<std::vector<double>> take_estimates() {
    return std::move(estimates_);
  }

 private:
  const CollisionObserver* source_;
  std::uint32_t tracked_;
  std::vector<std::uint32_t> checkpoints_;
  std::size_t next_checkpoint_ = 0;
  std::vector<std::vector<double>> estimates_;
};

namespace detail {

/// Shared precondition for checkpoint-driven observers: non-empty,
/// 1-based, strictly increasing.
void validate_checkpoints(const std::vector<std::uint32_t>& checkpoints);

template <typename Obs>
inline void notify_begin_round(Obs& obs, std::uint32_t round) {
  if constexpr (requires { obs.begin_round(round); }) {
    obs.begin_round(round);
  }
}

template <typename Obs, typename View, typename Node>
inline void notify_fill(Obs& obs, const View& view,
                        std::span<const Node> positions) {
  if constexpr (requires { obs.fill(view, positions); }) {
    obs.fill(view, positions);
  } else if constexpr (requires { obs.fill(view); }) {
    obs.fill(view);
  }
}

template <typename Obs, typename View, typename Node>
inline void notify_after_round(Obs& obs, const View& view,
                               std::span<const Node> positions) {
  if constexpr (requires { obs.after_round(view, positions); }) {
    obs.after_round(view, positions);
  } else if constexpr (requires { obs.after_round(view); }) {
    obs.after_round(view);
  }
}

template <typename Obs>
inline void notify_end_round(Obs& obs, std::uint32_t round) {
  if constexpr (requires { obs.end_round(round); }) {
    obs.end_round(round);
  }
}

}  // namespace detail

/// Runs the synchronous round loop: place agents (uniform i.i.d., or the
/// caller's `initial_positions`), step them `cfg.rounds` times, fill the
/// occupancy counter, and fire every observer hook after each round.
/// `stream_seed` seeds the generator directly — callers that expose a
/// user-facing seed derive their own stream tag first (see
/// run_density_walk).  Deterministic in `stream_seed`.
template <graph::Topology T, class... Obs>
  requires(WalkObserverFor<Obs, typename T::node_type> && ...)
void run_walk_single(
    const T& topo, const WalkConfig& cfg, std::uint64_t stream_seed,
    const std::vector<typename T::node_type>* initial_positions,
    Obs&... observers) {
  cfg.validate();
  using node = typename T::node_type;
  const std::uint32_t n_agents = cfg.num_agents;
  ANTDENSE_CHECK(initial_positions == nullptr ||
                     initial_positions->size() == n_agents,
                 "initial positions must match agent count");

  rng::Xoshiro256pp gen(stream_seed);
  std::vector<node> pos(n_agents);
  if (initial_positions != nullptr) {
    pos = *initial_positions;
  } else {
    for (auto& p : pos) {
      p = topo.random_node(gen);
    }
  }

  std::vector<std::uint64_t> keys(n_agents);
  CollisionCounter counter(n_agents);
  const bool lazy = cfg.lazy_probability > 0.0;

  // Dynamics plumbing (sim/dynamics.hpp): dormant — null model, no
  // copies, per-round branches only — for static walks, whose stream
  // and output stay bit-identical to the historical goldens.  The
  // mutation generator is its own domain-tagged stream; the walk
  // stream `gen` is never touched by dynamics.
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
  std::vector<node> prev;

  obs::EngineTap tap("single", {"step", "count", "observe", "mutate"});
  for (std::uint32_t r = 1; r <= cfg.rounds; ++r) {
    counter.begin_round();
    if constexpr (kDynCapable) {
      // The world is pristine in round 1 (the mutation phase runs
      // *between* rounds).
      if (dyn != nullptr && r > 1) {
        const obs::EngineTap::PhaseSpan phase(tap, 3);
        dyn->mutate(r, mut_gen, std::span<std::uint64_t>(pos),
                    std::span<const std::uint64_t>(keys));
      }
    }
    {
      // The step phase books the move rewrite and its snapshot too, as
      // the sharded engine's step_count does.
      const obs::EngineTap::PhaseSpan phase(tap, 0);
      if constexpr (kDynCapable) {
        // Mutation may relocate evicted or reborn agents, so the
        // pre-step snapshot is taken after it.
        if (rewrites) {
          prev = pos;
        }
      }
      if (lazy) {
        // Interleaved stay/step draws — must match the legacy stream,
        // so no batching here.
        for (std::uint32_t i = 0; i < n_agents; ++i) {
          if (!rng::bernoulli(gen, cfg.lazy_probability)) {
            pos[i] = topo.random_neighbor(pos[i], gen);
          }
        }
      } else {
        graph::random_neighbors(topo, std::span<const node>(pos),
                                std::span<node>(pos), gen);
      }
      if constexpr (kDynCapable) {
        if (rewrites) {
          // Deterministic post-step veto/deflection of moves blocked by
          // the mutated world: the walk stream drew the step exactly as
          // the static engine would have.  The rewrite keys the final
          // positions for the count phase.
          dyn->rewrite_moves(prev, pos, keys, 0, n_agents);
        }
      }
    }
    {
      const obs::EngineTap::PhaseSpan phase(tap, 1);
      if (!rewrites) {
        graph::node_keys(topo, std::span<const node>(pos),
                         std::span<std::uint64_t>(keys));
      }
      if (count_mask != nullptr) {
        for (std::uint32_t i = 0; i < n_agents; ++i) {
          if (count_mask[i] != 0) {
            counter.add(keys[i]);
          }
        }
      } else {
        for (std::uint32_t i = 0; i < n_agents; ++i) {
          counter.add(keys[i]);
        }
      }
    }
    const RoundView view{r,
                         0,
                         n_agents,
                         n_agents,
                         std::span<const std::uint64_t>(keys),
                         counter,
                         gen,
                         /*concurrent_fill=*/false};
    const std::span<const node> positions(pos);
    {
      const obs::EngineTap::PhaseSpan phase(tap, 2);
      (detail::notify_begin_round(observers, r), ...);
      (detail::notify_fill(observers, view, positions), ...);
      (detail::notify_after_round(observers, view, positions), ...);
      (detail::notify_end_round(observers, r), ...);
    }
  }
  tap.add_rounds(cfg.rounds);
  tap.add_agent_steps(static_cast<std::uint64_t>(cfg.rounds) * n_agents);
}

}  // namespace antdense::sim
