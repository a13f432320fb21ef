// What every round loop plugs into (Musco, Su & Lynch, PODC 2016,
// arXiv:1603.02981, Algorithm 1): the movement config, the per-round
// view, and the observers every workload is built from — density
// estimation, two-class property counting, trajectory recording,
// local-density profiling.  One round loop drives them: the shard loop
// (sim/sharded_walk.hpp), behind engine=single, engine=sharded and
// engine=vector; sim::run_walk (sim/density_sim.hpp) fixes its streams.
//
// Observers are a compile-time pack, so a loop inlines their hooks with
// zero dispatch cost.  Hooks fire in pack order each round: begin_round
// (serial setup), fill (auxiliary occupancy counting), after_round
// (per-agent reads, seeing the round's keys, the occupancy counter, the
// positions if asked for, and the generator for noise draws), and
// end_round (cross-agent snapshots).  Generator-stream compatibility of
// engine=single with the pre-engine loops is part of the contract
// (tests/test_walk_engine.cpp pins it bit-for-bit); the one deliberate
// re-golden is the detection-miss path, which now uses a single
// binomial draw per agent (rng::binomial) instead of a per-partner
// Bernoulli loop.
//
// The hooks work on a *view* that names an agent range [begin_agent,
// end_agent): one shard of the population, which is all of it under
// engine=single and the vector engine.  Observer state indexed by agent
// id is therefore written in disjoint slices, which is what makes the
// sharded merge free.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "obs/telemetry.hpp"
#include "rng/random.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/dense_counter.hpp"
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
  /// uint64-node topology (the scenario layer's AnyTopology); every
  /// engine runs it.
  WorldDynamics* dynamics = nullptr;

  void validate() const;
};

/// What an observer sees at the end of each round.  Everything is a view
/// into engine state; observers must not hold onto it past the call.
/// `Counter` is whichever occupancy counter the loop runs on
/// (with_occupancy_counter, sim/dense_counter.hpp): dense or hash, both
/// exact, so observers templated on the view read the same counts from
/// each.
/// `gen` is the generator whose draws are reproducible for this view's
/// agent range — the shard's stream (the stream seed itself under
/// engine=single), or the vector engine's observer stream.
/// Observers that draw from it (noise models) become part of the
/// reproducible stream, in pack order.
/// after_round hooks must only write observer state belonging to agents
/// in [begin_agent, end_agent); the sharded engine runs them once per
/// shard, so each call sees one range.  Both fill and after_round hooks
/// run in shard order.
template <typename Counter>
struct BasicRoundView {
  std::uint32_t round = 0;        // 1-based
  std::uint32_t begin_agent = 0;  // this view's agent range
  std::uint32_t end_agent = 0;
  std::uint32_t num_agents = 0;         // whole population
  std::span<const std::uint64_t> keys;  // keys[i] = key of agent i's node
  const Counter& counter;               // occupancy of the current round
  rng::Xoshiro256pp& gen;
};

/// An observer is any type with at least one per-round hook:
/// `after_round(view)`, `after_round(view, positions)` (node handles,
/// not keys), or `end_round(round)`.  Optional hooks: `begin_round
/// (round)` (serial, before the round's fills) and `fill(view)`
/// (auxiliary occupancy counting between stepping and after_round).
///
/// The concept is checked against the *actual* view type a loop passes,
/// and WalkObserver against every view an entry point can pick: the
/// notify helpers skip hooks a view type cannot call, so without this
/// check an observer written against the wrong view would compile and
/// silently record nothing.
template <typename O, typename Node, typename View>
concept WalkObserverForView =
    requires(O& o, const View& v, std::span<const Node> pos,
             std::uint32_t round) {
      requires requires { o.after_round(v); } ||
                   requires { o.after_round(v, pos); } ||
                   requires { o.end_round(round); };
    };

/// An observer for every counter with_occupancy_counter can pick.
template <typename O, typename Node>
concept WalkObserver =
    WalkObserverForView<O, Node, BasicRoundView<DenseCollisionCounter>> &&
    WalkObserverForView<O, Node, BasicRoundView<CollisionCounter>>;

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
/// with property-P agents, from the same walk.  The carrier-occupancy
/// counter — picked by the same policy as the round's own counter
/// (make_occupancy_counter) — is filled in the engine's serial fill
/// phase and read per agent in after_round.
class PropertyObserver {
 public:
  /// `num_nodes`: the substrate's node count, for the counter policy.
  PropertyObserver(std::vector<bool> has_property, std::uint64_t num_nodes);

  void begin_round(std::uint32_t round);

  template <typename View>
  void fill(const View& v) {
    ANTDENSE_ASSERT(v.num_agents == has_property_.size(),
                    "observer sized for a different agent count");
    std::visit(
        [&](auto& carriers) {
          for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
            if (has_property_[i]) {
              carriers.add(v.keys[i]);
            }
          }
        },
        carriers_);
  }

  template <typename View>
  void after_round(const View& v) {
    std::visit(
        [&](const auto& carriers) {
          for (std::uint32_t i = v.begin_agent; i < v.end_agent; ++i) {
            total_counts_[i] += v.counter.occupancy(v.keys[i]) - 1;
            const std::uint32_t prop_occ = carriers.occupancy(v.keys[i]);
            property_counts_[i] += prop_occ - (has_property_[i] ? 1 : 0);
          }
        },
        carriers_);
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
  OccupancyCounter carriers_;
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

}  // namespace antdense::sim
