// The built-in WorldDynamics implementations (sim/dynamics.hpp) and the
// dynamic density driver.  Three perturbation models, spec grammar in
// scenario/dynamics_registry.cpp:
//
//   churn:p_edge=,p_fail=[,mean_down=][,seed=]
//     Edge churn + node failure on a time-varying overlay
//     (graph/time_varying.hpp).  Each mutation tick: down elements
//     recover w.p. 1/mean_down, Binomial(num_nodes, p_edge) random
//     edges go down, Binomial(num_nodes, p_fail) random nodes fail,
//     and walkers standing on failed nodes deflect to the
//     smallest-key surviving neighbor.  Moves across down edges or
//     onto failed nodes are rewritten deterministically after the
//     (unchanged) walk-stream step.
//
//   drift:p_death=,p_birth=[,seed=]
//     Agent birth/death for density estimation under population
//     drift.  Each tick every living slot dies w.p. p_death and every
//     dead slot is reborn w.p. p_birth at a uniform node.  Dead slots
//     keep stepping (the walk stream is never disturbed) but neither
//     count into round occupancy nor observe; a reborn slot is a new
//     anonymous agent whose estimate restarts at its birth round.
//
//   fade:p0=,step=[,seed=]
//     Per-observation sensing noise generalizing Section 6.1's
//     detection-miss: each agent carries its own miss probability,
//     initialized at p0 and performing a reflected +-step random walk
//     on [0,1] per mutation tick — heterogeneous, time-varying sensor
//     quality (cf. Hindes et al., stochastic sensing).
//
// All mutation randomness comes from the engine-provided mutation
// stream; observation draws (fade) come from the observer's view
// generator in agent order, which keeps every model's draws on the
// sharded engine's shard streams.  The density observer is the
// plain CollisionObserver (sim/walk_engine.hpp) handed the model: it
// reads drift's alive mask and birth rounds, and fade's transform.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/any_topology.hpp"
#include "graph/time_varying.hpp"
#include "obs/telemetry.hpp"
#include "rng/random.hpp"
#include "sim/density_sim.hpp"
#include "sim/dynamics.hpp"
#include "sim/walk_engine.hpp"
#include "util/check.hpp"

namespace antdense::sim {

/// Telemetry taps shared by the models: resolved from ambient telemetry
/// at construction (caller thread), null and free when disabled.
struct DynamicsInstruments {
  explicit DynamicsInstruments(const char* model);

  void add(obs::Counter* c, std::uint64_t n) const {
    if (c != nullptr) {
      c->add(n);
    }
  }

  obs::Counter* node_fails = nullptr;
  obs::Counter* edge_drops = nullptr;
  obs::Counter* recoveries = nullptr;
  obs::Counter* deaths = nullptr;
  obs::Counter* births = nullptr;
};

/// Edge churn + node failure (see file comment for the tick).
class ChurnDynamics final : public WorldDynamics {
 public:
  ChurnDynamics(const graph::AnyTopology& topo, double p_edge, double p_fail,
                std::uint32_t mean_down, std::uint64_t seed);

  std::string name() const override;
  std::uint64_t model_seed() const override { return seed_; }
  void mutate(std::uint32_t round, rng::Xoshiro256pp& mut_gen,
              std::span<std::uint64_t> positions,
              std::span<const std::uint64_t> keys) override;
  bool rewrites_moves() const override {
    return p_edge_ > 0.0 || p_fail_ > 0.0;
  }
  void rewrite_moves(std::span<const std::uint64_t> prev,
                     std::span<std::uint64_t> pos,
                     std::span<std::uint64_t> keys, std::uint32_t begin,
                     std::uint32_t end) const override;

  const graph::TimeVaryingWorld& world() const { return world_; }

 private:
  graph::TimeVaryingWorld world_;
  double p_edge_;
  double p_fail_;
  std::uint32_t mean_down_;
  std::uint64_t seed_;
  rng::Binomial edge_events_;  // Binomial(num_nodes, p_edge) per tick
  rng::Binomial fail_events_;  // Binomial(num_nodes, p_fail) per tick
  std::vector<std::uint64_t> scratch_;  // mutate-phase only (serial)
  std::vector<std::uint64_t> fresh_;  // keys of this tick's new failures
  graph::detail::KeyFilter fresh_filter_;  // holds fresh_ while scanning
  bool stranded_ = false;  // the last eviction scan left a walker in place
  std::uint32_t last_round_ = 0;  // round of the last mutate call
  DynamicsInstruments instruments_;
};

/// Agent birth/death under population drift (see file comment).
class DriftDynamics final : public WorldDynamics {
 public:
  DriftDynamics(const graph::AnyTopology& topo, std::uint32_t num_agents,
                double p_death, double p_birth, std::uint64_t seed);

  std::string name() const override;
  std::uint64_t model_seed() const override { return seed_; }
  void mutate(std::uint32_t round, rng::Xoshiro256pp& mut_gen,
              std::span<std::uint64_t> positions,
              std::span<const std::uint64_t> keys) override;
  const std::uint8_t* count_mask() const override { return alive_.data(); }
  const std::uint32_t* birth_rounds() const override {
    return birth_round_.data();
  }

 private:
  const graph::AnyTopology* topo_;
  double p_death_;
  double p_birth_;
  std::uint64_t seed_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint32_t> birth_round_;
  DynamicsInstruments instruments_;
};

/// Per-agent time-varying detection-miss probability (see file comment).
class FadeDynamics final : public WorldDynamics {
 public:
  FadeDynamics(std::uint32_t num_agents, double p0, double step,
               std::uint64_t seed);

  std::string name() const override;
  std::uint64_t model_seed() const override { return seed_; }
  void mutate(std::uint32_t round, rng::Xoshiro256pp& mut_gen,
              std::span<std::uint64_t> positions,
              std::span<const std::uint64_t> keys) override;
  bool transforms_observations() const override { return true; }
  std::uint64_t observe(std::uint32_t slot, std::uint64_t others,
                        rng::Xoshiro256pp& gen) const override {
    const double miss = miss_[slot];
    if (miss <= 0.0 || others == 0) {
      return others;
    }
    return rng::binomial(gen, others, 1.0 - miss);
  }

  const std::vector<double>& miss_probabilities() const { return miss_; }

 private:
  double p0_;
  double step_;
  std::uint64_t seed_;
  std::vector<double> miss_;
};

/// Algorithm 1 with a dynamic world: run_density_walk's stream (tag
/// 0x51) on `exec`'s engine, the model mutating between rounds from its
/// own derived stream.  Returns the living population's estimates
/// (CollisionObserver::estimates).
inline std::vector<double> run_dynamic_density_walk(
    const graph::AnyTopology& topo, const DensityConfig& cfg,
    WorldDynamics& model, std::uint64_t seed,
    const Exec& exec = SingleExec{}) {
  cfg.validate();
  CollisionObserver observer(cfg.num_agents, cfg.noise(), &model);
  WalkConfig wcfg = cfg.walk_config();
  wcfg.dynamics = &model;
  run_walk(topo, wcfg, rng::derive_seed(seed, 0x51u), exec, nullptr,
           observer);
  return observer.estimates(cfg.rounds);
}

}  // namespace antdense::sim
