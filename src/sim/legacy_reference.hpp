// Frozen pre-engine round loops, kept verbatim from the original
// density_sim.hpp implementation.
//
// These are NOT part of the public API.  They exist so that
//   - tests/test_walk_engine.cpp can assert the observer-based WalkEngine
//     reproduces the original collision counts bit-for-bit at fixed seeds
//     (differential testing), and
//   - bench/bench_engine.cpp can report legacy-vs-engine ns/agent-round.
// Do not "improve" these loops: their value is that they never change.
// The live implementations are thin wrappers over sim::run_walk
// (sim/density_sim.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/collision_counter.hpp"
#include "sim/density_sim.hpp"
#include "util/check.hpp"

namespace antdense::sim::legacy {

/// The original run_density_walk: per-agent random_neighbor calls and a
/// per-partner Bernoulli rejection loop for detection misses.
template <graph::Topology T>
DensityResult run_density_walk(
    const T& topo, const DensityConfig& cfg, std::uint64_t seed,
    const std::vector<typename T::node_type>* initial_positions = nullptr) {
  cfg.validate();
  const std::uint32_t n_agents = cfg.num_agents;
  ANTDENSE_CHECK(initial_positions == nullptr ||
                     initial_positions->size() == n_agents,
                 "initial positions must match agent count");

  rng::Xoshiro256pp gen(rng::derive_seed(seed, 0x51u));
  std::vector<typename T::node_type> pos(n_agents);
  if (initial_positions != nullptr) {
    pos = *initial_positions;
  } else {
    for (auto& p : pos) {
      p = topo.random_node(gen);
    }
  }

  std::vector<std::uint64_t> keys(n_agents);
  std::vector<std::uint64_t> counts(n_agents, 0);
  CollisionCounter counter(n_agents);

  const bool lazy = cfg.lazy_probability > 0.0;
  const bool noisy = cfg.detection_miss_probability > 0.0 ||
                     cfg.spurious_collision_probability > 0.0;

  for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
    counter.begin_round();
    for (std::uint32_t i = 0; i < n_agents; ++i) {
      if (!lazy || !rng::bernoulli(gen, cfg.lazy_probability)) {
        pos[i] = topo.random_neighbor(pos[i], gen);
      }
      keys[i] = topo.key(pos[i]);
      counter.add(keys[i]);
    }
    if (!noisy) {
      for (std::uint32_t i = 0; i < n_agents; ++i) {
        counts[i] += counter.occupancy(keys[i]) - 1;
      }
    } else {
      for (std::uint32_t i = 0; i < n_agents; ++i) {
        std::uint32_t others = counter.occupancy(keys[i]) - 1;
        if (cfg.detection_miss_probability > 0.0) {
          std::uint32_t detected = 0;
          for (std::uint32_t j = 0; j < others; ++j) {
            if (!rng::bernoulli(gen, cfg.detection_miss_probability)) {
              ++detected;
            }
          }
          others = detected;
        }
        if (cfg.spurious_collision_probability > 0.0 &&
            rng::bernoulli(gen, cfg.spurious_collision_probability)) {
          ++others;
        }
        counts[i] += others;
      }
    }
  }

  DensityResult result;
  result.collision_counts = std::move(counts);
  result.rounds = cfg.rounds;
  result.num_nodes = topo.num_nodes();
  return result;
}

/// The original run_property_walk (never applied laziness or noise).
template <graph::Topology T>
PropertyResult run_property_walk(const T& topo, const DensityConfig& cfg,
                                 const std::vector<bool>& has_property,
                                 std::uint64_t seed) {
  cfg.validate();
  const std::uint32_t n_agents = cfg.num_agents;
  ANTDENSE_CHECK(has_property.size() == n_agents,
                 "property flags must match agent count");

  rng::Xoshiro256pp gen(rng::derive_seed(seed, 0x52u));
  std::vector<typename T::node_type> pos(n_agents);
  for (auto& p : pos) {
    p = topo.random_node(gen);
  }

  std::vector<std::uint64_t> keys(n_agents);
  PropertyResult result;
  result.total_counts.assign(n_agents, 0);
  result.property_counts.assign(n_agents, 0);
  CollisionCounter all_counter(n_agents);
  CollisionCounter prop_counter(n_agents);

  for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
    all_counter.begin_round();
    prop_counter.begin_round();
    for (std::uint32_t i = 0; i < n_agents; ++i) {
      pos[i] = topo.random_neighbor(pos[i], gen);
      keys[i] = topo.key(pos[i]);
      all_counter.add(keys[i]);
      if (has_property[i]) {
        prop_counter.add(keys[i]);
      }
    }
    for (std::uint32_t i = 0; i < n_agents; ++i) {
      result.total_counts[i] += all_counter.occupancy(keys[i]) - 1;
      const std::uint32_t prop_occ = prop_counter.occupancy(keys[i]);
      result.property_counts[i] += prop_occ - (has_property[i] ? 1 : 0);
    }
  }
  result.rounds = cfg.rounds;
  result.num_nodes = topo.num_nodes();
  return result;
}

}  // namespace antdense::sim::legacy
