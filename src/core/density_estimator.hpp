// Algorithm 1 — the paper's headline contribution.
//
// Paper: Musco, Su & Lynch, "Ant-Inspired Density Estimation via Random
// Walks" (PODC 2016, arXiv:1603.02981).  This header implements
// Algorithm 1 (Section 3) and the Theorem 1 round planner (Section 4);
// see docs/ARCHITECTURE.md for the full concept-to-header map.
//
// Each agent walks randomly for t rounds, summing count(position) after
// every step, and returns c/t.  Theorem 1: on the 2-D torus, with
// t >= c2 log(1/δ)[loglog(1/δ) + log(1/dε)]²/(dε²) rounds (and t <= A),
// the estimate is within (1±ε) of d with probability 1-δ.  Lemma 19
// extends the guarantee to any regular graph through its accumulated
// re-collision mass B(t).
//
// This header is the user-facing API; the engine lives in sim/.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/bounds.hpp"
#include "graph/topology.hpp"
#include "sim/density_sim.hpp"
#include "util/check.hpp"

namespace antdense::core {

struct DensityEstimationResult {
  /// One estimate per agent (every agent runs Algorithm 1 concurrently).
  std::vector<double> estimates;
  /// The true density d = n/A (n = agents - 1) for comparison.
  double true_density = 0.0;
  std::uint32_t rounds = 0;
};

/// Runs Algorithm 1 with `num_agents` agents for `rounds` rounds.
/// Agents are placed i.i.d. uniformly at random (the paper's model).
/// Deterministic in `seed`.
template <graph::Topology T>
DensityEstimationResult estimate_density(const T& topo,
                                         std::uint32_t num_agents,
                                         std::uint32_t rounds,
                                         std::uint64_t seed) {
  ANTDENSE_CHECK(num_agents >= 2,
                 "density estimation needs at least two agents");
  sim::DensityConfig cfg;
  cfg.num_agents = num_agents;
  cfg.rounds = rounds;
  const sim::DensityResult raw = sim::run_density_walk(topo, cfg, seed);
  DensityEstimationResult out;
  out.estimates = raw.estimates();
  out.true_density = raw.true_density();
  out.rounds = rounds;
  return out;
}

/// Theorem 1's planning helper: a round budget sufficient for every agent
/// to land within (1±ε)d with probability 1-δ, on the 2-D torus.  The
/// paper leaves the constant unspecified; `constant` defaults to 1, which
/// the theorem1_budget campaign (examples/campaigns/) shows meets the
/// (ε, δ) envelope on the measured process.
inline std::uint64_t recommended_rounds(double epsilon, double density,
                                        double delta,
                                        double constant = 1.0) {
  return theorem1_rounds(epsilon, density, delta, constant);
}

/// The executable round plan: Theorem 1's budget capped at A = num_nodes
/// (the theorem's validity range t <= A) and clamped into the engine's
/// uint32 round counter, never below one round.  Shared by the
/// quickstart example and the scenario layer's (eps, delta) resolution
/// so the cap lives in exactly one place.
inline std::uint32_t plan_rounds(double epsilon, double delta, double density,
                                 std::uint64_t num_nodes,
                                 double constant = 1.0) {
  const std::uint64_t budget =
      theorem1_rounds(epsilon, density, delta, constant);
  const std::uint64_t capped = std::max<std::uint64_t>(
      1, std::min({budget, num_nodes,
                   std::uint64_t{std::numeric_limits<std::uint32_t>::max()}}));
  return static_cast<std::uint32_t>(capped);
}

}  // namespace antdense::core
