// Section 5.2 — relative frequency estimation.
//
// Agents separately track encounters with agents carrying a detectable
// property P (successful foragers, enemies, robots of a task group).
// With d the overall density and d_P the density of P-agents, the ratio
// f̃_P = d̃_P / d̃ estimates f_P = d_P / d; the paper shows that t rounds
// sufficient for (ε, δ) estimation of d_P give a (1±O(ε)) estimate of
// f_P with probability 1-2δ.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981); full
// concept-to-header map in docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/topology.hpp"
#include "sim/density_sim.hpp"
#include "util/check.hpp"

namespace antdense::core {

struct PropertyFrequencyResult {
  std::vector<double> density_estimates;    // d~ per agent
  std::vector<double> property_estimates;   // d~_P per agent
  std::vector<double> frequency_estimates;  // f~_P = d~_P / d~ per agent
  double true_density = 0.0;
  double true_property_density = 0.0;
  double true_frequency = 0.0;
  std::uint32_t rounds = 0;
};

/// Runs the two-rate tracker with `num_property` of the `num_agents`
/// agents carrying property P (assigned uniformly at random, matching the
/// paper's uniform-distribution assumption).  Agents with zero total
/// encounters report frequency 0.
template <graph::Topology T>
PropertyFrequencyResult estimate_property_frequency(const T& topo,
                                                    std::uint32_t num_agents,
                                                    std::uint32_t num_property,
                                                    std::uint32_t rounds,
                                                    std::uint64_t seed) {
  ANTDENSE_CHECK(num_agents >= 2, "need at least two agents");
  ANTDENSE_CHECK(num_property <= num_agents,
                 "property count cannot exceed agent count");

  const std::vector<bool> has_property =
      sim::draw_property_carriers(num_agents, num_property, seed);
  sim::DensityConfig cfg;
  cfg.num_agents = num_agents;
  cfg.rounds = rounds;
  const sim::PropertyResult raw =
      sim::run_property_walk(topo, cfg, has_property, seed);

  PropertyFrequencyResult out;
  out.rounds = rounds;
  const double area = static_cast<double>(topo.num_nodes());
  out.true_density = static_cast<double>(num_agents - 1) / area;
  // From a non-P agent's viewpoint there are num_property P-agents; from
  // a P-agent's viewpoint, num_property - 1.  For reporting we use the
  // population value d_P = num_property / A, the quantity Section 5.2
  // defines.
  out.true_property_density = static_cast<double>(num_property) / area;
  out.true_frequency = out.true_density == 0.0
                           ? 0.0
                           : out.true_property_density / out.true_density;
  out.density_estimates.reserve(num_agents);
  out.property_estimates.reserve(num_agents);
  out.frequency_estimates.reserve(num_agents);
  for (std::uint32_t i = 0; i < num_agents; ++i) {
    const double c = static_cast<double>(raw.total_counts[i]);
    const double cp = static_cast<double>(raw.property_counts[i]);
    out.density_estimates.push_back(c / rounds);
    out.property_estimates.push_back(cp / rounds);
    out.frequency_estimates.push_back(c == 0.0 ? 0.0 : cp / c);
  }
  return out;
}

}  // namespace antdense::core
