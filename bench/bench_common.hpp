// Shared helpers for the experiment benches: uniform headers, measured
// epsilon-at-confidence for a density-estimation configuration,
// power-law fit reporting, and the ns/agent-round timers of the perf
// benches (bench_engine, bench_shard).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "graph/topology.hpp"
#include "rng/splitmix64.hpp"
#include "sim/density_sim.hpp"
#include "sim/trial_runner.hpp"
#include "stats/concentration.hpp"
#include "stats/regression.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace antdense::bench {

/// Prints the standard experiment banner: id, paper artifact, and what
/// shape agreement means for this experiment.
inline void print_banner(const std::string& experiment_id,
                         const std::string& paper_artifact,
                         const std::string& acceptance) {
  std::cout << "# " << experiment_id << " — " << paper_artifact << "\n\n";
  std::cout << "Acceptance (shape, not constants): " << acceptance << "\n";
}

/// Measured ε at confidence level `confidence` for Algorithm 1 run with
/// `num_agents` agents for `rounds` rounds on `topo`, pooling all agents
/// across `trials` runs.
template <graph::Topology T>
double measure_epsilon(const T& topo, std::uint32_t num_agents,
                       std::uint32_t rounds, double confidence,
                       std::uint64_t seed, std::uint32_t trials,
                       unsigned threads = 0) {
  sim::DensityConfig cfg;
  cfg.num_agents = num_agents;
  cfg.rounds = rounds;
  const auto estimates =
      sim::collect_all_agent_estimates(topo, cfg, seed, trials, threads);
  const double d = static_cast<double>(num_agents - 1) /
                   static_cast<double>(topo.num_nodes());
  return stats::epsilon_at_confidence(estimates, d, confidence);
}

/// Prints a one-line power-law fit summary: "fit: y ~ x^slope (R²=...)".
/// Degenerate inputs (fewer than two strictly positive points, e.g. a
/// method with exactly zero error everywhere) print "n/a".
inline void print_power_fit(const std::string& label,
                            const std::vector<double>& x,
                            const std::vector<double>& y) {
  std::size_t usable = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 0.0 && y[i] > 0.0) {
      ++usable;
    }
  }
  if (usable < 2) {
    std::cout << "\nfit [" << label << "]: n/a (fewer than two positive "
              << "points — method is exact here)\n";
    return;
  }
  const stats::LinearFit fit = stats::log_log_fit(x, y);
  std::cout << "\nfit [" << label << "]: slope = "
            << util::format_fixed(fit.slope, 3)
            << " (R^2 = " << util::format_fixed(fit.r_squared, 4) << ")\n";
}

/// Geometric sweep {start, start*2, ..., <= stop}.
inline std::vector<std::uint32_t> powers_of_two(std::uint32_t start,
                                                std::uint32_t stop) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t v = start; v <= stop; v *= 2) {
    out.push_back(v);
  }
  return out;
}

/// Best-of-`reps` ns/agent-round for one stepping path; `run(rep)`
/// runs the whole walk once.
template <typename RunFn>
double time_path(RunFn&& run, std::uint64_t agents, std::uint64_t rounds,
                 int reps) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    util::WallTimer timer;
    run(static_cast<std::uint64_t>(rep));
    const double ns = timer.elapsed_seconds() * 1e9 /
                      (static_cast<double>(agents) * rounds);
    best = ns < best ? ns : best;
  }
  return best;
}

/// Median ns/agent-round of each path over `reps` reps, the paths timed
/// alternately (a, b, ..., a, b, ...) so all see the same host noise.
/// Rows that share a gate are timed this way.  Needs reps >= 1.
template <typename... RunFns>
std::array<double, sizeof...(RunFns)> time_interleaved(
    int reps, std::uint64_t agents, std::uint64_t rounds, RunFns&&... runs) {
  ANTDENSE_CHECK(reps >= 1, "a median needs at least one rep");
  std::array<std::vector<double>, sizeof...(RunFns)> ns;
  for (int rep = 0; rep < reps; ++rep) {
    std::size_t k = 0;
    (ns[k++].push_back(time_path(runs, agents, rounds, 1)), ...);
  }
  std::array<double, sizeof...(RunFns)> medians{};
  for (std::size_t k = 0; k < ns.size(); ++k) {
    std::nth_element(ns[k].begin(), ns[k].begin() + reps / 2, ns[k].end());
    medians[k] = ns[k][static_cast<std::size_t>(reps / 2)];
  }
  return medians;
}

}  // namespace antdense::bench
