// Multi-trial Monte Carlo drivers, all on one fan-out (run_trials) and
// any engine (sim::Exec).
//
// The trial rule: one trial runs on the calling thread at `seed` itself,
// on `exec` as given; more trials run trial t at derive_seed(seed, t),
// spread over `threads` workers, each walk on the worker that runs it.
// Output is identical for any thread count.  scenario::Experiment runs
// every workload through this rule.
//
// Two sampling disciplines on top of it:
//   - collect_all_agent_estimates: pools every agent's estimate from each
//     trial.  Matches the paper's multi-agent viewpoint (Theorem 1 holds
//     per agent; the union-bound remark covers all agents), but estimates
//     within one trial are mildly correlated.
//   - collect_single_agent_estimates: keeps only agent 0 per trial,
//     giving fully independent samples for tail estimation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/topology.hpp"
#include "obs/telemetry.hpp"
#include "rng/splitmix64.hpp"
#include "sim/density_sim.hpp"
#include "util/parallel.hpp"

namespace antdense::sim {

/// The one trial fan-out: runs `run_trial(trial_seed, trial_exec)` ->
/// estimates under the trial rule above and concatenates the results in
/// trial order.  When set, `on_trial_done(trial)` fires from the worker
/// that finished that trial (concurrently across workers) — a progress
/// tap, never part of the result.
template <typename RunTrialFn>
std::vector<double> run_trials(
    std::uint32_t trials, std::uint64_t seed, const Exec& exec,
    unsigned threads, RunTrialFn&& run_trial,
    const std::function<void(std::size_t)>& on_trial_done = {}) {
  if (trials == 1) {
    std::vector<double> out = run_trial(seed, exec);
    if (on_trial_done) {
      on_trial_done(0);
    }
    return out;
  }
  std::vector<std::vector<double>> per_trial(trials);
  // Captured on the caller thread and re-installed per worker so
  // engine taps fire inside each trial (telemetry never affects the
  // estimates — trials are seeded by index, not by thread).
  obs::Telemetry* telemetry = obs::ambient_telemetry();
  util::parallel_for(
      trials,
      [&](std::size_t trial) {
        obs::ScopedTelemetry ambient(telemetry);
        per_trial[trial] = run_trial(rng::derive_seed(seed, trial), exec);
        if (on_trial_done) {
          on_trial_done(trial);
        }
      },
      threads);
  std::vector<double> all;
  all.reserve(static_cast<std::size_t>(trials) * per_trial[0].size());
  for (const auto& v : per_trial) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

template <graph::Topology T>
std::vector<double> collect_all_agent_estimates(
    const T& topo, const DensityConfig& cfg, std::uint64_t root_seed,
    std::uint32_t trials, unsigned threads = 0,
    const Exec& exec = SingleExec{}) {
  return run_trials(trials, root_seed, exec, threads,
                    [&](std::uint64_t seed, const Exec& trial_exec) {
                      return run_density_walk(topo, cfg, seed, trial_exec)
                          .estimates();
                    });
}

template <graph::Topology T>
std::vector<double> collect_single_agent_estimates(const T& topo,
                                                   const DensityConfig& cfg,
                                                   std::uint64_t root_seed,
                                                   std::uint32_t trials,
                                                   unsigned threads = 0) {
  return run_trials(trials, root_seed, SingleExec{}, threads,
                    [&](std::uint64_t seed, const Exec& exec) {
                      const DensityResult r =
                          run_density_walk(topo, cfg, seed, exec);
                      return std::vector<double>{
                          static_cast<double>(r.collision_counts[0]) /
                          r.rounds};
                    });
}

}  // namespace antdense::sim
