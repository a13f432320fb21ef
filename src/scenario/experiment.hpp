// The imperative half of the runtime scenario API: Experiment validates
// a ScenarioSpec, builds its substrate through the Registry, resolves
// the round budget (explicit rounds, or Theorem-1 planning via
// core::plan_rounds), and runs the requested workload.  Each workload
// is one row — a seed tag, an observer set, a result extraction — run
// under sim::run_trials' trial rule on the sim::Exec the spec's `engine`
// maps to (sim/density_sim.hpp): density is a CollisionObserver (handed
// the dynamics model, if any), property a PropertyObserver, trajectory
// a CollisionObserver plus TrajectoryObserver, local density the
// generic BallDensityObserver.
//
// The result is one uniform ScenarioResult for all four workloads:
// pooled per-agent estimates, summary statistics, optional checkpointed
// series, and a stable JSON serialization (schema
// "antdense.scenario.v1") that antdense_run emits and CI
// schema-validates.  Determinism: a ScenarioResult is bit-identical for
// a fixed spec, for any thread count, on every engine.  The engines
// (single stream, sharded per-shard streams, wide-lane vector) are
// distinct experiments with distinct identities, so `threads` remains a
// pure resource knob.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/any_topology.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "util/json.hpp"

namespace antdense::scenario {

/// Moment summary of the pooled estimates, plus the paper's headline
/// accuracy metric: the fraction of estimates within (1 ± eps) of truth.
///
/// `standard_error` is stddev / sqrt(count), which treats the agents ×
/// trials estimates as independent.  They are not: every encounter
/// counts for both agents in it, so the estimates of one walk pair up
/// (roughly doubling the pooled mean's variance) and the figure
/// understates its error.  The campaign claims allow 3·√2 of it.
struct ScenarioSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;          // sample standard deviation
  double standard_error = 0.0;  // of the mean
  double min = 0.0;
  double max = 0.0;
  double within_eps = 0.0;
};

struct ScenarioResult {
  ScenarioSpec spec;  // fully resolved: rounds is never 0 here
  std::string topology_name;
  std::uint64_t num_nodes = 0;
  /// The workload's ground truth: density d = (agents-1)/A for density /
  /// trajectory / local-density, the property frequency f_P for property.
  double true_value = 0.0;
  /// Pooled estimates: per agent per trial (density), per-agent
  /// frequencies (property), final-checkpoint values (trajectory /
  /// local-density).
  std::vector<double> estimates;
  ScenarioSummary summary;
  /// Snapshot rounds and per-trace series for trajectory / local-density
  /// (series[trace][i] pairs with checkpoints[i]); empty otherwise.
  std::vector<std::uint32_t> checkpoints;
  std::vector<std::vector<double>> series;
  double elapsed_seconds = 0.0;
  /// Wall-clock nanoseconds for the run — finer-grained twin of
  /// elapsed_seconds, surfaced as the optional `elapsed_ns` result key.
  /// Timing only: never part of the spec's identity_json.
  std::uint64_t elapsed_ns = 0;

  util::JsonValue to_json() const;
};

/// Optional progress tap for Experiment::run.  `on_progress(done, total)`
/// reports completed work units out of a fixed total — rounds for a
/// single walk (trials == 1, every workload), trials for a fan-out
/// (trials > 1).  Calls may arrive from worker threads (trial fan-outs)
/// but never concurrently with themselves for round-level taps
/// (end_round is serial in all three engines).  The hooks observe execution without touching any RNG
/// stream, so results stay bit-identical with or without them.
struct ProgressHooks {
  std::function<void(std::uint64_t done, std::uint64_t total)> on_progress;
  /// Report every `round_stride` rounds (and always at the final round);
  /// 0 picks max(1, total/64).  Ignored for trial fan-outs.
  std::uint32_t round_stride = 0;
};

class Experiment {
 public:
  /// Validates the spec, builds the topology, and resolves the round
  /// budget; throws std::invalid_argument on any inconsistency so
  /// drivers fail before burning cycles.
  explicit Experiment(ScenarioSpec spec);
  Experiment(ScenarioSpec spec, const Registry& registry);

  /// The resolved spec (rounds filled in when the input said 0).
  const ScenarioSpec& spec() const { return spec_; }
  const graph::AnyTopology& topology() const { return topo_; }

  ScenarioResult run() const;
  ScenarioResult run(const ProgressHooks& hooks) const;

 private:
  ScenarioSpec spec_;
  graph::AnyTopology topo_;
};

}  // namespace antdense::scenario
