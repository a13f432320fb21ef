// The declarative half of the runtime scenario API: one ScenarioSpec
// describes one experiment — which substrate (a topology spec string
// parsed by scenario::Registry), which workload, the Section 6.1
// perturbation knobs, trials/threads/seed, and either an explicit round
// count or (eps, delta) for Theorem-1 planning via core::plan_rounds.
//
// Specs are plain data: build them in code, from command-line flags
// (from_args; pair it with Args::require_known(key_names()) so typo'd
// flags throw, as antdense_run does), or from a JSON file
// (from_json_file — unknown keys always throw there), and hand them to
// scenario::Experiment to run.  The flag and JSON key vocabularies are
// identical, so a --spec file and a flag set are interchangeable and
// flags can overlay a file.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/json.hpp"

namespace antdense::scenario {

class Registry;

/// What to measure over the walk.  All four run through the shared
/// WalkEngine observers (sim/walk_engine.hpp).
enum class Workload {
  kDensity,       // Algorithm 1: per-agent density estimates
  kProperty,      // Section 5.2: property-frequency estimates
  kTrajectory,    // anytime running estimates at checkpoints
  kLocalDensity,  // ground-truth local density at checkpoints
};

/// How the walk itself executes.  This is part of the experiment's
/// *identity*, not a resource knob: the engines consume different
/// (equally valid) random streams, so their results differ bitwise.
/// Within any one engine, results are bit-identical for any `threads`:
/// every engine runs each walk on one thread, and `threads` fans out
/// Monte Carlo trials.
enum class EngineMode {
  kSingleStream,  // the historical run_walk stream
  kSharded,       // sim/sharded_walk.hpp: per-shard streams at a fixed
                  // 4096-agent grain
  kVector,        // sim/vector_walk.hpp: wide-lane stream, vectorized
                  // stepping on the shard loop, dynamics included
};

std::string engine_mode_name(EngineMode mode);
/// Parses "single" / "sharded" / "vector"; throws std::invalid_argument
/// otherwise.
EngineMode parse_engine_mode(const std::string& name);

/// The structured spelling of the Section 6.1 sensing perturbations
/// (plus the dropout generalization) — one sub-object instead of loose
/// top-level knobs.  JSON accepts both forms: the versioned object
///   "sensing": {"version": 1, "miss": P, "spurious": P, "dropout": P}
/// and the historical flat keys ("miss", "spurious", and the new
/// "dropout"), which remain first-class aliases so existing spec files,
/// campaign axes, and flags keep working.  Emission is
/// identity-stable: to_json() spells a dropout-free spec with the
/// historical flat keys byte for byte, and switches to the versioned
/// object only when dropout is set (a shape that predates no artifact).
struct SensingSpec {
  static constexpr std::uint32_t kVersion = 1;

  double detection_miss = 0.0;  // each partner goes undetected w.p. p
  double spurious = 0.0;        // phantom collision recorded w.p. p
  double dropout = 0.0;         // whole observation lost w.p. p

  bool any() const {
    return detection_miss > 0.0 || spurious > 0.0 || dropout > 0.0;
  }
};

std::string workload_name(Workload w);
/// All four workload names in enum order, for discovery flags
/// (antdense_run --list-workloads) and campaign axis validation.
const std::vector<std::string>& workload_names();
/// One-line descriptions aligned with workload_names() — kept beside
/// the names so listing UIs cannot drift out of sync with the enum.
const std::vector<std::string>& workload_descriptions();
/// Parses "density" / "property" / "trajectory" / "local-density";
/// throws std::invalid_argument on anything else.
Workload parse_workload(const std::string& name);

struct ScenarioSpec {
  // --- substrate and workload ---------------------------------------
  std::string topology = "torus2d:64x64";  // Registry spec string
  Workload workload = Workload::kDensity;

  // --- walk shape ----------------------------------------------------
  std::uint32_t agents = 410;
  /// Explicit round count; 0 means "plan from (eps, delta) and the
  /// substrate via core::plan_rounds" when the Experiment resolves.
  std::uint32_t rounds = 0;
  double eps = 0.2;
  double delta = 0.1;

  // --- perturbations (all off by default) ---------------------------
  /// Movement knob (Section 6.1): the agent stays put w.p. p per round.
  double lazy_probability = 0.0;
  /// Observation knobs, grouped (see SensingSpec for the JSON forms).
  SensingSpec sensing;
  /// World-dynamics model spec ("model:k=v,..." parsed by
  /// scenario::DynamicsRegistry — churn / drift / fade), or "" for the
  /// historical static world.  Identity-bearing when present; density
  /// workload only, on any engine.
  std::string dynamics;

  // --- execution -----------------------------------------------------
  /// Monte Carlo repeats, pooled.  Density / property only; trajectory
  /// and local-density record one walk (Experiment rejects trials > 1).
  std::uint32_t trials = 1;
  unsigned threads = 0;      // 0 = one per core
  std::uint64_t seed = 42;
  /// Walk execution model (see EngineMode).  Identity-bearing: part of
  /// to_json/identity_json, unlike `threads`.
  EngineMode engine = EngineMode::kSingleStream;

  // --- workload-specific knobs --------------------------------------
  double property_fraction = 0.25;  // property: fraction of P-agents
  std::uint32_t tracked = 4;        // trajectory/local-density traces
  std::uint32_t checkpoints = 8;    // snapshot count
  std::uint32_t radius = 2;         // local-density L1/graph ball radius

  /// Range checks everything except the topology string (the Registry
  /// owns that) — throws std::invalid_argument.
  void validate() const;

  /// The checkpoint rounds this spec asks for: `checkpoints` values,
  /// evenly spaced, strictly increasing, ending at `total_rounds`.
  std::vector<std::uint32_t> checkpoint_rounds(
      std::uint32_t total_rounds) const;

  /// Every flag / JSON key the spec vocabulary defines, for strict
  /// argument checking (util::Args::require_known).
  static std::vector<std::string> key_names();

  /// Overlays recognized flags onto `base` (strictness is the caller's
  /// job so drivers can accept extra flags like --out).
  static ScenarioSpec from_args(const util::Args& args, ScenarioSpec base);
  static ScenarioSpec from_args(const util::Args& args);

  /// Builds a spec from a flat JSON object / file using the same keys as
  /// from_args.  Unknown keys throw, matching strict flag handling.
  static ScenarioSpec from_json(const util::JsonValue& doc,
                                ScenarioSpec base);
  static ScenarioSpec from_json(const util::JsonValue& doc);
  static ScenarioSpec from_json_file(const std::string& path,
                                     ScenarioSpec base);
  static ScenarioSpec from_json_file(const std::string& path);

  util::JsonValue to_json() const;

  /// The spec's *experiment identity*: to_json() with the topology
  /// canonicalized through `registry` (and `dynamics`, when present,
  /// through DynamicsRegistry::built_in()) and the `threads` key
  /// dropped — two specs that describe the same experiment serialize
  /// identically here no matter how they were built (flags, JSON in any
  /// key order, or code) or how many workers will run them.
  /// Emitted-field order is fixed by to_json(), so dump(0) is a
  /// canonical byte string.  Identity rules for the new keys: "dynamics"
  /// is emitted only when non-empty and "dropout" only inside the
  /// versioned sensing object, so every pre-dynamics spec keeps its
  /// historical identity_hash (pinned in tests) and cached campaign /
  /// serve journals stay warm.
  util::JsonValue identity_json(const Registry& registry) const;

  /// 16-hex-char FNV-1a hash of identity_json().dump(0): the campaign
  /// journal's cache key.
  std::string identity_hash(const Registry& registry) const;
};

}  // namespace antdense::scenario
