#include "scenario/spec.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "scenario/dynamics_registry.hpp"
#include "scenario/registry.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace antdense::scenario {

namespace {

constexpr const char* kWorkloadNames[] = {"density", "property", "trajectory",
                                          "local-density"};
/// Index-aligned with kWorkloadNames; extend both together.
constexpr const char* kWorkloadDescriptions[] = {
    "Algorithm 1: per-agent density estimates",
    "Section 5.2: property-frequency estimates",
    "anytime running estimates at checkpoints",
    "ground-truth local density at checkpoints"};
static_assert(std::size(kWorkloadNames) == std::size(kWorkloadDescriptions),
              "every workload needs a description");

double probability(const std::string& what, double v, bool exclusive_top) {
  ANTDENSE_CHECK(v >= 0.0 && (exclusive_top ? v < 1.0 : v <= 1.0),
                 what + " must be a probability");
  return v;
}

/// Checked narrowing for the 32-bit spec fields: out-of-range flag or
/// JSON values throw instead of silently wrapping to a different
/// experiment.
std::uint32_t narrow_u32(std::uint64_t value, const std::string& what) {
  ANTDENSE_CHECK(value <= std::numeric_limits<std::uint32_t>::max(),
                 "scenario spec: " + what + " value " +
                     std::to_string(value) + " exceeds the 32-bit range");
  return static_cast<std::uint32_t>(value);
}

}  // namespace

std::string engine_mode_name(EngineMode mode) {
  switch (mode) {
    case EngineMode::kSingleStream:
      return "single";
    case EngineMode::kSharded:
      return "sharded";
    case EngineMode::kVector:
      return "vector";
  }
  throw std::logic_error("unreachable engine mode");
}

EngineMode parse_engine_mode(const std::string& name) {
  if (name == "single") {
    return EngineMode::kSingleStream;
  }
  if (name == "sharded") {
    return EngineMode::kSharded;
  }
  if (name == "vector") {
    return EngineMode::kVector;
  }
  throw std::invalid_argument("unknown engine mode '" + name +
                              "' (expected single, sharded, or vector)");
}

std::string workload_name(Workload w) {
  return kWorkloadNames[static_cast<int>(w)];
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names(std::begin(kWorkloadNames),
                                              std::end(kWorkloadNames));
  return names;
}

const std::vector<std::string>& workload_descriptions() {
  static const std::vector<std::string> descriptions(
      std::begin(kWorkloadDescriptions), std::end(kWorkloadDescriptions));
  return descriptions;
}

Workload parse_workload(const std::string& name) {
  for (int i = 0; i < 4; ++i) {
    if (name == kWorkloadNames[i]) {
      return static_cast<Workload>(i);
    }
  }
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (expected density, property, trajectory, or local-density)");
}

void ScenarioSpec::validate() const {
  ANTDENSE_CHECK(agents >= 2, "scenario needs at least two agents");
  if (rounds == 0) {
    ANTDENSE_CHECK(eps > 0.0, "planning rounds needs eps > 0");
    ANTDENSE_CHECK(delta > 0.0 && delta < 1.0,
                   "planning rounds needs delta in (0,1)");
  }
  probability("lazy_probability", lazy_probability, true);
  probability("sensing.miss", sensing.detection_miss, false);
  probability("sensing.spurious", sensing.spurious, false);
  probability("sensing.dropout", sensing.dropout, false);
  ANTDENSE_CHECK(trials >= 1, "need at least one trial");
  // Specs round-trip through JSON, whose numbers are doubles: a seed at
  // or above 2^53 would be silently rounded in the emitted artifact and
  // document a different experiment than the one that ran.
  ANTDENSE_CHECK(seed < (std::uint64_t{1} << 53),
                 "seed must be below 2^53 so spec files round-trip exactly");
  probability("property_fraction", property_fraction, false);
  ANTDENSE_CHECK(tracked >= 1, "need at least one tracked agent");
  ANTDENSE_CHECK(checkpoints >= 1, "need at least one checkpoint");
}

std::vector<std::uint32_t> ScenarioSpec::checkpoint_rounds(
    std::uint32_t total_rounds) const {
  ANTDENSE_CHECK(total_rounds >= 1, "need at least one round");
  std::vector<std::uint32_t> out;
  const std::uint32_t k = std::min(checkpoints, total_rounds);
  out.reserve(k);
  for (std::uint32_t i = 1; i <= k; ++i) {
    const auto r = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(total_rounds) * i) / k);
    if (out.empty() || r > out.back()) {
      out.push_back(r);
    }
  }
  // Integer spacing guarantees the last entry is exactly total_rounds.
  return out;
}

std::vector<std::string> ScenarioSpec::key_names() {
  return {"topology", "workload", "agents",   "rounds",
          "eps",      "delta",    "lazy",     "miss",
          "spurious", "dropout",  "dynamics", "trials",
          "threads",  "seed",     "engine",   "property-fraction",
          "tracked",  "checkpoints",          "radius"};
}

ScenarioSpec ScenarioSpec::from_args(const util::Args& args,
                                     ScenarioSpec base) {
  ScenarioSpec s = std::move(base);
  s.topology = args.get_string("topology", s.topology);
  if (args.has("workload")) {
    s.workload = parse_workload(args.get_string("workload", ""));
  }
  s.agents = narrow_u32(args.get_uint("agents", s.agents), "agents");
  s.rounds = narrow_u32(args.get_uint("rounds", s.rounds), "rounds");
  s.eps = args.get_double("eps", s.eps);
  s.delta = args.get_double("delta", s.delta);
  s.lazy_probability = args.get_double("lazy", s.lazy_probability);
  s.sensing.detection_miss =
      args.get_double("miss", s.sensing.detection_miss);
  s.sensing.spurious = args.get_double("spurious", s.sensing.spurious);
  s.sensing.dropout = args.get_double("dropout", s.sensing.dropout);
  s.dynamics = args.get_string("dynamics", s.dynamics);
  s.trials = narrow_u32(args.get_uint("trials", s.trials), "trials");
  s.threads = narrow_u32(args.get_uint("threads", s.threads), "threads");
  s.seed = args.get_uint("seed", s.seed);
  if (args.has("engine")) {
    s.engine = parse_engine_mode(args.get_string("engine", ""));
  }
  s.property_fraction =
      args.get_double("property-fraction", s.property_fraction);
  s.tracked = narrow_u32(args.get_uint("tracked", s.tracked), "tracked");
  s.checkpoints =
      narrow_u32(args.get_uint("checkpoints", s.checkpoints), "checkpoints");
  s.radius = narrow_u32(args.get_uint("radius", s.radius), "radius");
  return s;
}

namespace {

/// Parses the versioned "sensing" sub-object (the structured spelling;
/// see SensingSpec).  Strict like the top level: unknown keys and
/// unsupported versions throw.
SensingSpec parse_sensing_object(const util::JsonValue& obj,
                                 SensingSpec base) {
  SensingSpec out = base;
  for (const auto& [key, value] : obj.entries()) {
    if (key == "version") {
      ANTDENSE_CHECK(value.as_uint() == SensingSpec::kVersion,
                     "unsupported sensing object version " +
                         std::to_string(value.as_uint()) +
                         " (this build understands version " +
                         std::to_string(SensingSpec::kVersion) + ")");
    } else if (key == "miss") {
      out.detection_miss = value.as_double();
    } else if (key == "spurious") {
      out.spurious = value.as_double();
    } else if (key == "dropout") {
      out.dropout = value.as_double();
    } else {
      throw std::invalid_argument(
          "unknown sensing spec key '" + key +
          "' (expected version, miss, spurious, or dropout)");
    }
  }
  return out;
}

}  // namespace

ScenarioSpec ScenarioSpec::from_json(const util::JsonValue& doc,
                                     ScenarioSpec base) {
  ScenarioSpec s = std::move(base);
  // JSON additionally accepts the structured "sensing" object, which
  // has no flag spelling (flags use the flat aliases).
  std::vector<std::string> known = key_names();
  known.push_back("sensing");
  for (const auto& [key, value] : doc.entries()) {
    ANTDENSE_CHECK(std::find(known.begin(), known.end(), key) != known.end(),
                   "unknown scenario spec key '" + key + "'");
    if (key == "topology") {
      s.topology = value.as_string();
    } else if (key == "workload") {
      s.workload = parse_workload(value.as_string());
    } else if (key == "agents") {
      s.agents = narrow_u32(value.as_uint(), "agents");
    } else if (key == "rounds") {
      s.rounds = narrow_u32(value.as_uint(), "rounds");
    } else if (key == "eps") {
      s.eps = value.as_double();
    } else if (key == "delta") {
      s.delta = value.as_double();
    } else if (key == "lazy") {
      s.lazy_probability = value.as_double();
    } else if (key == "miss") {
      s.sensing.detection_miss = value.as_double();
    } else if (key == "spurious") {
      s.sensing.spurious = value.as_double();
    } else if (key == "dropout") {
      s.sensing.dropout = value.as_double();
    } else if (key == "sensing") {
      // Later keys win in document order, matching flat-key overlays.
      s.sensing = parse_sensing_object(value, s.sensing);
    } else if (key == "dynamics") {
      s.dynamics = value.as_string();
    } else if (key == "trials") {
      s.trials = narrow_u32(value.as_uint(), "trials");
    } else if (key == "threads") {
      s.threads = narrow_u32(value.as_uint(), "threads");
    } else if (key == "seed") {
      s.seed = value.as_uint();
    } else if (key == "engine") {
      s.engine = parse_engine_mode(value.as_string());
    } else if (key == "property-fraction") {
      s.property_fraction = value.as_double();
    } else if (key == "tracked") {
      s.tracked = narrow_u32(value.as_uint(), "tracked");
    } else if (key == "checkpoints") {
      s.checkpoints = narrow_u32(value.as_uint(), "checkpoints");
    } else if (key == "radius") {
      s.radius = narrow_u32(value.as_uint(), "radius");
    }
  }
  return s;
}

ScenarioSpec ScenarioSpec::from_json_file(const std::string& path,
                                          ScenarioSpec base) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot open scenario spec file: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return from_json(util::JsonValue::parse(text.str()), std::move(base));
}

ScenarioSpec ScenarioSpec::from_args(const util::Args& args) {
  return from_args(args, ScenarioSpec{});
}

ScenarioSpec ScenarioSpec::from_json(const util::JsonValue& doc) {
  return from_json(doc, ScenarioSpec{});
}

ScenarioSpec ScenarioSpec::from_json_file(const std::string& path) {
  return from_json_file(path, ScenarioSpec{});
}

util::JsonValue ScenarioSpec::to_json() const {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("topology", topology);
  doc.set("workload", workload_name(workload));
  doc.set("agents", agents);
  doc.set("rounds", rounds);
  doc.set("eps", eps);
  doc.set("delta", delta);
  doc.set("lazy", lazy_probability);
  if (sensing.dropout == 0.0) {
    // The historical flat spelling: dropout-free specs serialize byte
    // for byte as before this field family existed, keeping every
    // pinned identity_hash and cached artifact valid.
    doc.set("miss", sensing.detection_miss);
    doc.set("spurious", sensing.spurious);
  } else {
    util::JsonValue s = util::JsonValue::object();
    s.set("version",
          static_cast<std::uint64_t>(SensingSpec::kVersion));
    s.set("miss", sensing.detection_miss);
    s.set("spurious", sensing.spurious);
    s.set("dropout", sensing.dropout);
    doc.set("sensing", s);
  }
  doc.set("trials", trials);
  doc.set("threads", static_cast<std::uint64_t>(threads));
  doc.set("seed", seed);
  doc.set("engine", engine_mode_name(engine));
  doc.set("property-fraction", property_fraction);
  doc.set("tracked", tracked);
  doc.set("checkpoints", checkpoints);
  doc.set("radius", radius);
  if (!dynamics.empty()) {
    doc.set("dynamics", dynamics);
  }
  return doc;
}

util::JsonValue ScenarioSpec::identity_json(const Registry& registry) const {
  util::JsonValue doc = to_json();
  doc.set("topology", registry.canonical(topology));
  if (!dynamics.empty()) {
    doc.set("dynamics", DynamicsRegistry::built_in().canonical(dynamics));
  }
  util::JsonValue identity = util::JsonValue::object();
  // Rebuild without "threads": worker count changes how fast an
  // experiment runs, never what it computes, so it must not split the
  // result cache.
  for (const auto& [key, value] : doc.entries()) {
    if (key != "threads") {
      identity.set(key, value);
    }
  }
  return identity;
}

std::string ScenarioSpec::identity_hash(const Registry& registry) const {
  return util::hex64(util::fnv1a64(identity_json(registry).dump(0)));
}

}  // namespace antdense::scenario
