// Scenario layer: Registry spec parsing (round-trip + malformed-input
// errors), ScenarioSpec validation and JSON round-trip, Theorem-1 round
// resolution through core::plan_rounds, Experiment results for all four
// workloads, and the generic BallDensityObserver pinned against the
// brute-force L1-ball oracle on the 2-D torus in the same walk.
#include "scenario/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/density_estimator.hpp"
#include "graph/torus2d.hpp"
#include "local_density_oracle.hpp"
#include "scenario/ball_density.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/walk_engine.hpp"
#include "util/json.hpp"

namespace antdense {
namespace {

using scenario::EngineMode;
using scenario::engine_mode_name;
using scenario::Experiment;
using scenario::parse_engine_mode;
using scenario::Registry;
using scenario::ScenarioResult;
using scenario::ScenarioSpec;
using scenario::Workload;

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(Registry, BuildsAllNineFamilies) {
  const Registry& reg = Registry::built_in();
  EXPECT_EQ(reg.family_names().size(), 9u);

  EXPECT_EQ(reg.make("torus2d:12x9").num_nodes(), 108u);
  EXPECT_EQ(reg.make("torus2d:12x9").degree(), 4u);
  EXPECT_EQ(reg.make("ring:500").num_nodes(), 500u);
  EXPECT_EQ(reg.make("ring:500").degree(), 2u);
  EXPECT_EQ(reg.make("hypercube:7").num_nodes(), 128u);
  EXPECT_EQ(reg.make("hypercube:7").degree(), 7u);
  EXPECT_EQ(reg.make("toruskd:3x5").num_nodes(), 125u);
  EXPECT_EQ(reg.make("toruskd:3x5").degree(), 6u);
  EXPECT_EQ(reg.make("complete:64").num_nodes(), 64u);
  EXPECT_EQ(reg.make("complete:64").degree(), 63u);
  EXPECT_EQ(reg.make("expander:d=4,n=100,seed=3").num_nodes(), 100u);
  EXPECT_EQ(reg.make("expander:d=4,n=100,seed=3").degree(), 4u);
  // The implicit families: nominal degree is the expected/mean degree.
  EXPECT_EQ(reg.make("rgg2d:n=10000,r=0.05,seed=1").num_nodes(), 10000u);
  EXPECT_EQ(reg.make("rgg2d:n=10000,r=0.05,seed=1").degree(), 79u);  // pi r^2 n
  EXPECT_EQ(reg.make("gnp:n=300,p=0.1,seed=1").num_nodes(), 300u);
  EXPECT_EQ(reg.make("gnp:n=300,p=0.1,seed=1").degree(), 30u);  // p (n-1)
  EXPECT_EQ(reg.make("ba:n=400,d=3,seed=1").num_nodes(), 400u);
  EXPECT_EQ(reg.make("ba:n=400,d=3,seed=1").degree(), 6u);  // 2 d
}

TEST(Registry, CanonicalRoundTrips) {
  const Registry& reg = Registry::built_in();
  const char* specs[] = {"torus2d:64x64",  "ring:10000",
                         "hypercube:14",   "toruskd:3x22",
                         "complete:4096",  "expander:d=8,n=100000,seed=7",
                         "rgg2d:n=100000000,r=2e-04,seed=3",
                         "gnp:n=2000,p=0.01,seed=5",
                         "ba:n=5000,d=4,seed=9"};
  for (const char* spec : specs) {
    SCOPED_TRACE(spec);
    EXPECT_EQ(reg.canonical(spec), spec);                  // already canonical
    EXPECT_EQ(reg.canonical(reg.canonical(spec)), spec);   // idempotent
  }
  // Normalization: parameter order and omitted defaults.
  EXPECT_EQ(reg.canonical("expander:n=100,d=4"), "expander:d=4,n=100,seed=1");
  EXPECT_EQ(reg.canonical("expander:seed=2,n=100,d=4"),
            "expander:d=4,n=100,seed=2");
  EXPECT_EQ(reg.canonical("rgg2d:r=0.25,n=64"), "rgg2d:n=64,r=0.25,seed=1");
  EXPECT_EQ(reg.canonical("gnp:p=0.5,n=64,seed=2"), "gnp:n=64,p=0.5,seed=2");
  EXPECT_EQ(reg.canonical("ba:d=2,n=64"), "ba:n=64,d=2,seed=1");
  // Real-valued params normalize to the shortest exact round-trip
  // spelling (std::to_chars), so different spellings of one double share
  // one canonical identity — and hence one campaign-cache key.
  EXPECT_EQ(reg.canonical("gnp:n=64,p=0.50,seed=1"), "gnp:n=64,p=0.5,seed=1");
  EXPECT_EQ(reg.canonical("rgg2d:n=64,r=2.5e-1"), "rgg2d:n=64,r=0.25,seed=1");
  EXPECT_EQ(reg.canonical("rgg2d:n=64,r=0.0002"),
            "rgg2d:n=64,r=2e-04,seed=1");
}

TEST(Registry, MalformedSpecsThrow) {
  const Registry& reg = Registry::built_in();
  const char* bad[] = {
      "",                      // no family
      "torus2d",               // missing ':'
      ":64x64",                // empty family
      "mobius:64",             // unknown family
      "torus2d:64",            // missing 'x'
      "torus2d:64x",           // missing height
      "torus2d:64x64x3",       // trailing garbage
      "ring:",                 // empty params
      "ring:abc",              // non-numeric
      "ring:-5",               // signs rejected
      "ring:1e4",              // scientific notation rejected
      "expander:d=8",          // missing n
      "expander:d=8,n=64,q=1", // unknown parameter
      "expander:d=8,seed",     // not key=value
      "rgg2d:n=64",            // missing r
      "rgg2d:n=64,r=0.1,q=2",  // unknown parameter
      "rgg2d:n=64,r=zero",     // non-numeric real
      "rgg2d:n=64,r=1.5",      // radius out of range
      "gnp:n=64,p=0",          // probability out of range
      "gnp:n=64,p=1.01",       // probability out of range
      "gnp:p=0.5",             // missing n
      "ba:n=64",               // missing d
      "ba:n=4,d=4",            // n must exceed d
      "ba:n=64,d=0",           // degenerate attachment
      "gnp:n=5000000000,p=0.1",  // beyond 2^32 nodes
      "ba:n=100000000,d=65537",  // beyond 2^16 attachments
  };
  for (const char* spec : bad) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(reg.make(spec), std::invalid_argument);
    EXPECT_THROW(reg.canonical(spec), std::invalid_argument);
  }
  // Domain errors surface when the topology is built; canonical() is a
  // syntax-level check and lets them through.
  EXPECT_THROW(reg.make("hypercube:0"), std::invalid_argument);
  EXPECT_EQ(reg.canonical("hypercube:0"), "hypercube:0");
}

TEST(Registry, DiagnosticsNameTheOffendingKeyAndValue) {
  // The diagnostics contract: a parse error is attributable from the
  // message alone — family, key, AND the rejected value all appear.
  const Registry& reg = Registry::built_in();
  const auto message_for = [&](const std::string& spec) {
    try {
      reg.make(spec);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const struct {
    const char* spec;
    const char* family;
    const char* fragment;
  } cases[] = {
      {"gnp:n=64,p=banana", "gnp", "p=banana"},
      {"gnp:n=sixty,p=0.5", "gnp", "n=sixty"},
      {"gnp:n=64,p=1.5", "gnp", "p=1.5"},
      {"rgg2d:n=64,r=0.1,q=2", "rgg2d", "q=2"},
      {"rgg2d:n=64,r=-0.5", "rgg2d", "r=-0.5"},
      {"ba:n=64,d=four", "ba", "d=four"},
      {"ba:d=2", "ba", "'n'"},
      {"gnp:n=5000000000,p=0.1", "gnp", "n=5000000000"},
      {"rgg2d:n=4294967297,r=0.1", "rgg2d", "n=4294967297"},
      {"ba:n=4294967297,d=2", "ba", "n=4294967297"},
      {"ba:n=100000000,d=65537", "ba", "d=65537"},
      {"expander:d=8,n=abc", "expander", "n=abc"},
      {"torus2d:64xtall", "torus2d", "HEIGHT=tall"},
      {"ring:1e4", "ring", "NODES=1e4"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    const std::string msg = message_for(c.spec);
    ASSERT_FALSE(msg.empty()) << "expected " << c.spec << " to throw";
    EXPECT_NE(msg.find(c.family), std::string::npos) << msg;
    EXPECT_NE(msg.find(c.fragment), std::string::npos) << msg;
  }
}

TEST(Registry, RuntimeRegistrationExtendsTheVocabulary) {
  Registry reg;  // empty
  EXPECT_FALSE(reg.has_family("ring2"));
  reg.register_family(
      "ring2", {.make =
                    [](const std::string&) {
                      return graph::AnyTopology(graph::Torus2D(4, 4));
                    },
                .canonical =
                    [](const std::string&) {
                      return std::string("ring2:fixed");
                    },
                .grammar = "ring2:fixed"});
  EXPECT_TRUE(reg.has_family("ring2"));
  EXPECT_EQ(reg.make("ring2:whatever").num_nodes(), 16u);
  EXPECT_EQ(reg.canonical("ring2:whatever"), "ring2:fixed");
}

// ---------------------------------------------------------------------
// plan_rounds
// ---------------------------------------------------------------------

TEST(PlanRounds, AppliesTheoremOneWithTheValidityCap) {
  const double eps = 0.2, delta = 0.1, density = 0.1;
  const std::uint64_t uncapped = core::theorem1_rounds(eps, density, delta);
  ASSERT_GT(uncapped, 100u);
  // Large substrate: the theorem budget itself.
  EXPECT_EQ(core::plan_rounds(eps, delta, density, uncapped * 10), uncapped);
  // Small substrate: capped at A.
  EXPECT_EQ(core::plan_rounds(eps, delta, density, 100), 100u);
  // Degenerate: never below one round.
  EXPECT_GE(core::plan_rounds(0.9, 0.9, 0.9, 1), 1u);
}

// ---------------------------------------------------------------------
// ScenarioSpec
// ---------------------------------------------------------------------

TEST(ScenarioSpec, ValidatesRanges) {
  ScenarioSpec spec;
  spec.agents = 1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.rounds = 0;
  spec.eps = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.lazy_probability = 1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.trials = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.property_fraction = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.seed = std::uint64_t{1} << 53;  // would round in the JSON echo
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.seed = (std::uint64_t{1} << 53) - 1;
  EXPECT_NO_THROW(spec.validate());
  spec = {};
  EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioSpec, WorkloadNamesRoundTrip) {
  for (const Workload w :
       {Workload::kDensity, Workload::kProperty, Workload::kTrajectory,
        Workload::kLocalDensity}) {
    EXPECT_EQ(scenario::parse_workload(scenario::workload_name(w)), w);
  }
  EXPECT_THROW(scenario::parse_workload("densty"), std::invalid_argument);
}

TEST(ScenarioSpec, CheckpointRoundsEndAtTheBudget) {
  ScenarioSpec spec;
  spec.checkpoints = 4;
  EXPECT_EQ(spec.checkpoint_rounds(100),
            (std::vector<std::uint32_t>{25, 50, 75, 100}));
  // More checkpoints than rounds degrades to one per round.
  spec.checkpoints = 10;
  EXPECT_EQ(spec.checkpoint_rounds(3),
            (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(ScenarioSpec, JsonRoundTrips) {
  ScenarioSpec spec;
  spec.topology = "hypercube:9";
  spec.workload = Workload::kProperty;
  spec.agents = 77;
  spec.rounds = 123;
  spec.eps = 0.25;
  spec.lazy_probability = 0.1;
  spec.trials = 3;
  spec.seed = 99;
  spec.property_fraction = 0.4;

  const ScenarioSpec back =
      ScenarioSpec::from_json(util::JsonValue::parse(spec.to_json().dump()));
  EXPECT_EQ(back.topology, spec.topology);
  EXPECT_EQ(back.workload, spec.workload);
  EXPECT_EQ(back.agents, spec.agents);
  EXPECT_EQ(back.rounds, spec.rounds);
  EXPECT_DOUBLE_EQ(back.eps, spec.eps);
  EXPECT_DOUBLE_EQ(back.lazy_probability, spec.lazy_probability);
  EXPECT_EQ(back.trials, spec.trials);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_DOUBLE_EQ(back.property_fraction, spec.property_fraction);
}

TEST(ScenarioSpec, JsonRejectsUnknownKeys) {
  EXPECT_THROW(ScenarioSpec::from_json(
                   util::JsonValue::parse(R"({"agnets": 10})")),
               std::invalid_argument);
}

TEST(ScenarioSpec, LoadsFromSpecFile) {
  const std::string path = ::testing::TempDir() + "antdense_spec_test.json";
  {
    std::ofstream out(path);
    out << R"({"topology": "ring:300", "workload": "density",)"
        << R"( "agents": 25, "rounds": 40, "trials": 2})" << "\n";
  }
  const ScenarioSpec spec = ScenarioSpec::from_json_file(path);
  EXPECT_EQ(spec.topology, "ring:300");
  EXPECT_EQ(spec.agents, 25u);
  EXPECT_EQ(spec.rounds, 40u);
  EXPECT_EQ(spec.trials, 2u);
  std::remove(path.c_str());
  EXPECT_THROW(ScenarioSpec::from_json_file(path), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Identity: canonical serialization and content hashing
// ---------------------------------------------------------------------

TEST(ScenarioSpecIdentity, HashStableAcrossJsonKeyOrder) {
  const Registry& reg = Registry::built_in();
  const ScenarioSpec a = ScenarioSpec::from_json(util::JsonValue::parse(
      R"({"topology": "ring:300", "agents": 25, "rounds": 40, "seed": 9})"));
  const ScenarioSpec b = ScenarioSpec::from_json(util::JsonValue::parse(
      R"({"seed": 9, "rounds": 40, "agents": 25, "topology": "ring:300"})"));
  EXPECT_EQ(a.identity_json(reg).dump(0), b.identity_json(reg).dump(0));
  EXPECT_EQ(a.identity_hash(reg), b.identity_hash(reg));
  EXPECT_EQ(a.identity_hash(reg).size(), 16u);
}

TEST(ScenarioSpecIdentity, HashStableAcrossConstructionPaths) {
  const Registry& reg = Registry::built_in();
  // Flags, JSON, and direct field assignment describing one experiment.
  const char* argv[] = {"prog", "--topology=hypercube:9", "--agents=77",
                        "--rounds=123", "--seed=99"};
  const ScenarioSpec from_flags =
      ScenarioSpec::from_args(util::Args(5, argv));

  const ScenarioSpec from_json = ScenarioSpec::from_json(
      util::JsonValue::parse(R"({"topology": "hypercube:9", "agents": 77,)"
                             R"( "rounds": 123, "seed": 99})"));

  ScenarioSpec direct;
  direct.topology = "hypercube:9";
  direct.agents = 77;
  direct.rounds = 123;
  direct.seed = 99;

  EXPECT_EQ(from_flags.identity_hash(reg), from_json.identity_hash(reg));
  EXPECT_EQ(from_flags.identity_hash(reg), direct.identity_hash(reg));
}

TEST(ScenarioSpecIdentity, TopologySpellingCanonicalizes) {
  const Registry& reg = Registry::built_in();
  ScenarioSpec a;
  a.topology = "expander:n=100,d=4";  // param order + omitted default
  ScenarioSpec b;
  b.topology = "expander:d=4,n=100,seed=1";
  EXPECT_EQ(a.identity_hash(reg), b.identity_hash(reg));
  EXPECT_EQ(a.identity_json(reg).find("topology")->as_string(),
            "expander:d=4,n=100,seed=1");
}

TEST(ScenarioSpecIdentity, ThreadsDoNotSplitTheIdentity) {
  const Registry& reg = Registry::built_in();
  ScenarioSpec a;
  a.threads = 1;
  ScenarioSpec b = a;
  b.threads = 16;
  EXPECT_EQ(a.identity_hash(reg), b.identity_hash(reg));
  EXPECT_EQ(a.identity_json(reg).find("threads"), nullptr);
}

TEST(ScenarioSpecIdentity, SubstantiveFieldsDoSplitTheIdentity) {
  const Registry& reg = Registry::built_in();
  const ScenarioSpec base;
  for (auto mutate : {+[](ScenarioSpec& s) { s.topology = "ring:600"; },
                      +[](ScenarioSpec& s) { s.agents += 1; },
                      +[](ScenarioSpec& s) { s.rounds += 1; },
                      +[](ScenarioSpec& s) { s.seed += 1; },
                      +[](ScenarioSpec& s) { s.lazy_probability = 0.5; },
                      +[](ScenarioSpec& s) {
                        s.engine = EngineMode::kSharded;
                      },
                      +[](ScenarioSpec& s) {
                        s.workload = Workload::kProperty;
                      }}) {
    ScenarioSpec changed = base;
    mutate(changed);
    EXPECT_NE(changed.identity_hash(reg), base.identity_hash(reg));
  }
}

// ---------------------------------------------------------------------
// Engine mode: parsing, round-trip, identity
// ---------------------------------------------------------------------

TEST(EngineMode, ParsesAndNamesAllModes) {
  EXPECT_EQ(parse_engine_mode("single"), EngineMode::kSingleStream);
  EXPECT_EQ(parse_engine_mode("sharded"), EngineMode::kSharded);
  EXPECT_EQ(parse_engine_mode("vector"), EngineMode::kVector);
  EXPECT_EQ(engine_mode_name(EngineMode::kSingleStream), "single");
  EXPECT_EQ(engine_mode_name(EngineMode::kSharded), "sharded");
  EXPECT_EQ(engine_mode_name(EngineMode::kVector), "vector");
  EXPECT_THROW(parse_engine_mode("warp"), std::invalid_argument);
  EXPECT_THROW(parse_engine_mode(""), std::invalid_argument);
}

TEST(EngineMode, RoundTripsThroughFlagsAndJson) {
  const char* argv[] = {"prog", "--engine=sharded"};
  const ScenarioSpec from_flags =
      ScenarioSpec::from_args(util::Args(2, argv));
  EXPECT_EQ(from_flags.engine, EngineMode::kSharded);

  const char* argv_vec[] = {"prog", "--engine=vector"};
  const ScenarioSpec vec_flags =
      ScenarioSpec::from_args(util::Args(2, argv_vec));
  EXPECT_EQ(vec_flags.engine, EngineMode::kVector);

  const ScenarioSpec from_json = ScenarioSpec::from_json(
      util::JsonValue::parse(R"({"engine": "sharded"})"));
  EXPECT_EQ(from_json.engine, EngineMode::kSharded);

  // to_json emits the mode, and parsing it back preserves it.
  const ScenarioSpec back = ScenarioSpec::from_json(from_json.to_json());
  EXPECT_EQ(back.engine, EngineMode::kSharded);

  const ScenarioSpec vec_back = ScenarioSpec::from_json(
      util::JsonValue::parse(R"({"engine": "vector"})"));
  EXPECT_EQ(ScenarioSpec::from_json(vec_back.to_json()).engine,
            EngineMode::kVector);

  const ScenarioSpec defaulted;
  EXPECT_EQ(defaulted.engine, EngineMode::kSingleStream);
  EXPECT_EQ(defaulted.to_json().find("engine")->as_string(), "single");
}

TEST(EngineMode, IsInTheSpecVocabulary) {
  const std::vector<std::string> keys = ScenarioSpec::key_names();
  EXPECT_NE(std::find(keys.begin(), keys.end(), "engine"), keys.end());
}

// ---------------------------------------------------------------------
// Experiment
// ---------------------------------------------------------------------

ScenarioSpec tiny_spec(const std::string& topology, Workload workload) {
  ScenarioSpec spec;
  spec.topology = topology;
  spec.workload = workload;
  spec.agents = 40;
  spec.rounds = 30;
  spec.trials = 2;
  spec.seed = 7;
  return spec;
}

TEST(Experiment, ResolvesRoundsViaPlanRounds) {
  ScenarioSpec spec = tiny_spec("torus2d:16x16", Workload::kDensity);
  spec.rounds = 0;
  spec.eps = 0.2;
  spec.delta = 0.1;
  const Experiment experiment(spec);
  const double density = 39.0 / 256.0;
  EXPECT_EQ(experiment.spec().rounds,
            core::plan_rounds(0.2, 0.1, density, 256));
  EXPECT_GT(experiment.spec().rounds, 0u);
}

TEST(Experiment, RejectsInvalidCombinations) {
  // Unknown topology fails at construction.
  EXPECT_THROW(Experiment(tiny_spec("mobius:4", Workload::kDensity)),
               std::invalid_argument);
  // Sensing noise is a density-workload knob.
  ScenarioSpec spec = tiny_spec("torus2d:16x16", Workload::kTrajectory);
  spec.trials = 1;
  spec.sensing.detection_miss = 0.5;
  EXPECT_THROW(Experiment{spec}, std::invalid_argument);
  // Trial fan-out applies to density and property only.
  spec = tiny_spec("torus2d:16x16", Workload::kLocalDensity);
  spec.trials = 2;
  EXPECT_THROW(Experiment{spec}, std::invalid_argument);
}

TEST(Experiment, DensityPoolsTrialsAndMatchesTruth) {
  const Experiment experiment(tiny_spec("torus2d:16x16", Workload::kDensity));
  const ScenarioResult result = experiment.run();
  EXPECT_EQ(result.estimates.size(), 80u);  // agents x trials
  EXPECT_EQ(result.summary.count, 80u);
  EXPECT_NEAR(result.true_value, 39.0 / 256.0, 1e-12);
  EXPECT_NEAR(result.summary.mean, result.true_value,
              5.0 * result.summary.standard_error +
                  0.05 * result.true_value);
  EXPECT_TRUE(result.checkpoints.empty());
}

TEST(Experiment, DensityIsThreadCountInvariant) {
  ScenarioSpec spec = tiny_spec("toruskd:3x7", Workload::kDensity);
  spec.trials = 4;
  spec.threads = 1;
  const ScenarioResult one = Experiment(spec).run();
  spec.threads = 4;
  const ScenarioResult four = Experiment(spec).run();
  EXPECT_EQ(one.estimates, four.estimates);
}

// Strips the wall-clock fields so two runs of the same spec compare
// bit-identically.
std::string timeless_dump(const ScenarioResult& result) {
  util::JsonValue doc = result.to_json();
  doc.erase("elapsed_seconds");
  doc.erase("elapsed_ns");
  return doc.dump(0);
}

TEST(Experiment, ProgressHooksObserveWithoutPerturbing) {
  // Round-grained tap: density with trials == 1 reports rounds.
  ScenarioSpec spec = tiny_spec("torus2d:16x16", Workload::kDensity);
  spec.trials = 1;
  const ScenarioResult plain = Experiment(spec).run();

  std::vector<std::pair<std::uint64_t, std::uint64_t>> ticks;
  scenario::ProgressHooks hooks;
  hooks.round_stride = 7;
  hooks.on_progress = [&](std::uint64_t done, std::uint64_t total) {
    ticks.emplace_back(done, total);
  };
  const ScenarioResult tapped = Experiment(spec).run(hooks);

  // The tap consumes no RNG: the hooked result is bit-identical.
  EXPECT_EQ(timeless_dump(plain), timeless_dump(tapped));
  ASSERT_FALSE(ticks.empty());
  EXPECT_EQ(ticks.back().first, spec.rounds);
  EXPECT_EQ(ticks.back().second, spec.rounds);
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    EXPECT_LT(ticks[i - 1].first, ticks[i].first) << "rounds are serial";
    EXPECT_EQ(ticks[i].second, spec.rounds);
  }
}

TEST(Experiment, ProgressHooksCountTrialsForFanOutWorkloads) {
  ScenarioSpec spec = tiny_spec("torus2d:16x16", Workload::kDensity);
  spec.trials = 4;
  spec.threads = 2;
  const ScenarioResult plain = Experiment(spec).run();

  // Trial ticks arrive from the workers, so the recorder locks.
  std::mutex ticks_mutex;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ticks;
  scenario::ProgressHooks hooks;
  hooks.on_progress = [&](std::uint64_t done, std::uint64_t total) {
    const std::lock_guard<std::mutex> lock(ticks_mutex);
    ticks.emplace_back(done, total);
  };
  const ScenarioResult tapped = Experiment(spec).run(hooks);

  EXPECT_EQ(timeless_dump(plain), timeless_dump(tapped));
  ASSERT_EQ(ticks.size(), 4u) << "one tick per completed trial";
  std::vector<std::uint64_t> dones;
  for (const auto& [done, total] : ticks) {
    EXPECT_EQ(total, 4u);
    dones.push_back(done);
  }
  // Worker threads tick concurrently, so order is free but the counter
  // must pass through every value once.
  std::sort(dones.begin(), dones.end());
  EXPECT_EQ(dones, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(Experiment, ProgressHooksCoverEveryEngineMode) {
  for (const EngineMode mode :
       {EngineMode::kSingleStream, EngineMode::kSharded,
        EngineMode::kVector}) {
    SCOPED_TRACE(engine_mode_name(mode));
    ScenarioSpec spec = tiny_spec("torus2d:16x16", Workload::kDensity);
    spec.trials = 1;
    spec.engine = mode;
    const ScenarioResult plain = Experiment(spec).run();
    std::uint64_t last_done = 0;
    std::uint64_t last_total = 0;
    scenario::ProgressHooks hooks;
    hooks.on_progress = [&](std::uint64_t done, std::uint64_t total) {
      last_done = done;
      last_total = total;
    };
    const ScenarioResult tapped = Experiment(spec).run(hooks);
    EXPECT_EQ(timeless_dump(plain), timeless_dump(tapped));
    EXPECT_EQ(last_done, spec.rounds);
    EXPECT_EQ(last_total, spec.rounds);
  }
}

TEST(Experiment, PropertyEstimatesFrequency) {
  ScenarioSpec spec = tiny_spec("complete:256", Workload::kProperty);
  spec.property_fraction = 0.5;
  spec.rounds = 60;
  const ScenarioResult result = Experiment(spec).run();
  EXPECT_EQ(result.estimates.size(), 80u);  // agents x trials
  EXPECT_NEAR(result.true_value, 20.0 / 39.0, 1e-12);
  for (double f : result.estimates) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
  // On the complete graph the pooled frequency concentrates near f_P.
  EXPECT_NEAR(result.summary.mean, result.true_value, 0.1);
}

TEST(Experiment, TrajectoryRecordsAnytimeSeries) {
  ScenarioSpec spec = tiny_spec("ring:400", Workload::kTrajectory);
  spec.trials = 1;
  spec.tracked = 3;
  spec.checkpoints = 5;
  const ScenarioResult result = Experiment(spec).run();
  EXPECT_EQ(result.checkpoints.size(), 5u);
  EXPECT_EQ(result.checkpoints.back(), spec.rounds);
  ASSERT_EQ(result.series.size(), 3u);
  for (const auto& trace : result.series) {
    EXPECT_EQ(trace.size(), result.checkpoints.size());
  }
  ASSERT_EQ(result.estimates.size(), 3u);
  EXPECT_EQ(result.estimates[0], result.series[0].back());
}

TEST(Experiment, LocalDensityRunsOnEverySubstrate) {
  for (const char* topology :
       {"torus2d:12x12", "ring:144", "hypercube:7", "toruskd:3x5",
        "complete:144", "expander:d=4,n=144,seed=5",
        "rgg2d:n=144,r=0.15,seed=5", "gnp:n=144,p=0.08,seed=5",
        "ba:n=144,d=3,seed=5"}) {
    SCOPED_TRACE(topology);
    ScenarioSpec spec = tiny_spec(topology, Workload::kLocalDensity);
    spec.trials = 1;
    spec.radius = 1;
    spec.checkpoints = 3;
    const ScenarioResult result = Experiment(spec).run();
    EXPECT_EQ(result.estimates.size(), 40u);  // one per agent
    EXPECT_EQ(result.checkpoints.size(), 3u);
    for (double d : result.estimates) {
      EXPECT_GE(d, 0.0);
    }
  }
}

TEST(Experiment, ResultJsonParsesAndCarriesTheSchema) {
  const ScenarioResult result =
      Experiment(tiny_spec("hypercube:7", Workload::kDensity)).run();
  const util::JsonValue doc = util::JsonValue::parse(result.to_json().dump());
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->as_string(), "antdense.scenario.v1");
  EXPECT_EQ(doc.find("rounds")->as_uint(), 30u);
  EXPECT_EQ(doc.find("workload")->as_string(), "density");
  EXPECT_EQ(doc.find("estimates")->items().size(), 80u);
  EXPECT_EQ(doc.find("summary")->find("count")->as_uint(), 80u);
  EXPECT_EQ(doc.find("spec")->find("topology")->as_string(), "hypercube:7");
}

// ---------------------------------------------------------------------
// BallDensityObserver vs the L1-ball oracle
// ---------------------------------------------------------------------

TEST(BallDensity, MatchesTorus2DLocalDensityObserverExactly) {
  // Same walk, both observers: the graph-distance ball on the 2-D torus
  // is the wrap-aware L1 ball, so the generic observer must reproduce
  // the specialized one bit-for-bit, up to the specialized
  // implementation's validity limit (2 * radius < both sides).
  const graph::Torus2D torus(11, 13);
  const graph::AnyTopology any(torus);
  for (const std::uint32_t radius : {1u, 2u, 5u}) {
    SCOPED_TRACE(radius);
    const std::vector<std::uint32_t> checkpoints = {1, 4, 9};
    testing::LocalDensityObserver specialized(torus, radius, checkpoints);
    scenario::BallDensityObserver generic(any, radius, checkpoints, 35);
    sim::WalkConfig cfg;
    cfg.num_agents = 35;
    cfg.rounds = checkpoints.back();
    sim::run_walk(torus, cfg, 0xBA11u, sim::SingleExec{}, nullptr, specialized,
                  generic);
    EXPECT_EQ(specialized.densities(), generic.densities());
  }
}

}  // namespace
}  // namespace antdense
