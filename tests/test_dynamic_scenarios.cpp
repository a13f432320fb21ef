// The dynamics layer, end to end through scenario::Experiment:
//
//   - Goldens: dynamics-absent scenarios produce byte-identical result
//     documents to the pre-dynamics build on all three engines (hashes
//     captured before the layer landed — the "static worlds are
//     untouched" contract, which also pins the sensing-spec redesign),
//     now for every workload x engine cell; dynamic scenarios (churn,
//     drift, fade) likewise on every engine, one hash across thread
//     counts.
//   - Degeneracy: churn with both rates 0 equals the static walk
//     estimate for estimate, and a drift model with no deaths/births
//     likewise, on the vector engine as on the scalar ones.
//   - Statistics: relative error grows monotone-ish with churn
//     aggressiveness on a torus (fixed seeds, so deterministic).
#include "scenario/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/any_topology.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/density_sim.hpp"
#include "sim/dynamic_world.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace antdense {
namespace {

using scenario::Experiment;
using scenario::Registry;
using scenario::ScenarioSpec;

ScenarioSpec spec_of(const std::string& text) {
  return ScenarioSpec::from_json(util::JsonValue::parse(text));
}

/// The result document's content hash: to_json() minus the two wall-
/// clock fields, dumped compact.  Matches the pre-dynamics capture
/// procedure exactly.
std::string document_hash(const scenario::ScenarioResult& result) {
  util::JsonValue doc = result.to_json();
  doc.erase("elapsed_seconds");
  doc.erase("elapsed_ns");
  return util::hex64(util::fnv1a64(doc.dump(0)));
}

std::string result_hash(const ScenarioSpec& spec) {
  return document_hash(Experiment(spec).run());
}

// ---------------------------------------------------------------------
// Static worlds are untouched: result-document goldens, all 3 engines
// ---------------------------------------------------------------------

TEST(DynamicScenarios, StaticResultsAreByteIdenticalToPreDynamicsBuild) {
  const struct {
    const char* json;
    const char* hash;
  } goldens[] = {
      {R"({"topology":"torus2d:32x32","workload":"density","agents":64,
           "rounds":16,"seed":1,"engine":"single"})",
       "db12d2519312913a"},
      {R"({"topology":"torus2d:32x32","workload":"density","agents":64,
           "rounds":16,"seed":1,"engine":"sharded","threads":3})",
       "395fd1682c502a72"},
      {R"({"topology":"torus2d:32x32","workload":"density","agents":64,
           "rounds":16,"seed":1,"engine":"vector"})",
       "150f499712b67a77"},
      {R"({"topology":"torus2d:32x32","workload":"density","agents":64,
           "rounds":16,"seed":1,"miss":0.25,"spurious":0.02,"trials":2,
           "engine":"single"})",
       "a2aec93c6a3889aa"},
      {R"({"topology":"torus2d:32x32","workload":"density","agents":64,
           "rounds":16,"seed":1,"miss":0.25,"spurious":0.02,"trials":2,
           "engine":"sharded","threads":2})",
       "ad9d8b70a39da091"},
      {R"({"topology":"ring:1024","workload":"property","agents":50,
           "rounds":12,"property-fraction":0.25,"seed":9,
           "engine":"sharded","threads":2})",
       "f7bee11785200bdd"},
      {R"({"topology":"hypercube:10","workload":"trajectory","tracked":4,
           "checkpoints":5,"agents":32,"rounds":20,"seed":11,
           "engine":"single"})",
       "50ccd5e52a6de938"},
      // Every other workload x engine cell, and the trial fan-outs.
      {R"({"topology":"torus2d:32x32","workload":"density","agents":64,
           "rounds":16,"seed":1,"trials":3,"threads":2,"engine":"vector"})",
       "bbe96fd3f3b77dc8"},
      {R"({"topology":"ring:1024","workload":"property","agents":50,
           "rounds":12,"property-fraction":0.25,"seed":9,
           "engine":"single"})",
       "dd0a41d55e275ac5"},
      {R"({"topology":"ring:1024","workload":"property","agents":50,
           "rounds":12,"property-fraction":0.25,"seed":9,"trials":3,
           "threads":2,"engine":"single"})",
       "66a107ce5922ca22"},
      {R"({"topology":"ring:1024","workload":"property","agents":50,
           "rounds":12,"property-fraction":0.25,"seed":9,
           "engine":"vector"})",
       "aa5ff6678eb5f80f"},
      {R"({"topology":"ring:1024","workload":"property","agents":50,
           "rounds":12,"property-fraction":0.25,"seed":9,"trials":3,
           "threads":2,"engine":"vector"})",
       "371953590407f36a"},
      {R"({"topology":"ring:1024","workload":"property","agents":50,
           "rounds":12,"property-fraction":0.25,"seed":9,"trials":3,
           "threads":2,"engine":"sharded"})",
       "12ed0c8bce9d2e2d"},
      {R"({"topology":"hypercube:10","workload":"trajectory","tracked":4,
           "checkpoints":5,"agents":32,"rounds":20,"seed":11,
           "engine":"sharded","threads":3})",
       "3c69d17b2aacea76"},
      {R"({"topology":"hypercube:10","workload":"trajectory","tracked":4,
           "checkpoints":5,"agents":32,"rounds":20,"seed":11,
           "engine":"vector"})",
       "c4c00f1d14f86968"},
      {R"({"topology":"torus2d:16x16","workload":"local-density",
           "radius":1,"tracked":3,"checkpoints":3,"agents":40,"rounds":12,
           "seed":4,"engine":"single"})",
       "fc38c1c3d71b4ca1"},
      {R"({"topology":"torus2d:16x16","workload":"local-density",
           "radius":1,"tracked":3,"checkpoints":3,"agents":40,"rounds":12,
           "seed":4,"engine":"sharded","threads":2})",
       "a9e9f7679988ed14"},
      {R"({"topology":"torus2d:16x16","workload":"local-density",
           "radius":1,"tracked":3,"checkpoints":3,"agents":40,"rounds":12,
           "seed":4,"engine":"vector"})",
       "1b708d07a3caabe8"},
  };
  for (const auto& g : goldens) {
    EXPECT_EQ(result_hash(spec_of(g.json)), g.hash)
        << "static result drifted for " << g.json;
  }
}

// ---------------------------------------------------------------------
// Dynamic worlds: result-document goldens, all 3 engines
// ---------------------------------------------------------------------

TEST(DynamicScenarios, DynamicResultsMatchTheirGoldens) {
  const struct {
    const char* json;
    std::vector<unsigned> threads;  // every count must give `hash`
    const char* hash;
  } goldens[] = {
      {R"({"topology":"torus2d:16x16","workload":"density","agents":32,
           "rounds":20,"seed":3,"engine":"single",
           "dynamics":"churn:p_edge=0.02,p_fail=0.01"})",
       {0},
       "cb64e9dc0a74e162"},
      {R"({"topology":"torus2d:16x16","workload":"density","agents":32,
           "rounds":20,"seed":3,"engine":"sharded",
           "dynamics":"churn:p_edge=0.02,p_fail=0.01"})",
       {1, 3},
       "177109bc7acc0b53"},
      {R"({"topology":"torus2d:16x16","workload":"density","agents":32,
           "rounds":20,"seed":3,"engine":"vector",
           "dynamics":"churn:p_edge=0.02,p_fail=0.01"})",
       {0},
       "9a7f2d4a03423113"},
      // A larger overlay: thousands of failed nodes and down edges at
      // steady state, so the overlay's indexes grow, erase and recover
      // many times over (the 16x16 pins above never hold more than a
      // handful of down elements).
      {R"({"topology":"torus2d:128x128","workload":"density","agents":2000,
           "rounds":150,"seed":6,"engine":"single",
           "dynamics":"churn:p_edge=0.005,p_fail=0.0025,mean_down=30"})",
       {0},
       "449c768929b690a0"},
      {R"({"topology":"torus2d:128x128","workload":"density","agents":2000,
           "rounds":150,"seed":6,"engine":"sharded",
           "dynamics":"churn:p_edge=0.005,p_fail=0.0025,mean_down=30"})",
       {1, 3},
       "f4c4997d50d00633"},
      {R"({"topology":"torus2d:128x128","workload":"density","agents":2000,
           "rounds":150,"seed":6,"engine":"vector",
           "dynamics":"churn:p_edge=0.005,p_fail=0.0025,mean_down=30"})",
       {0},
       "c1b835b2e418a9b1"},
      {R"({"topology":"ring:256","workload":"density","agents":24,
           "rounds":24,"seed":8,"trials":3,"engine":"single",
           "dynamics":"drift:p_death=0.02,p_birth=0.05"})",
       {1, 3},
       "6d2dc18e24aa2513"},
      {R"({"topology":"ring:256","workload":"density","agents":24,
           "rounds":24,"seed":8,"trials":3,"engine":"sharded",
           "dynamics":"drift:p_death=0.02,p_birth=0.05"})",
       {1, 3},
       "8603f6918a5e2f19"},
      {R"({"topology":"ring:256","workload":"density","agents":24,
           "rounds":24,"seed":8,"trials":3,"engine":"vector",
           "dynamics":"drift:p_death=0.02,p_birth=0.05"})",
       {1, 3},
       "5bacf3826fc1cd0c"},
      {R"({"topology":"torus2d:16x16","workload":"density","agents":32,
           "rounds":20,"seed":5,"engine":"single","miss":0.2,
           "dropout":0.1,"dynamics":"fade:p0=0.1,step=0.05"})",
       {0},
       "cbb059ac1ce8ab69"},
      {R"({"topology":"torus2d:16x16","workload":"density","agents":32,
           "rounds":20,"seed":5,"engine":"vector","miss":0.2,
           "dropout":0.1,"dynamics":"fade:p0=0.1,step=0.05"})",
       {0},
       "6051af86a45d7e51"},
  };
  for (const auto& g : goldens) {
    const ScenarioSpec pinned = spec_of(g.json);
    for (const unsigned threads : g.threads) {
      // The document records `threads`; put the pinned value back so one
      // hash covers every thread count.
      ScenarioSpec spec = pinned;
      spec.threads = threads;
      scenario::ScenarioResult result = Experiment(spec).run();
      result.spec.threads = pinned.threads;
      EXPECT_EQ(document_hash(result), g.hash)
          << "dynamic result drifted for " << g.json << " at " << threads
          << " thread(s)";
    }
  }
}

// ---------------------------------------------------------------------
// Degenerate dynamics reproduce the static walk
// ---------------------------------------------------------------------

TEST(DynamicScenarios, ZeroRateChurnEqualsTheStaticWalk) {
  const graph::AnyTopology topo =
      Registry::built_in().make("torus2d:16x16");
  sim::DensityConfig cfg;
  cfg.num_agents = 32;
  cfg.rounds = 24;

  const std::vector<double> expected =
      sim::run_density_walk(topo, cfg, /*seed=*/13).estimates();
  sim::ChurnDynamics churn(topo, 0.0, 0.0, 10, 0);
  EXPECT_EQ(sim::run_dynamic_density_walk(topo, cfg, churn, 13), expected)
      << "a dynamic world that never mutates must reproduce the static "
         "stream bit for bit (single engine)";

  const sim::ShardExec sharded{};
  const std::vector<double> expected_sharded =
      sim::run_density_walk(topo, cfg, /*seed=*/13, sharded).estimates();
  sim::ChurnDynamics churn2(topo, 0.0, 0.0, 10, 0);
  EXPECT_EQ(sim::run_dynamic_density_walk(topo, cfg, churn2, 13, sharded),
            expected_sharded)
      << "and on the sharded engine";

  const sim::VectorExec vector;
  const std::vector<double> expected_vector =
      sim::run_density_walk(topo, cfg, /*seed=*/13, vector).estimates();
  sim::ChurnDynamics churn3(topo, 0.0, 0.0, 10, 0);
  EXPECT_EQ(sim::run_dynamic_density_walk(topo, cfg, churn3, 13, vector),
            expected_vector)
      << "and on the vector engine";

  sim::DriftDynamics still(topo, cfg.num_agents, 0.0, 0.0, 0);
  EXPECT_EQ(sim::run_dynamic_density_walk(topo, cfg, still, 13), expected)
      << "a drift model with no deaths or births is the static walk";
  sim::DriftDynamics still_vector(topo, cfg.num_agents, 0.0, 0.0, 0);
  EXPECT_EQ(
      sim::run_dynamic_density_walk(topo, cfg, still_vector, 13, vector),
      expected_vector)
      << "on the vector engine too";
}

// ---------------------------------------------------------------------
// Through the Experiment layer
// ---------------------------------------------------------------------

TEST(DynamicScenarios, ExperimentRunsDynamicDensityOnEveryEngine) {
  for (const char* engine : {"single", "sharded", "vector"}) {
    const ScenarioSpec spec = spec_of(
        std::string(R"({"topology":"torus2d:16x16","workload":"density",)") +
        R"("agents":32,"rounds":20,"seed":3,)" +
        R"("dynamics":"churn:p_edge=0.02,p_fail=0.01","engine":")" +
        engine + "\"}");
    const scenario::ScenarioResult result = Experiment(spec).run();
    EXPECT_EQ(result.estimates.size(), 32u);
    for (const double e : result.estimates) {
      EXPECT_GE(e, 0.0);
      EXPECT_TRUE(std::isfinite(e));
    }
    // The canonicalized dynamics spec lands in the result artifact.
    const util::JsonValue doc = Experiment(spec).run().to_json();
    const util::JsonValue* spec_doc = doc.find("spec");
    ASSERT_NE(spec_doc, nullptr);
    const util::JsonValue* dyn = spec_doc->find("dynamics");
    ASSERT_NE(dyn, nullptr);
    EXPECT_EQ(dyn->as_string(),
              "churn:p_edge=0.02,p_fail=0.01,mean_down=10,seed=0");
  }
}

TEST(DynamicScenarios, ExperimentTrialFanOutPoolsDriftEstimates) {
  const ScenarioSpec spec = spec_of(
      R"({"topology":"ring:256","workload":"density","agents":24,
          "rounds":24,"seed":8,"trials":3,
          "dynamics":"drift:p_death=0.02,p_birth=0.05"})");
  const scenario::ScenarioResult result = Experiment(spec).run();
  // Dead slots are excluded per trial, so the pool is at most
  // trials x agents and non-empty with these gentle rates.
  EXPECT_GT(result.estimates.size(), 0u);
  EXPECT_LE(result.estimates.size(), 72u);
  // Determinism across repeat runs (fresh models per trial, derived
  // per-trial seeds).
  const scenario::ScenarioResult again = Experiment(spec).run();
  EXPECT_EQ(result.estimates, again.estimates);
}

// ---------------------------------------------------------------------
// Statistics: error grows with churn
// ---------------------------------------------------------------------

TEST(DynamicScenarios, RelativeErrorGrowsMonotoneIshWithChurn) {
  // Fixed seeds make this deterministic; the margin is what the
  // committed example campaign (examples/campaigns/churn_sweep.json)
  // reports at larger scale.
  const auto rel_error = [](const char* dynamics) {
    const ScenarioSpec spec = spec_of(
        std::string(
            R"({"topology":"torus2d:24x24","workload":"density",)") +
        R"("agents":58,"rounds":48,"seed":17,"trials":4,"dynamics":")" +
        dynamics + "\"}");
    const scenario::ScenarioResult result = Experiment(spec).run();
    double sum = 0.0;
    for (const double e : result.estimates) {
      sum += std::fabs(e - result.true_value) / result.true_value;
    }
    return sum / static_cast<double>(result.estimates.size());
  };
  const double calm = rel_error("churn:p_edge=0,p_fail=0");
  const double stormy =
      rel_error("churn:p_edge=0.2,p_fail=0.1,mean_down=12");
  EXPECT_GT(stormy, calm)
      << "heavy churn must degrade density estimates (calm=" << calm
      << ", stormy=" << stormy << ")";
}

}  // namespace
}  // namespace antdense
