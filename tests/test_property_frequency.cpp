// Section 5.2 property-frequency estimation through the `property`
// workload: f~ = cp/c per agent, the truth f_P = carriers / (agents - 1),
// the zero- and all-carrier edge cases, validation of the carrier
// fraction, determinism in the seed, and concentration around f_P on a
// dense torus.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>

#include "scenario/experiment.hpp"
#include "scenario/spec.hpp"

namespace antdense {
namespace {

using scenario::Experiment;
using scenario::ScenarioResult;
using scenario::ScenarioSpec;
using scenario::Workload;

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

TEST(PropertyFrequency, EdgeCases) {
  // No carriers: every frequency is 0.
  ScenarioSpec spec = tiny_spec("torus2d:16x16", Workload::kProperty);
  spec.agents = 12;
  spec.rounds = 100;
  spec.property_fraction = 0.0;
  ScenarioResult result = Experiment(spec).run();
  EXPECT_DOUBLE_EQ(result.true_value, 0.0);
  for (double f : result.estimates) {
    EXPECT_DOUBLE_EQ(f, 0.0);
  }
  // Every agent a carrier: an agent that met anyone reads exactly 1,
  // one that met no one reads 0.
  spec.property_fraction = 1.0;
  spec.rounds = 400;
  result = Experiment(spec).run();
  std::size_t ones = 0;
  for (double f : result.estimates) {
    EXPECT_TRUE(f == 0.0 || f == 1.0) << f;
    ones += f == 1.0 ? 1 : 0;
  }
  EXPECT_GT(ones, result.estimates.size() / 2);
}

TEST(PropertyFrequency, TruthAndValidation) {
  // Truth is f_P = d_P / d = carriers / (agents - 1).
  ScenarioSpec spec = tiny_spec("torus2d:16x16", Workload::kProperty);
  spec.agents = 20;
  spec.property_fraction = 0.25;
  spec.rounds = 50;
  const ScenarioResult result = Experiment(spec).run();
  EXPECT_EQ(result.estimates.size(), 40u);  // agents x trials
  EXPECT_DOUBLE_EQ(result.true_value, 5.0 / 19.0);
  // Deterministic in the seed.
  EXPECT_EQ(Experiment(spec).run().estimates, result.estimates);

  spec.agents = 1;
  EXPECT_THROW(Experiment{spec}, std::invalid_argument);
  spec.agents = 20;
  spec.property_fraction = 1.01;  // more carriers than agents
  EXPECT_THROW(Experiment{spec}, std::invalid_argument);
}

TEST(PropertyFrequency, MeanFrequencyNearTruth) {
  // Section 5.2's claim: f~ concentrates around f_P.  Pool many trials
  // on a dense torus so nearly every agent sees collisions.
  ScenarioSpec spec = tiny_spec("torus2d:24x24", Workload::kProperty);
  spec.agents = 120;
  spec.property_fraction = 0.25;
  spec.rounds = 600;
  spec.trials = 40;
  spec.seed = 700;
  const ScenarioResult result = Experiment(spec).run();
  EXPECT_NEAR(result.summary.mean, result.true_value, 0.02);
}

}  // namespace
}  // namespace antdense
