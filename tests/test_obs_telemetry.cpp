// The telemetry layer's two load-bearing contracts (obs/telemetry.hpp):
//
//  1. RNG-neutrality — enabling metrics + tracing changes NOTHING about
//     what an experiment computes.  Pinned as byte-identity of the
//     canonical result document across all three engines.
//  2. Exactness — the striped counters lose nothing: sharded-engine
//     totals are exact and invariant across thread counts, and the
//     collision counter reconciles against the observer's own output.
//  3. Coverage — every phase of a round is booked once per round, a
//     dynamic world's move rewrite included.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <thread>

#include "graph/any_topology.hpp"
#include "graph/ring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/experiment.hpp"
#include "scenario/spec.hpp"
#include "sim/density_sim.hpp"
#include "sim/dynamic_world.hpp"
#include "sim/dynamics.hpp"
#include "sim/sharded_walk.hpp"
#include "util/json.hpp"

namespace antdense::obs {
namespace {

scenario::ScenarioSpec small_spec(scenario::EngineMode engine) {
  scenario::ScenarioSpec spec;
  spec.topology = "ring:128";
  spec.workload = scenario::Workload::kDensity;
  spec.agents = 24;
  spec.rounds = 60;
  spec.trials = 2;
  spec.seed = 11;
  spec.engine = engine;
  return spec;
}

/// The result document minus its timing fields — everything that is
/// allowed to depend on the spec, nothing that depends on the clock.
std::string canonical(const scenario::ScenarioSpec& spec) {
  util::JsonValue doc = scenario::Experiment(spec).run().to_json();
  doc.erase("elapsed_seconds");
  doc.erase("elapsed_ns");
  return doc.dump(0);
}

TEST(ObsTelemetry, ResultsAreByteIdenticalWithTelemetryOnAndOff) {
  for (const scenario::EngineMode engine :
       {scenario::EngineMode::kSingleStream, scenario::EngineMode::kSharded,
        scenario::EngineMode::kVector}) {
    const scenario::ScenarioSpec spec = small_spec(engine);
    const std::string baseline = canonical(spec);

    MetricsRegistry metrics;
    TraceRecorder trace;
    Telemetry telemetry{&metrics, &trace};
    std::string instrumented;
    {
      ScopedTelemetry ambient(&telemetry);
      instrumented = canonical(spec);
    }
    EXPECT_EQ(instrumented, baseline)
        << "telemetry must not perturb engine "
        << scenario::engine_mode_name(engine);

    // Guard against a vacuous pass: the instrumented run must actually
    // have hit the engine tap and the trace ring.
    const std::string label = scenario::engine_mode_name(engine);
    EXPECT_EQ(metrics.counter("antdense_engine_rounds_total",
                              {{"engine", label}})
                  .value(),
              static_cast<std::uint64_t>(spec.rounds) * spec.trials);
    EXPECT_GT(trace.event_count(), 0u);
  }
}

TEST(ObsTelemetry, ShardedCountersAreExactAndThreadCountInvariant) {
  const graph::Ring topo(256);
  sim::DensityConfig cfg;
  cfg.num_agents = 100;
  cfg.rounds = 50;

  for (const unsigned threads : {1u, 2u, 8u}) {
    MetricsRegistry metrics;
    Telemetry telemetry{&metrics, nullptr};
    sim::DensityResult result = [&] {
      ScopedTelemetry ambient(&telemetry);
      // shard_size 16 forces multiple shards, so with threads > 1 the
      // striped adds really do come from concurrent pool workers.
      return sim::run_density_walk_sharded(
          topo, cfg, /*seed=*/77,
          sim::ShardExec{.threads = threads, .shard_size = 16});
    }();

    const Labels sharded{{"engine", "sharded"}};
    EXPECT_EQ(
        metrics.counter("antdense_engine_agent_steps_total", sharded).value(),
        static_cast<std::uint64_t>(cfg.num_agents) * cfg.rounds)
        << "threads=" << threads;
    EXPECT_EQ(metrics.counter("antdense_engine_rounds_total", sharded).value(),
              cfg.rounds)
        << "threads=" << threads;

    const std::uint64_t observer_total = std::accumulate(
        result.collision_counts.begin(), result.collision_counts.end(),
        std::uint64_t{0});
    EXPECT_EQ(
        metrics.counter("antdense_collisions_observed_total").value(),
        observer_total)
        << "threads=" << threads;
    EXPECT_GT(observer_total, 0u) << "test needs collisions to count";
  }
}

TEST(ObsTelemetry, AmbientPropagatesThroughTrialFanOut) {
  // trials > 1 with threads > 1 runs each trial on a pool worker; the
  // fan-out must re-install the ambient bundle so per-trial engine taps
  // still land in the registry.
  scenario::ScenarioSpec spec = small_spec(scenario::EngineMode::kSingleStream);
  spec.trials = 4;
  spec.threads = 2;

  MetricsRegistry metrics;
  Telemetry telemetry{&metrics, nullptr};
  {
    ScopedTelemetry ambient(&telemetry);
    scenario::Experiment(spec).run();
  }
  EXPECT_EQ(metrics
                .counter("antdense_engine_agent_steps_total",
                         {{"engine", "single"}})
                .value(),
            static_cast<std::uint64_t>(spec.agents) * spec.rounds *
                spec.trials);
}

HistogramSnapshot phase(MetricsRegistry& metrics, const char* engine,
                        const char* name) {
  return metrics
      .histogram("antdense_engine_phase_seconds", {},
                 {{"engine", engine}, {"phase", name}})
      .snapshot();
}

TEST(ObsTelemetry, ChurnRunBooksEachPhaseOncePerRound) {
  scenario::ScenarioSpec spec = small_spec(scenario::EngineMode::kSingleStream);
  spec.trials = 1;
  spec.dynamics = "churn:p_edge=0.05,p_fail=0.02";
  MetricsRegistry metrics;
  Telemetry telemetry{&metrics, nullptr};
  {
    ScopedTelemetry ambient(&telemetry);
    scenario::Experiment(spec).run();
  }
  for (const char* name : {"step", "count", "observe"}) {
    EXPECT_EQ(phase(metrics, "single", name).count, spec.rounds) << name;
  }
  EXPECT_EQ(phase(metrics, "single", "mutate").count, spec.rounds - 1)
      << "the world is pristine in round 1";
}

/// A model whose only cost is a fixed wait inside rewrite_moves, which
/// otherwise just keys the positions.
class SlowRewrite final : public sim::WorldDynamics {
 public:
  static constexpr std::chrono::milliseconds kWait{2};

  explicit SlowRewrite(const graph::AnyTopology& topo) : topo_(&topo) {}

  std::string name() const override { return "slow-rewrite"; }
  std::uint64_t model_seed() const override { return 0; }
  void mutate(std::uint32_t, rng::Xoshiro256pp&, std::span<std::uint64_t>,
              std::span<const std::uint64_t>) override {}
  bool rewrites_moves() const override { return true; }
  void rewrite_moves(std::span<const std::uint64_t>,
                     std::span<std::uint64_t> pos,
                     std::span<std::uint64_t> keys, std::uint32_t begin,
                     std::uint32_t end) const override {
    topo_->keys(pos.subspan(begin, end - begin),
                keys.subspan(begin, end - begin));
    std::this_thread::sleep_for(kWait);
  }

 private:
  const graph::AnyTopology* topo_;
};

TEST(ObsTelemetry, MoveRewritesAreBookedToTheStepPhase) {
  const graph::AnyTopology topo{graph::Ring(128)};
  sim::DensityConfig cfg;
  cfg.num_agents = 24;
  cfg.rounds = 10;
  const double wait_s =
      std::chrono::duration<double>(SlowRewrite::kWait).count();
  const struct {
    const char* engine;
    const char* step;
    sim::Exec exec;
  } engines[] = {{"single", "step", sim::SingleExec{}},
                 {"sharded", "step_count", sim::ShardExec{.threads = 1}}};
  for (const auto& e : engines) {
    MetricsRegistry metrics;
    Telemetry telemetry{&metrics, nullptr};
    SlowRewrite model(topo);
    {
      ScopedTelemetry ambient(&telemetry);
      sim::run_dynamic_density_walk(topo, cfg, model, 5, e.exec);
    }
    const HistogramSnapshot step = phase(metrics, e.engine, e.step);
    EXPECT_EQ(step.count, cfg.rounds) << e.engine;
    EXPECT_GE(step.sum, cfg.rounds * wait_s)
        << e.engine << ": the rewrite's time escaped the step phase";
  }
}

TEST(ObsTelemetry, ScopedTelemetryInstallsMasksAndRestores) {
  EXPECT_EQ(ambient_telemetry(), nullptr);
  MetricsRegistry metrics;
  Telemetry telemetry{&metrics, nullptr};
  {
    ScopedTelemetry outer(&telemetry);
    EXPECT_EQ(ambient_telemetry(), &telemetry);
    {
      ScopedTelemetry mask(nullptr);
      EXPECT_EQ(ambient_telemetry(), nullptr) << "nullptr masks the scope";
    }
    EXPECT_EQ(ambient_telemetry(), &telemetry);

    // A bundle with no sinks counts as disabled and is not installed.
    Telemetry empty{};
    ScopedTelemetry disabled(&empty);
    EXPECT_EQ(ambient_telemetry(), nullptr);
  }
  EXPECT_EQ(ambient_telemetry(), nullptr);
}

TEST(ObsTelemetry, EngineTapIsInertWithoutAmbientContext) {
  ASSERT_EQ(ambient_telemetry(), nullptr);
  EngineTap tap("single", {"step", "count", "observe"});
  EXPECT_FALSE(tap.active());
  // All probes must be harmless no-ops.
  tap.add_rounds(10);
  tap.add_agent_steps(100);
  { EngineTap::PhaseSpan span(tap, 0); }
}

}  // namespace
}  // namespace antdense::obs
