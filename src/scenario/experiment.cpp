#include "scenario/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <utility>

#include "core/density_estimator.hpp"
#include "obs/telemetry.hpp"
#include "rng/splitmix64.hpp"
#include "scenario/ball_density.hpp"
#include "scenario/dynamics_registry.hpp"
#include "sim/density_sim.hpp"
#include "sim/dynamics.hpp"
#include "sim/trial_runner.hpp"
#include "sim/walk_engine.hpp"
#include "stats/accumulator.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace antdense::scenario {

namespace {

ScenarioSummary summarize(const std::vector<double>& estimates,
                          double true_value, double eps) {
  stats::Accumulator acc;
  for (double e : estimates) {
    acc.add(e);
  }
  ScenarioSummary s;
  s.count = acc.count();
  s.mean = acc.mean();
  s.stddev = acc.sample_stddev();
  s.standard_error = acc.standard_error();
  s.min = acc.count() == 0 ? 0.0 : acc.min();
  s.max = acc.count() == 0 ? 0.0 : acc.max();
  std::uint64_t within = 0;
  for (double e : estimates) {
    if (std::fabs(e - true_value) <= eps * true_value) {
      ++within;
    }
  }
  s.within_eps = estimates.empty()
                     ? 0.0
                     : static_cast<double>(within) /
                           static_cast<double>(estimates.size());
  return s;
}

/// Round-grained progress tap for a single walk (trials == 1; a fan-out
/// passes null hooks and reports trials instead).  Its only hook is
/// end_round, which all three engines fire serially, and it draws no
/// randomness — so riding it alongside the workload observers leaves
/// every result stream bit-identical to the plain run.
struct RoundProgressObserver {
  RoundProgressObserver(const ProgressHooks* hooks, std::uint64_t total_rounds)
      : hooks_(hooks), total_(total_rounds) {
    stride_ = hooks != nullptr && hooks->round_stride != 0
                  ? hooks->round_stride
                  : static_cast<std::uint32_t>(
                        std::max<std::uint64_t>(1, total_rounds / 64));
  }

  void end_round(std::uint32_t round) const {
    if (hooks_ != nullptr && hooks_->on_progress &&
        (round % stride_ == 0 || round == total_)) {
      hooks_->on_progress(round, total_);
    }
  }

 private:
  const ProgressHooks* hooks_;
  std::uint64_t total_;
  std::uint32_t stride_;
};

/// Trial-grained progress tap for the fan-outs: one tick per finished
/// trial, reported from whichever worker ran it.
struct TrialProgress {
  TrialProgress(const ProgressHooks& hooks, std::uint64_t total_trials)
      : hooks_(hooks), total_(total_trials) {}

  std::function<void(std::size_t)> callback() {
    if (!hooks_.on_progress) {
      return {};
    }
    return [this](std::size_t) {
      hooks_.on_progress(done_.fetch_add(1, std::memory_order_relaxed) + 1,
                         total_);
    };
  }

 private:
  const ProgressHooks& hooks_;
  std::uint64_t total_;
  std::atomic<std::uint64_t> done_{0};
};

/// The one place a spec's engine becomes a sim::Exec.  Every walk runs
/// on one thread; the spec's `threads` fans out trials (sim::run_trials).
sim::Exec engine_exec(const ScenarioSpec& spec) {
  switch (spec.engine) {
    case EngineMode::kSharded:
      return sim::ShardExec{};
    case EngineMode::kVector:
      return sim::VectorExec{};
    case EngineMode::kSingleStream:
      break;
  }
  return sim::SingleExec{};
}

sim::DensityConfig density_config(const ScenarioSpec& spec) {
  sim::DensityConfig cfg;
  cfg.num_agents = spec.agents;
  cfg.rounds = spec.rounds;
  cfg.lazy_probability = spec.lazy_probability;
  cfg.detection_miss_probability = spec.sensing.detection_miss;
  cfg.spurious_collision_probability = spec.sensing.spurious;
  cfg.observation_dropout_probability = spec.sensing.dropout;
  return cfg;
}

}  // namespace

util::JsonValue ScenarioResult::to_json() const {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("schema", "antdense.scenario.v1");
  doc.set("spec", spec.to_json());
  doc.set("topology", topology_name);
  doc.set("num_nodes", num_nodes);
  doc.set("workload", workload_name(spec.workload));
  doc.set("rounds", spec.rounds);
  doc.set("true_value", true_value);

  util::JsonValue summary_doc = util::JsonValue::object();
  summary_doc.set("count", summary.count);
  summary_doc.set("mean", summary.mean);
  summary_doc.set("stddev", summary.stddev);
  summary_doc.set("standard_error", summary.standard_error);
  summary_doc.set("min", summary.min);
  summary_doc.set("max", summary.max);
  summary_doc.set("within_eps", summary.within_eps);
  doc.set("summary", summary_doc);

  // The arrays are built in place and moved in: a 10^5-agent estimates
  // array is about 10 MB of JsonValues.
  util::JsonValue estimates_doc = util::JsonValue::array(estimates.size());
  for (double e : estimates) {
    estimates_doc.push_back(e);
  }
  doc.set("estimates", std::move(estimates_doc));

  util::JsonValue checkpoints_doc = util::JsonValue::array(checkpoints.size());
  for (std::uint32_t c : checkpoints) {
    checkpoints_doc.push_back(c);
  }
  doc.set("checkpoints", std::move(checkpoints_doc));

  util::JsonValue series_doc = util::JsonValue::array(series.size());
  for (const auto& trace : series) {
    util::JsonValue trace_doc = util::JsonValue::array(trace.size());
    for (double v : trace) {
      trace_doc.push_back(v);
    }
    series_doc.push_back(std::move(trace_doc));
  }
  doc.set("series", std::move(series_doc));

  doc.set("elapsed_seconds", elapsed_seconds);
  doc.set("elapsed_ns", elapsed_ns);
  return doc;
}

Experiment::Experiment(ScenarioSpec spec)
    : Experiment(std::move(spec), Registry::built_in()) {}

Experiment::Experiment(ScenarioSpec spec, const Registry& registry)
    : spec_(std::move(spec)), topo_(registry.make(spec_.topology)) {
  spec_.validate();
  spec_.topology = registry.canonical(spec_.topology);
  if (!spec_.dynamics.empty()) {
    // Canonicalize like the topology so journals and caches key on one
    // spelling; this is also where an unknown model is rejected.
    spec_.dynamics = DynamicsRegistry::built_in().canonical(spec_.dynamics);
    ANTDENSE_CHECK(spec_.workload == Workload::kDensity,
                   "dynamics models apply to the density workload only");
  }
  ANTDENSE_CHECK(spec_.workload == Workload::kDensity ||
                     !spec_.sensing.any(),
                 "sensing-noise knobs (miss, spurious, dropout) apply to "
                 "the density workload only");
  ANTDENSE_CHECK(spec_.trials == 1 ||
                     spec_.workload == Workload::kDensity ||
                     spec_.workload == Workload::kProperty,
                 "trials > 1 applies to the density and property "
                 "workloads only (trajectory and local-density record "
                 "one walk)");
  spec_.tracked = std::min(spec_.tracked, spec_.agents);
  if (spec_.rounds == 0) {
    const double density = static_cast<double>(spec_.agents - 1) /
                           static_cast<double>(topo_.num_nodes());
    spec_.rounds = core::plan_rounds(spec_.eps, spec_.delta, density,
                                     topo_.num_nodes());
  }
}

ScenarioResult Experiment::run() const { return run(ProgressHooks{}); }

ScenarioResult Experiment::run(const ProgressHooks& hooks) const {
  util::WallTimer timer;
  // Trace the whole workload as one span (RNG-neutral: a trace scope
  // observes wall time only).
  obs::Telemetry* telemetry = obs::ambient_telemetry();
  obs::SpanScope workload_span(
      telemetry != nullptr ? telemetry->trace : nullptr,
      workload_name(spec_.workload), "scenario");
  ScenarioResult result;
  result.spec = spec_;
  result.topology_name = topo_.name();
  result.num_nodes = topo_.num_nodes();
  result.true_value = static_cast<double>(spec_.agents - 1) /
                      static_cast<double>(topo_.num_nodes());

  // Every workload is one row — a seed tag, an observer set, a result
  // extraction — run under sim::run_trials' trial rule on the spec's
  // engine.  trajectory and local-density are one walk (the constructor
  // rejects trials > 1), so their rows may write the series directly;
  // their last checkpoint is spec_.rounds.
  const sim::DensityConfig cfg = density_config(spec_);
  const bool one_walk = spec_.trials == 1;
  const RoundProgressObserver progress(one_walk ? &hooks : nullptr,
                                       spec_.rounds);
  TrialProgress trial_progress(hooks, spec_.trials);
  const auto fan_out = [&](auto&& run_trial) {
    return sim::run_trials(
        spec_.trials, spec_.seed, engine_exec(spec_), spec_.threads,
        run_trial,
        one_walk ? std::function<void(std::size_t)>{}
                 : trial_progress.callback());
  };
  switch (spec_.workload) {
    case Workload::kDensity:
      // Algorithm 1 (tag 0x51).  A dynamic world builds a fresh model
      // per trial from the canonical spec, so trials stay independent
      // and order-free.
      result.estimates = fan_out([&](std::uint64_t seed,
                                     const sim::Exec& exec) {
        const std::unique_ptr<sim::WorldDynamics> model =
            spec_.dynamics.empty()
                ? nullptr
                : DynamicsRegistry::built_in().make(spec_.dynamics, topo_,
                                                    spec_.agents);
        sim::WalkConfig walk = cfg.walk_config();
        walk.dynamics = model.get();
        sim::CollisionObserver counts(spec_.agents, cfg.noise(), model.get());
        sim::run_walk(topo_, walk, rng::derive_seed(seed, 0x51u), exec,
                      nullptr, counts, progress);
        return counts.estimates(spec_.rounds);
      });
      break;

    case Workload::kProperty: {
      // Section 5.2's two-class walk (tag 0x52), carriers drawn per
      // trial.
      const auto num_property = static_cast<std::uint32_t>(
          std::lround(spec_.property_fraction * spec_.agents));
      result.true_value = static_cast<double>(num_property) /
                          static_cast<double>(spec_.agents - 1);
      result.estimates = fan_out([&](std::uint64_t seed,
                                     const sim::Exec& exec) {
        sim::PropertyObserver counts(
            sim::draw_property_carriers(spec_.agents, num_property, seed),
            topo_.num_nodes());
        sim::run_walk(topo_, cfg.walk_config(), rng::derive_seed(seed, 0x52u),
                      exec, nullptr, counts, progress);
        std::vector<double> freq;
        freq.reserve(spec_.agents);
        for (std::uint32_t i = 0; i < spec_.agents; ++i) {
          const auto c = static_cast<double>(counts.total_counts()[i]);
          const auto cp = static_cast<double>(counts.property_counts()[i]);
          freq.push_back(c == 0.0 ? 0.0 : cp / c);
        }
        return freq;
      });
      break;
    }

    case Workload::kTrajectory:
      // Collision counts plus running-estimate snapshots, on tag 0x7124.
      result.checkpoints = spec_.checkpoint_rounds(spec_.rounds);
      result.estimates = fan_out([&](std::uint64_t seed,
                                     const sim::Exec& exec) {
        sim::CollisionObserver counts(spec_.agents);
        sim::TrajectoryObserver trajectory(counts, spec_.tracked,
                                           result.checkpoints);
        sim::run_walk(topo_, cfg.walk_config(),
                      rng::derive_seed(seed, 0x7124u), exec, nullptr, counts,
                      trajectory, progress);
        result.series = trajectory.take_estimates();
        std::vector<double> finals;
        for (const auto& trace : result.series) {
          finals.push_back(trace.back());
        }
        return finals;
      });
      break;

    case Workload::kLocalDensity:
      // The generic ball observer, tag 0x10D.
      result.checkpoints = spec_.checkpoint_rounds(spec_.rounds);
      result.estimates = fan_out([&](std::uint64_t seed,
                                     const sim::Exec& exec) {
        BallDensityObserver balls(topo_, spec_.radius, result.checkpoints,
                                  spec_.agents);
        sim::run_walk(topo_, cfg.walk_config(), rng::derive_seed(seed, 0x10Du),
                      exec, nullptr, balls, progress);
        const std::vector<std::vector<double>> densities =
            balls.take_densities();
        result.series.resize(spec_.tracked);
        for (std::uint32_t a = 0; a < spec_.tracked; ++a) {
          result.series[a].reserve(densities.size());
          for (const auto& row : densities) {
            result.series[a].push_back(row[a]);
          }
        }
        return densities.back();
      });
      break;
  }

  result.summary = summarize(result.estimates, result.true_value, spec_.eps);
  result.elapsed_seconds = timer.elapsed_seconds();
  result.elapsed_ns = timer.elapsed_nanos();
  return result;
}

}  // namespace antdense::scenario
