// The two spec-to-result workloads.  One operation is what antdense_run
// does for a user: Experiment::run, then the result document
// (ScenarioResult::to_json().dump(0)).  Set-up is spec parsing plus
// Experiment construction (validation, Registry::make, Theorem-1
// round planning).
//
//   lattice   torus2d:1000x1000, 1e5 agents (d ~ 0.1), rounds planned by
//             Theorem 1 from (eps, delta) = (0.75, 0.2); engines single,
//             sharded (threads = min(4, cores)) and vector, plus the
//             single engine under churn.  The sim hot path dominates.
//             At least three passes per run, so one disturbed pass does
//             not set an operation's time.
//   implicit  rgg2d (1e6 nodes, 1e4 agents), gnp and ba (2000 nodes, 1e3
//             agents), each on all three engines, rounds sized so the
//             families take similar shares.  On-demand adjacency in the
//             graph layer dominates.
#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "obs/telemetry.hpp"

namespace perfbench {

namespace {

namespace scenario = antdense::scenario;
namespace obs = antdense::obs;

struct WalkOp {
  std::string label;   // e.g. "single" or "rgg2d.vector"
  std::string engine;  // detail grouping: single | sharded | vector | dynamic
  std::string spec_text;
  std::uint32_t check_rounds = 0;  // reduced rounds for the t1/tN check
  bool theorem1 = false;           // rounds planned by Theorem 1
};

std::string density_spec_json(const std::string& topology,
                              std::uint32_t agents, std::uint32_t rounds,
                              std::uint64_t seed, const std::string& engine,
                              unsigned threads,
                              const std::string& extra = "") {
  std::ostringstream out;
  out << R"({"topology":")" << topology
      << R"(","workload":"density","agents":)" << agents
      << R"(,"rounds":)" << rounds << R"(,"seed":)" << seed
      << R"(,"engine":")" << engine << R"(","threads":)" << threads << extra
      << "}";
  return out.str();
}

class WalkWorkload final : public Workload {
 public:
  WalkWorkload(const Options& options, Checks& checks, bool lattice)
      : options_(options), checks_(checks), lattice_(lattice) {}

  void prepare() override {
    const unsigned t = options_.threads();
    if (lattice_) {
      ops_.push_back(
          {"single", "single", lattice_spec_json(options_, "single", 0, 1), 24,
           true});
      ops_.push_back({"sharded", "sharded",
                      lattice_spec_json(options_, "sharded", 0, t), 24, true});
      ops_.push_back(
          {"vector", "vector", lattice_spec_json(options_, "vector", 0, 1), 24,
           true});
      ops_.push_back(
          {"dynamic", "dynamic",
           lattice_spec_json(
               options_, "single", 0, 1,
               R"(,"dynamics":"churn:p_edge=0.0005,p_fail=0.00025")"),
           24, false});
      return;
    }
    SeedStream seeds(options_.seed, 0x1A71);
    struct Family {
      const char* name;
      const char* topology;
      std::uint32_t agents, rounds, check_rounds;
    };
    static constexpr Family kFull[] = {
        {"rgg2d", "rgg2d:n=1000000,r=0.0016,seed=1", 10000, 50, 4},
        {"gnp", "gnp:n=2000,p=0.004,seed=1", 1000, 20, 2},
        {"ba", "ba:n=2000,d=4,seed=1", 1000, 1, 1}};
    static constexpr Family kTiny[] = {
        {"rgg2d", "rgg2d:n=100000,r=0.005,seed=1", 1000, 5, 2},
        {"gnp", "gnp:n=600,p=0.013,seed=1", 200, 5, 2},
        {"ba", "ba:n=500,d=4,seed=1", 100, 1, 1}};
    for (const Family& f : options_.tiny ? kTiny : kFull) {
      const std::uint64_t seed = seeds.in(1, 1ULL << 50);
      for (const std::string engine : {"single", "sharded", "vector"}) {
        ops_.push_back({std::string(f.name) + "." + engine, engine,
                        density_spec_json(f.topology, f.agents, f.rounds, seed,
                                          engine, engine == "sharded" ? t : 1),
                        f.check_rounds, false});
      }
    }
  }

  double setup() override {
    const double start = now_s();
    std::vector<scenario::Experiment> experiments;
    experiments.reserve(ops_.size());
    for (const WalkOp& op : ops_) {
      experiments.emplace_back(parse_spec(op.spec_text));
    }
    const double seconds = now_s() - start;
    experiments_ = std::move(experiments);
    return seconds;
  }

  double pass(Tracer* tracer, OpTimes& ops) override {
    if (first_digest_.empty()) {
      first_digest_.resize(ops_.size());
    }
    std::map<std::string, double> by_engine;
    double total = 0.0;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const WalkOp& op = ops_[i];
      const scenario::Experiment& experiment = experiments_[i];
      obs::MetricsRegistry registry;
      obs::Telemetry telemetry{&registry, nullptr};
      std::optional<obs::ScopedTelemetry> ambient;
      if (tracer != nullptr) {
        ambient.emplace(&telemetry);
      }
      scenario::ScenarioResult result;
      std::string document;
      double seconds = 0.0;
      try {
        Tracer::Scope whole(tracer, "spec_to_document." + op.label, "bench");
        {
          Tracer::Scope run(tracer, "Experiment::run", "scenario");
          result = experiment.run();
          if (tracer != nullptr) {
            add_phase_children(*tracer, run, {},
                               phase_sums(registry.to_json()));
          }
        }
        JsonValue doc;
        {
          Tracer::Scope s(tracer, "ScenarioResult::to_json", "scenario");
          doc = result.to_json();
        }
        {
          Tracer::Scope s(tracer, "JsonValue::dump", "util");
          document = doc.dump(0);
        }
        seconds = whole.seconds();
      } catch (const std::exception& e) {
        checks_.record(false, op.label + " threw: " + e.what());
        continue;
      }
      ambient.reset();
      total += seconds;
      ops[op.label].push_back(seconds);
      by_engine[op.engine] += seconds;

      // Checks, untimed: the canonical document must not change from
      // pass to pass (same spec, same bytes), and a Theorem-1-planned
      // run must put at least 1-delta of its estimates within (1 +- eps).
      const std::string d = digest(canonical_payload(result));
      if (first_digest_[i].empty()) {
        first_digest_[i] = d;
        result_bytes_ = std::max<std::size_t>(result_bytes_, document.size());
      }
      checks_.record(d == first_digest_[i] && !document.empty() &&
                         result.estimates.size() == result.spec.agents,
                     op.label + ": result document changed between passes");
      if (op.theorem1) {
        const double within = result.summary.within_eps;
        within_eps_ = std::min(within_eps_, within);
        checks_.record(within >= 1.0 - result.spec.delta,
                       op.label + ": within_eps " + std::to_string(within) +
                           " < 1 - delta");
        rounds_ = result.spec.rounds;
      }
    }
    for (const auto& [engine, seconds] : by_engine) {
      run_s_[engine].push_back(seconds);
    }
    return total;
  }

  void final_checks() override {
    // Thread invariance of the sharded engine on reduced-round copies:
    // threads=1 and threads=N must give the same canonical document.
    for (const WalkOp& op : ops_) {
      if (op.engine != "sharded") {
        continue;
      }
      try {
        scenario::ScenarioSpec spec = parse_spec(op.spec_text);
        spec.rounds = op.check_rounds;
        spec.threads = 1;
        const std::string t1 =
            canonical_payload(scenario::Experiment(spec).run());
        spec.threads = options_.threads();
        const std::string tn =
            canonical_payload(scenario::Experiment(spec).run());
        checks_.record(t1 == tn, op.label + ": sharded threads=1 and threads=" +
                                     std::to_string(spec.threads) + " differ");
      } catch (const std::exception& e) {
        checks_.record(false, op.label + " thread check threw: " + e.what());
      }
    }
  }

  int min_passes() const override { return lattice_ ? 3 : 1; }

  JsonValue detail() const override {
    JsonValue doc = JsonValue::object();
    for (const auto& [engine, samples] : run_s_) {
      doc.set("run_s." + engine, median(samples));
    }
    doc.set("passes", static_cast<std::uint64_t>(
                          run_s_.empty() ? 0 : run_s_.begin()->second.size()));
    doc.set("result_bytes", static_cast<std::uint64_t>(result_bytes_));
    if (lattice_ && rounds_ != 0) {
      doc.set("within_eps", within_eps_);
      doc.set("planned_rounds", rounds_);
    }
    return doc;
  }

 private:
  const Options& options_;
  Checks& checks_;
  bool lattice_;
  std::vector<WalkOp> ops_;
  std::vector<scenario::Experiment> experiments_;
  std::vector<std::string> first_digest_;
  std::map<std::string, std::vector<double>> run_s_;
  std::size_t result_bytes_ = 0;
  double within_eps_ = std::numeric_limits<double>::infinity();
  std::uint32_t rounds_ = 0;
};

}  // namespace

std::string lattice_spec_json(const Options& options, const std::string& engine,
                              std::uint32_t rounds, unsigned threads,
                              const std::string& extra) {
  SeedStream seeds(options.seed, 0x1A77);
  return density_spec_json(
      options.tiny ? "torus2d:200x200" : "torus2d:1000x1000",
      options.tiny ? 4000 : 100000, rounds, seeds.in(1, 1ULL << 50), engine,
      threads, R"(,"eps":0.75,"delta":0.2)" + extra);
}

std::unique_ptr<Workload> make_lattice(const Options& options, Checks& checks) {
  return std::make_unique<WalkWorkload>(options, checks, true);
}

std::unique_ptr<Workload> make_implicit(const Options& options,
                                        Checks& checks) {
  return std::make_unique<WalkWorkload>(options, checks, false);
}

}  // namespace perfbench
