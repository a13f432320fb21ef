// The campaign workload: one campaign of many small experiments, swept by
// campaign::run_campaign at 1 worker and at min(4, cores) workers with a
// fresh journal each time.  Its grid spans 6 topology families x 3
// engines x 4 scenario workloads x 3 agent counts in [32, 64] (drawn from
// the seed) at 128 rounds, plus a churn `dynamics` point for
// the single and sharded density runs — 252 experiments.  Many small
// experiments instead of one long walk: per-experiment cost (observers,
// spec overlay and validation, topology build, identity hashing, JSON,
// journal append) does the work here.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"

namespace perfbench {

namespace {

namespace campaign = antdense::campaign;
namespace obs = antdense::obs;
namespace fs = std::filesystem;

std::vector<std::string> sorted_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(const Options& options, Checks& checks)
      : options_(options), checks_(checks) {}

  ~CampaignWorkload() override {
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  void prepare() override {
    dir_ = fs::path(options_.out_dir) /
           ("tmp-campaign-" + std::to_string(getpid()));
    fs::create_directories(dir_);

    campaign_text_ = campaign_grid_json(options_);
  }

  double setup() override {
    const double start = now_s();
    campaign::CampaignSpec spec =
        campaign::CampaignSpec::from_json(JsonValue::parse(campaign_text_));
    const std::size_t planned = spec.expand().size();
    const double seconds = now_s() - start;
    spec_ = std::move(spec);
    planned_ = planned;
    return seconds;
  }

  double pass(Tracer* tracer, OpTimes& ops) override {
    double total = 0.0;
    std::vector<std::string> journals;
    for (const unsigned workers : {1u, options_.threads()}) {
      const std::string journal =
          (dir_ / ("journal-w" + std::to_string(workers) + ".jsonl")).string();
      fs::remove(journal);
      obs::MetricsRegistry registry;
      campaign::RunOptions run;
      run.threads = workers;
      if (tracer != nullptr) {
        run.telemetry = {&registry, nullptr};
      }
      std::vector<double> completions;
      if (workers == 1) {
        run.on_complete = [&completions](const campaign::PlannedExperiment&,
                                         std::size_t, std::size_t) {
          completions.push_back(now_s());
        };
      }
      double seconds = 0.0;
      try {
        Tracer::Scope sweep(tracer, "run_campaign.w" + std::to_string(workers),
                            "campaign");
        const double start = now_s();
        const campaign::RunReport report =
            campaign::run_campaign(spec_, journal, run);
        seconds = sweep.seconds();
        checks_.record(report.executed == planned_ && report.cached == 0,
                       "sweep w" + std::to_string(workers) + " executed " +
                           std::to_string(report.executed) + " of " +
                           std::to_string(planned_));
        if (tracer != nullptr) {
          attribute(*tracer, sweep, registry, seconds, workers);
        }
        // At one worker the experiments complete one after another in
        // a fixed order: completion gaps are per-experiment latencies.
        double previous = start;
        for (std::size_t i = 0; i < completions.size(); ++i) {
          ops["experiment." + std::to_string(i)].push_back(completions[i] -
                                                          previous);
          previous = completions[i];
        }
      } catch (const std::exception& e) {
        checks_.record(false, "sweep w" + std::to_string(workers) +
                                  " threw: " + e.what());
        continue;
      }
      total += seconds;
      sweep_s_[workers].push_back(seconds);
      journals.push_back(journal);
    }

    // Journals must be identical, modulo record order, across worker
    // counts and from pass to pass (the campaign is the same).
    if (journals.size() == 2) {
      const std::vector<std::string> w1 = sorted_lines(journals[0]);
      const std::vector<std::string> wn = sorted_lines(journals[1]);
      std::string joined;
      for (const std::string& line : w1) {
        joined += line;
        joined += '\n';
      }
      const std::string d = digest(joined);
      if (first_digest_.empty()) {
        first_digest_ = d;
        journal_bytes_ = joined.size();
      }
      checks_.record(w1 == wn && w1.size() == planned_,
                     "journals at 1 and " +
                         std::to_string(options_.threads()) +
                         " workers differ when sorted");
      checks_.record(d == first_digest_, "journal changed between passes");
    }
    for (const std::string& journal : journals) {
      fs::remove(journal);
    }
    return total;
  }

  JsonValue detail() const override {
    JsonValue doc = JsonValue::object();
    doc.set("experiments", static_cast<std::uint64_t>(planned_));
    for (const auto& [workers, samples] : sweep_s_) {
      doc.set("sweep_exp_per_s.w" + std::to_string(workers),
              static_cast<double>(planned_) / median(samples));
    }
    doc.set("passes", static_cast<std::uint64_t>(
                          sweep_s_.empty() ? 0 : sweep_s_.begin()->second.size()));
    doc.set("journal_bytes_per_exp",
            planned_ == 0 ? 0.0
                          : static_cast<double>(journal_bytes_) /
                                static_cast<double>(planned_));
    return doc;
  }

 private:
  /// Splits a sweep span into layers from the scheduler's exact sums:
  /// experiment time (scenario: Experiment construction and run) and,
  /// inside it, the walk phases (graph/sim).  At several workers the
  /// sums are worker time, so they count 1/workers each (capped at the
  /// sweep's wall time).
  static void attribute(Tracer& tracer, const Tracer::Scope& sweep,
                        obs::MetricsRegistry& registry, double wall,
                        unsigned workers) {
    const double experiments =
        registry.histogram("antdense_campaign_experiment_seconds")
            .snapshot()
            .sum;
    if (experiments <= 0.0) {
      return;
    }
    const double scale = std::min(1.0 / workers, wall / experiments);
    const auto [graph, sim] =
        graph_sim_seconds({}, phase_sums(registry.to_json()));
    const auto [id, start] =
        tracer.add_synthetic(sweep.id(), sweep.start_us(), "experiments",
                             "scenario", experiments * scale, sweep.request());
    tracer.add_synthetic(id, start, "walk.step", "graph", graph * scale,
                         sweep.request());
    tracer.add_synthetic(id, start, "walk.phases", "sim", sim * scale,
                         sweep.request());
  }

  const Options& options_;
  Checks& checks_;
  fs::path dir_;
  std::string campaign_text_;
  campaign::CampaignSpec spec_;
  std::size_t planned_ = 0;
  std::map<unsigned, std::vector<double>> sweep_s_;
  std::string first_digest_;
  std::size_t journal_bytes_ = 0;
};

}  // namespace

std::string campaign_grid_json(const Options& options) {
  // The seed draws values whose cost balances out, so every seed does
  // about the same work: the expander's graph, the agent counts
  // 48 - d, 48, 48 + d (their sum is fixed), and the campaign seed that
  // derives every experiment's seed.  Family sizes stay fixed.
  SeedStream s(options.seed, 0xCA11);
  std::ostringstream topologies;
  topologies << R"(["ring:512","torus2d:24x24","hypercube:9","complete:192",)"
             << R"("toruskd:3x8","expander:d=8,n=512,seed=)" << s.in(1, 1000)
             << R"("])";
  const std::uint64_t d = s.in(4, 16);
  const std::string agent_list =
      options.tiny ? "48"
                   : std::to_string(48 - d) + ",48," + std::to_string(48 + d);
  std::ostringstream points;
  const char* churn = R"(,"dynamics":"churn:p_edge=0.0005,p_fail=0.00025")";
  bool first = true;
  for (const char* engine : {"single", "sharded", "vector"}) {
    for (const char* workload :
         {"density", "property", "trajectory", "local-density"}) {
      points << (first ? "" : ",") << R"({"engine":")" << engine
             << R"(","workload":")" << workload << R"("})";
      first = false;
    }
  }
  points << R"(,{"engine":"single","workload":"density")" << churn << "}"
         << R"(,{"engine":"sharded","workload":"density")" << churn << "}";

  std::ostringstream text;
  text << R"({"name":"perfbench","seed":)" << s.in(1, 1ULL << 50)
       << R"(,"base":{"rounds":)" << (options.tiny ? 32 : 128)
       << R"(},"axes":[{"kind":"grid","key":"topology","values":)"
       << topologies.str()
       << R"(},{"kind":"grid","key":"agents","values":[)" << agent_list
       << R"(]},{"kind":"list","specs":[)" << points.str() << "]}]}";
  return text.str();
}

std::unique_ptr<Workload> make_campaign(const Options& options,
                                        Checks& checks) {
  return std::make_unique<CampaignWorkload>(options, checks);
}

}  // namespace perfbench
