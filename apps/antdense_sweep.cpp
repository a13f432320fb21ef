// antdense_sweep — the campaign driver: declarative parameter sweeps
// over the scenario API, run on all cores, journaled, resumable, and
// aggregated.
//
//   $ antdense_sweep expand --campaign=sweep.json --dry-run
//   $ antdense_sweep run --campaign=sweep.json --journal=sweep.jsonl
//   $ antdense_sweep resume --campaign=sweep.json --journal=sweep.jsonl
//   $ antdense_sweep aggregate --journal=sweep.jsonl
//       --group-by=family,rounds --csv=sweep.csv --json=sweep.agg.json
//
// `run` skips experiments whose identity hash is already journaled, so
// re-running after a crash or kill continues where it stopped; `resume`
// is the same operation but refuses to start from scratch (a missing
// journal is an error, catching typo'd paths).  See src/campaign/ for
// the spec format and determinism contract.
#include <chrono>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/journal.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/signal.hpp"
#include "util/table.hpp"

namespace {

using namespace antdense;

void print_usage(std::ostream& os) {
  os << "usage: antdense_sweep <run|resume|expand|aggregate> [flags]\n\n"
     << "run / resume flags:\n"
     << "  --campaign=FILE.json    the CampaignSpec (required)\n"
     << "  --journal=PATH.jsonl    run journal / result cache (required)\n"
     << "  --threads=N             scheduler workers (default: the\n"
     << "                          campaign's \"threads\"; 0 there = one\n"
     << "                          worker per core)\n"
     << "  --inner-threads=N       threads per experiment, which run\n"
     << "                          its trials in parallel (the scheduler\n"
     << "                          clamps workers x inner to the core\n"
     << "                          count, with a message on stderr)\n"
     << "  --max-experiments=K     stop after K new experiments\n"
     << "  --quiet                 suppress per-experiment progress\n"
     << "  --progress-interval=MS  stderr progress line cadence\n"
     << "                          (completed/total, experiments/sec, ETA;\n"
     << "                          default 1000, 0 disables)\n"
     << "  --metrics-out=F         write a telemetry snapshot after the\n"
     << "                          run (.json -> JSON, else Prometheus)\n"
     << "  --trace-out=F           write Chrome trace-event JSON spans\n"
     << "  (resume additionally requires the journal to exist)\n\n"
     << "expand flags:\n"
     << "  --campaign=FILE.json --dry-run [--limit=N]\n"
     << "  prints the expanded experiment table without running "
        "anything\n\n"
     << "aggregate flags:\n"
     << "  --journal=PATH.jsonl    journal to aggregate (required)\n"
     << "  --group-by=K1,K2,...    group keys (default "
        "family,workload,rounds)\n"
     << "  --csv=PATH --json=PATH  write artifacts (default: CSV to "
        "stdout)\n";
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!item.empty()) {
      out.push_back(item);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  out << text;
  if (!out.good()) {
    throw std::runtime_error("write to " + path + " failed");
  }
}

campaign::CampaignSpec load_campaign(const util::Args& args) {
  if (!args.has("campaign")) {
    throw std::invalid_argument("--campaign=FILE.json is required");
  }
  return campaign::CampaignSpec::from_json_file(
      args.get_string("campaign", ""));
}

std::string require_journal(const util::Args& args) {
  if (!args.has("journal")) {
    throw std::invalid_argument("--journal=PATH.jsonl is required");
  }
  return args.get_string("journal", "");
}

/// Periodic stderr progress line driven by the scheduler's metrics
/// gauges: no callback plumbing, no extra synchronization with the
/// worker pool — the reporter just reads the registry like any other
/// metrics consumer would.  RAII so an exception inside run_campaign
/// still joins the thread.
class ProgressReporter {
 public:
  ProgressReporter(obs::MetricsRegistry& metrics, std::uint64_t interval_ms)
      : completed_(metrics.gauge("antdense_campaign_completed", {},
                                 "Experiments completed this invocation")),
        scheduled_(metrics.gauge("antdense_campaign_scheduled", {},
                                 "Experiments scheduled this invocation")) {
    thread_ = std::thread([this, interval_ms] { loop(interval_ms); });
  }

  ~ProgressReporter() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void loop(std::uint64_t interval_ms) {
    const auto start = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                         [this] { return stop_; })) {
      const std::int64_t done = completed_.value();
      const std::int64_t total = scheduled_.value();
      if (total <= 0) {
        continue;  // scheduler still planning (or nothing to do)
      }
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      const double rate =
          elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
      std::string eta = "?";
      if (rate > 0.0 && done <= total) {
        eta = util::format_fixed(static_cast<double>(total - done) / rate, 0) +
              "s";
      }
      std::cerr << "antdense_sweep: progress " << done << "/" << total << " ("
                << util::format_fixed(rate, 2) << " exp/s, ETA " << eta
                << ")\n";
    }
  }

  obs::Gauge& completed_;
  obs::Gauge& scheduled_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

int cmd_run(const util::Args& args, bool resume) {
  args.require_known({"campaign", "journal", "threads", "inner-threads",
                      "max-experiments", "quiet", "progress-interval",
                      "metrics-out", "trace-out", "help"});
  const campaign::CampaignSpec spec = load_campaign(args);
  const std::string journal_path = require_journal(args);
  if (resume && !std::ifstream(journal_path)) {
    throw std::invalid_argument("resume: journal " + journal_path +
                                " does not exist (use `run` to start a "
                                "campaign)");
  }

  // SIGINT/SIGTERM interrupt cleanly: the flag trips the scheduler's
  // should_stop, in-flight experiments finish and journal, and the run
  // exits 3 with everything else counted as remaining — resumable
  // exactly like a --max-experiments cap.
  util::install_termination_handlers();

  campaign::RunOptions options;
  options.should_stop = [] { return util::termination_requested(); };
  options.threads =
      static_cast<unsigned>(args.get_uint("threads", spec.threads));
  options.inner_threads =
      static_cast<unsigned>(args.get_uint("inner-threads", 1));
  options.max_experiments = args.get_uint("max-experiments", 0);
  options.on_diagnostic = [](const std::string& message) {
    std::cerr << "antdense_sweep: " << message << "\n";
  };
  const bool quiet = args.get_bool("quiet", false);
  if (!quiet) {
    options.on_complete = [](const campaign::PlannedExperiment& p,
                             std::size_t done, std::size_t scheduled) {
      std::cout << "[" << done << "/" << scheduled << "] " << p.id << " "
                << p.spec.topology << " "
                << scenario::workload_name(p.spec.workload) << "\n";
    };
  }

  // Metrics exist when exporting OR when the progress reporter needs
  // the scheduler's gauges; the trace ring only when exporting it.
  const std::uint64_t progress_ms = args.get_uint("progress-interval", 1000);
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  options.telemetry.metrics =
      (args.has("metrics-out") || progress_ms > 0) ? &metrics : nullptr;
  options.telemetry.trace = args.has("trace-out") ? &trace : nullptr;

  campaign::RunReport report;
  {
    std::unique_ptr<ProgressReporter> reporter;
    if (progress_ms > 0) {
      reporter = std::make_unique<ProgressReporter>(metrics, progress_ms);
    }
    report = campaign::run_campaign(spec, journal_path, options);
  }
  if (args.has("metrics-out")) {
    obs::write_metrics_file(metrics, args.get_string("metrics-out", ""));
  }
  if (args.has("trace-out")) {
    obs::write_trace_file(trace, args.get_string("trace-out", ""));
  }
  if (!quiet) {
    std::cout << "\n";
  }
  std::cout << "campaign '" << spec.name << "': " << report.planned
            << " experiments, " << report.cached << " cached, "
            << report.executed << " executed, " << report.remaining
            << " remaining in "
            << util::format_fixed(report.elapsed_seconds, 2) << " s\n";
  if (util::termination_requested()) {
    std::cerr << "antdense_sweep: interrupted by signal "
              << util::termination_signal()
              << "; journal flushed — rerun the same command to resume\n";
  }
  return report.remaining == 0 ? 0 : 3;  // 3 = interrupted (--max or signal)
}

int cmd_expand(const util::Args& args) {
  // --dry-run is accepted for the canonical spelling, but expand never
  // executes anything either way.
  args.require_known({"campaign", "dry-run", "limit", "help"});
  const campaign::CampaignSpec spec = load_campaign(args);
  const std::vector<campaign::PlannedExperiment> planned = spec.expand();
  const std::uint64_t limit = args.get_uint("limit", 0);

  util::Table table(
      {"#", "id", "seed", "topology", "workload", "agents", "rounds"});
  std::size_t shown = 0;
  for (std::size_t i = 0; i < planned.size(); ++i) {
    if (limit != 0 && shown == limit) {
      break;
    }
    const campaign::PlannedExperiment& p = planned[i];
    table.add_row({std::to_string(i), p.id, std::to_string(p.seed),
                   p.spec.topology,
                   scenario::workload_name(p.spec.workload),
                   std::to_string(p.spec.agents),
                   p.spec.rounds == 0 ? "planned"
                                      : std::to_string(p.spec.rounds)});
    ++shown;
  }
  table.print_markdown(std::cout);
  std::cout << "\ncampaign '" << spec.name << "' expands to "
            << planned.size() << " experiment(s)";
  if (shown < planned.size()) {
    std::cout << " (" << shown << " shown)";
  }
  std::cout << "\n";
  return 0;
}

int cmd_aggregate(const util::Args& args) {
  args.require_known({"journal", "group-by", "csv", "json", "help"});
  const std::string journal_path = require_journal(args);
  const std::vector<util::JsonValue> records =
      campaign::Journal::load(journal_path);
  if (records.empty()) {
    throw std::invalid_argument("journal " + journal_path +
                                " holds no records");
  }
  const std::vector<std::string> group_by = split_commas(
      args.get_string("group-by", "family,workload,rounds"));
  const campaign::Aggregate agg = campaign::aggregate(records, group_by);

  bool wrote = false;
  if (args.has("csv")) {
    write_file(args.get_string("csv", ""), agg.to_csv());
    std::cout << "wrote " << args.get_string("csv", "") << "\n";
    wrote = true;
  }
  if (args.has("json")) {
    write_file(args.get_string("json", ""), agg.to_json().dump() + "\n");
    std::cout << "wrote " << args.get_string("json", "") << "\n";
    wrote = true;
  }
  if (!wrote) {
    std::cout << agg.to_csv();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2 || std::string(argv[1]) == "--help" ||
        std::string(argv[1]) == "help") {
      print_usage(std::cout);
      return argc < 2 ? 1 : 0;
    }
    const std::string command = argv[1];
    // argv[1] is the subcommand; Args skips argv[0], so shift by one.
    const util::Args args(argc - 1, argv + 1);
    if (args.get_bool("help", false)) {
      print_usage(std::cout);
      return 0;
    }
    if (command == "run") {
      return cmd_run(args, /*resume=*/false);
    }
    if (command == "resume") {
      return cmd_run(args, /*resume=*/true);
    }
    if (command == "expand") {
      return cmd_expand(args);
    }
    if (command == "aggregate") {
      return cmd_aggregate(args);
    }
    throw std::invalid_argument("unknown command '" + command +
                                "' (expected run, resume, expand, or "
                                "aggregate)");
  } catch (const std::exception& e) {
    std::cerr << "antdense_sweep: " << e.what() << "\n\n";
    print_usage(std::cerr);
    return 1;
  }
}
