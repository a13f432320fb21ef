// antdense_perfbench — the repo benchmark.  Usually invoked through
// perfbench/run.py, which builds it first:
//
//   antdense_perfbench --workload=lattice|implicit|campaign|daemon
//       --seed=N --seconds=S --trace=0|1 [--tiny] [--inject=digest,warm]
//       [--out-dir=DIR] [--pinned=FILE]
//   antdense_perfbench --write-pinned --pinned=FILE
//
// Standard output: a "provenance" line (host and build), a "detail" line
// (workload-specific figures with sample counts), then the result object
// as the last line:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer
// metrics.  The exit code is 0 whenever a result line was printed.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench.hpp"
#include "util/cli.hpp"

namespace {

using namespace perfbench;

constexpr const char* kLayers[] = {"graph", "sim",   "scenario",
                                   "campaign", "serve", "util"};

std::unique_ptr<Workload> make_workload(const Options& options,
                                        Checks& checks) {
  if (options.workload == "lattice") {
    return make_lattice(options, checks);
  }
  if (options.workload == "implicit") {
    return make_implicit(options, checks);
  }
  if (options.workload == "campaign") {
    return make_campaign(options, checks);
  }
  if (options.workload == "daemon") {
    return make_daemon(options, checks);
  }
  throw std::invalid_argument("unknown workload '" + options.workload +
                              "' (lattice | implicit | campaign | daemon)");
}

/// The end-to-end run: set up several times (median), then passes until
/// --seconds have been measured.
std::vector<Metric> run_untraced(const Options& options, Workload& workload) {
  workload.prepare();
  std::vector<double> setups;
  const double setup_budget = options.tiny ? 0.05 : 0.5;
  const double setup_start = now_s();
  while (setups.size() < 5 ||
         (setups.size() < 5000 && now_s() - setup_start < setup_budget)) {
    setups.push_back(workload.setup());
  }
  std::vector<double> passes;
  OpTimes ops;
  const double start = now_s();
  while (static_cast<int>(passes.size()) < workload.min_passes() ||
         now_s() - start < options.seconds) {
    passes.push_back(workload.pass(nullptr, ops));
  }
  workload.final_checks();
  // Timings of repeated work report their lower quartile: on a shared
  // host, interference comes in episodes of a second or so that only
  // ever add time, and the lower quartile stays clear of them where the
  // median does not.  Each kind of operation weighs the same, whatever
  // its latency: the geometric mean over kinds.
  constexpr double kQuartile = 0.25;
  double log_sum = 0.0;
  for (const auto& [kind, seconds] : ops) {
    log_sum += std::log(quantile(seconds, kQuartile));
  }
  const double geomean =
      ops.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(ops.size()));
  return {{"setup_s", median(setups), "s"},
          {"pass_s", quantile(passes, kQuartile), "s"},
          {"op_ms.geomean", geomean * 1e3, "ms"},
          {"peak_rss_mb", peak_rss_mb(), "MiB"}};
}

/// The traced run: alternate untraced and traced passes (the ratio of
/// their medians is the tracing overhead), report self time per layer of
/// the traced passes, then run the per-layer probes.
std::vector<Metric> run_traced(const Options& options, Workload& workload,
                               Checks& checks, Tracer& tracer,
                               Tracer& probe_tracer) {
  workload.prepare();
  workload.setup();
  std::vector<double> plain;
  std::vector<double> traced;
  OpTimes ops;
  const double start = now_s();
  while (plain.empty() || now_s() - start < options.seconds / 2) {
    plain.push_back(workload.pass(nullptr, ops));
    traced.push_back(workload.pass(&tracer, ops));
  }
  workload.final_checks();

  std::vector<Metric> out;
  const std::map<std::string, double> self = tracer.self_seconds_by_layer();
  double total = 0.0;
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    total += it == self.end() ? 0.0 : it->second;
  }
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    out.push_back({std::string("trace.self_share.") + layer,
                   total > 0.0 ? s / total : 0.0, "fraction"});
  }
  out.push_back({"obs.trace_overhead", median(traced) / median(plain), "x"});
  run_probes(options, checks, probe_tracer, out);
  return out;
}

std::string dominant_layer(const std::vector<Metric>& metrics) {
  std::string best;
  double share = -1.0;
  for (const Metric& m : metrics) {
    if (m.name.rfind("trace.self_share.", 0) == 0 && m.value > share) {
      share = m.value;
      best = m.name.substr(17);
    }
  }
  return best;
}

int run(const antdense::util::Args& args) {
  Options options;
  options.workload = args.get_string("workload", "");
  options.seed = args.get_uint("seed", 1);
  options.seconds = args.get_double("seconds", 10.0);
  options.trace = args.get_uint("trace", 0) != 0;
  options.tiny = args.get_bool("tiny", false);
  options.inject = args.get_string("inject", "");
  options.out_dir = args.get_string("out-dir", ".");
  options.pinned_path =
      args.get_string("pinned", "perfbench/pinned_digests.json");

  if (args.get_bool("write-pinned", false)) {
    write_pinned_canaries(options);
    std::cerr << "wrote " << options.pinned_path << "\n";
    return 0;
  }
  std::filesystem::create_directories(options.out_dir);

  Checks checks;
  std::unique_ptr<Workload> workload = make_workload(options, checks);
  Tracer tracer;
  Tracer probe_tracer;
  check_pinned_canaries(options, checks);
  const std::vector<Metric> metrics =
      options.trace
          ? run_traced(options, *workload, checks, tracer, probe_tracer)
          : run_untraced(options, *workload);

  JsonValue detail = workload->detail();
  workload.reset();  // stops servers, removes temporary journals
  detail.set("workload", options.workload);
  detail.set("seed", options.seed);
  if (options.trace) {
    detail.set("dominant_layer", dominant_layer(metrics));
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    JsonValue events = tracer.chrome_trace(1);
    const JsonValue probe_events = probe_tracer.chrome_trace(2);
    for (const JsonValue& e : probe_events.items()) {
      events.push_back(e);
    }
    JsonValue doc = JsonValue::object();
    doc.set("traceEvents", events);
    doc.set("provenance", provenance());
    std::ofstream(path) << doc.dump(0) << "\n";
    detail.set("trace_file", path);
    detail.set("spans",
               static_cast<std::uint64_t>(tracer.size() + probe_tracer.size()));
  }
  const std::uint64_t attempted = checks.attempted();
  const std::uint64_t failed = checks.failed();
  detail.set("failed_fraction",
             attempted == 0 ? 0.0
                            : static_cast<double>(failed) /
                                  static_cast<double>(attempted));
  for (const std::string& f : checks.failures()) {
    std::cerr << "CHECK FAILED: " << f << "\n";
  }

  JsonValue metric_doc = JsonValue::object();
  for (const Metric& m : metrics) {
    JsonValue entry = JsonValue::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metric_doc.set(m.name, entry);
  }
  JsonValue result = JsonValue::object();
  result.set("correct", failed == 0);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", metric_doc);

  std::cout << "provenance " << provenance().dump(0) << "\n";
  std::cout << "detail " << detail.dump(0) << "\n";
  std::cout << result.dump(0) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const antdense::util::Args args(argc, argv);
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "antdense_perfbench: " << e.what() << "\n";
    return 2;
  }
}
