// antdense_run — the unified scenario driver: every workload on every
// topology family from one executable, no recompilation.
//
//   $ antdense_run --topology=torus2d:64x64 --workload=density
//       --agents=410 --eps=0.2 --delta=0.1 --trials=4 --out=result.json
//   $ antdense_run --spec=scenario.json --seed=7
//
// Flags are the ScenarioSpec vocabulary (see src/scenario/spec.hpp) plus:
//   --spec=FILE   load a JSON ScenarioSpec first; flags overlay it
//   --out=PATH    write the ScenarioResult JSON artifact
//   --quiet       suppress the human-readable report
//   --list-topologies   registered families + canonical spec grammar
//   --list-workloads    workload names + what each measures
//   --list-dynamics     dynamics models + canonical spec grammar
//   --help
// The list flags exist for sweep authors: campaign axes (antdense_sweep)
// take exactly these topology spec strings, workload names, and
// dynamics spec strings.
// Unknown flags are an error (util::Args strict mode), so typos fail
// loudly instead of silently running the default scenario.
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "scenario/dynamics_registry.hpp"
#include "scenario/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace antdense;

void print_usage(std::ostream& os) {
  os << "usage: antdense_run --topology=FAMILY:PARAMS --workload=WORKLOAD "
        "[flags]\n\n"
     << "workloads: density | property | trajectory | local-density\n"
     << "topology families:";
  for (const std::string& name :
       scenario::Registry::built_in().family_names()) {
    os << " " << name;
  }
  os << "\n\nscenario flags:\n"
     << "  --agents=N --rounds=T (0 plans via Theorem 1) --eps=E --delta=D\n"
     << "  --lazy=P --miss=P --spurious=P --dropout=P\n"
     << "                    (Section 6.1 sensing perturbations)\n"
     << "  --dynamics=MODEL:PARAMS  time-varying world (--list-dynamics;\n"
     << "                    density workload, any engine)\n"
     << "  --trials=K --threads=N --seed=S\n"
     << "                    (threads run trials in parallel; each walk\n"
     << "                     runs on one thread)\n"
     << "  --engine=single|sharded|vector\n"
     << "                    (sharded: per-shard streams; vector: wide-lane\n"
     << "                     batched stepping; results are identical for\n"
     << "                     any --threads in any mode)\n"
     << "  --property-fraction=F --tracked=N --checkpoints=N --radius=R\n\n"
     << "driver flags:\n"
     << "  --spec=FILE.json  load a spec file (flags overlay it)\n"
     << "  --out=PATH.json   write the result artifact\n"
     << "  --metrics-out=F   write a telemetry snapshot after the run\n"
     << "                    (.json -> ordered JSON, else Prometheus text)\n"
     << "  --trace-out=F     write Chrome trace-event JSON phase spans\n"
     << "                    (open in chrome://tracing or Perfetto)\n"
     << "  --quiet           suppress the human-readable report\n"
     << "  --list-topologies (families + spec grammar)\n"
     << "  --list-dynamics   (models + spec grammar)\n"
     << "  --list-workloads / --help\n";
}

void print_report(const scenario::ScenarioResult& result) {
  std::cout << "scenario: " << result.spec.topology << " / "
            << scenario::workload_name(result.spec.workload) << "\n";
  std::cout << "substrate " << result.topology_name << " with "
            << result.spec.agents << " agents, " << result.spec.rounds
            << " rounds, " << result.spec.trials << " trial(s)\n";
  std::cout << "true value " << util::format_fixed(result.true_value, 6)
            << "\n\n";

  util::Table table({"metric", "value"});
  table.add_row({"estimates pooled", util::format_count(result.summary.count)});
  table.add_row({"mean", util::format_fixed(result.summary.mean, 6)});
  table.add_row({"stddev", util::format_fixed(result.summary.stddev, 6)});
  table.add_row(
      {"standard error", util::format_fixed(result.summary.standard_error, 6)});
  table.add_row({"min", util::format_fixed(result.summary.min, 6)});
  table.add_row({"max", util::format_fixed(result.summary.max, 6)});
  table.add_row({"within (1+-eps)",
                 util::format_percent(result.summary.within_eps, 1)});
  table.add_row(
      {"elapsed", util::format_fixed(result.elapsed_seconds, 3) + " s"});
  table.print_markdown(std::cout);

  if (!result.checkpoints.empty()) {
    std::cout << "\ncheckpoints at rounds:";
    for (std::uint32_t c : result.checkpoints) {
      std::cout << " " << c;
    }
    std::cout << " (" << result.series.size() << " traces recorded)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  try {
    if (args.get_bool("help", false)) {
      print_usage(std::cout);
      return 0;
    }
    if (args.get_bool("list-topologies", false)) {
      const scenario::Registry& reg = scenario::Registry::built_in();
      for (const std::string& name : reg.family_names()) {
        const std::string& grammar = reg.grammar(name);
        std::cout << name;
        if (!grammar.empty()) {
          std::cout << "\t" << grammar;
        }
        std::cout << "\n";
      }
      return 0;
    }
    if (args.get_bool("list-dynamics", false)) {
      const scenario::DynamicsRegistry& reg =
          scenario::DynamicsRegistry::built_in();
      for (const std::string& name : reg.family_names()) {
        const std::string& grammar = reg.grammar(name);
        std::cout << name;
        if (!grammar.empty()) {
          std::cout << "\t" << grammar;
        }
        std::cout << "\n";
      }
      return 0;
    }
    if (args.get_bool("list-workloads", false)) {
      const std::vector<std::string>& names = scenario::workload_names();
      const std::vector<std::string>& what =
          scenario::workload_descriptions();
      for (std::size_t i = 0; i < names.size(); ++i) {
        std::cout << names[i] << "\t" << what[i] << "\n";
      }
      return 0;
    }

    std::vector<std::string> known = scenario::ScenarioSpec::key_names();
    known.insert(known.end(), {"spec", "out", "metrics-out", "trace-out",
                               "quiet", "help", "list-topologies",
                               "list-workloads", "list-dynamics"});
    args.require_known(known);

    scenario::ScenarioSpec spec;
    if (args.has("spec")) {
      spec = scenario::ScenarioSpec::from_json_file(
          args.get_string("spec", ""));
    }
    spec = scenario::ScenarioSpec::from_args(args, std::move(spec));

    // Telemetry sinks exist only when asked for; the ambient install is
    // a no-op otherwise and the run stays on the uninstrumented path.
    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace;
    obs::Telemetry telemetry{args.has("metrics-out") ? &metrics : nullptr,
                             args.has("trace-out") ? &trace : nullptr};
    obs::ScopedTelemetry ambient(&telemetry);

    const scenario::Experiment experiment(std::move(spec));
    const scenario::ScenarioResult result = experiment.run();

    if (args.has("metrics-out")) {
      obs::write_metrics_file(metrics, args.get_string("metrics-out", ""));
    }
    if (args.has("trace-out")) {
      obs::write_trace_file(trace, args.get_string("trace-out", ""));
    }

    if (!args.get_bool("quiet", false)) {
      print_report(result);
    }
    if (args.has("out")) {
      const std::string path = args.get_string("out", "");
      std::ofstream out_file(path);
      if (!out_file) {
        throw std::runtime_error("cannot open " + path + " for writing");
      }
      out_file << result.to_json().dump() << "\n";
      if (!out_file.good()) {
        throw std::runtime_error("write to " + path + " failed");
      }
      if (!args.get_bool("quiet", false)) {
        std::cout << "\nwrote " << path << "\n";
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "antdense_run: " << e.what() << "\n\n";
    print_usage(std::cerr);
    return 1;
  }
}
