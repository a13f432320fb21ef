// E-SHARD — the shard grain's cost to a serial user.
//
// Times the single-stream engine (sim::run_density_walk) against the
// sharded engine (sim::run_density_walk_sharded) on the 2-D torus across
// agent counts — with a vector-engine (sim::run_density_walk_vector)
// reference row per cell — printing a ns/agent-round table and writing
// BENCH_shard.json for the CI perf gate.  All three run the same shard
// loop on the calling thread; the sharded engine differs only in its
// 4096-agent shards, each on its own derive_stream generator.
//
// Flags:
//   --out=PATH        JSON output path (default BENCH_shard.json)
//   --tiny            CI smoke mode: small sizes, seconds total
//   --reps=N          alternating timing repetitions, median (default 9)
//   --budget=STEPS    target agent-steps per timed run (default 2e7)
//
// Acceptance (the bench-smoke perf gate re-checks it from the JSON):
// sharded (row "sharded/t1", one thread) is within 1.10x of the
// single-stream engine in every cell.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "graph/torus2d.hpp"
#include "sim/density_sim.hpp"
#include "sim/sharded_walk.hpp"
#include "sim/vector_walk.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

using namespace antdense;

struct Cell {
  std::string topology;
  std::uint64_t agents = 0;
  std::uint64_t rounds = 0;
  double engine_ns = 0.0;   // single-stream reference
  double vector_ns = 0.0;   // engine=vector reference
  double sharded_ns = 0.0;  // engine=sharded, production grain
};

Cell measure_cell(const graph::Torus2D& topo, std::uint32_t agents,
                  std::uint64_t budget, int reps) {
  sim::DensityConfig cfg;
  cfg.num_agents = agents;
  cfg.rounds = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, budget / agents));
  Cell cell;
  cell.topology = topo.name();
  cell.agents = agents;
  cell.rounds = cfg.rounds;
  static volatile std::uint64_t sink = 0;
  // The three rows are timed alternately, so the gated pair (sharded/t1
  // against engine) sees the same host noise.
  std::tie(cell.engine_ns, cell.vector_ns, cell.sharded_ns) =
      std::tuple_cat(bench::time_interleaved(
          reps, agents, cfg.rounds,
          [&](std::uint64_t) {
            sink = sink + sim::run_density_walk(topo, cfg, 0xBE7C)
                              .collision_counts[0];
          },
          [&](std::uint64_t) {
            sink = sink + sim::run_density_walk_vector(topo, cfg, 0xBE7C)
                              .collision_counts[0];
          },
          [&](std::uint64_t) {
            sink = sink + sim::run_density_walk_sharded(topo, cfg, 0xBE7C,
                                                        sim::ShardExec{})
                              .collision_counts[0];
          }));
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool tiny = args.get_bool("tiny", false);
  const std::string out_path = args.get_string("out", "BENCH_shard.json");
  // The tiny mode still feeds the CI perf gate's hard 1.10x bound, so
  // it keeps a ~1M-agent-step budget per rep.  Each row is the median of
  // its alternating reps: host noise that hits one rep lands on every
  // row alike, while a real regression still shows in the median.
  const std::uint64_t budget =
      args.get_uint("budget", tiny ? 1'000'000 : 20'000'000);
  const int reps = static_cast<int>(args.get_uint("reps", 9));
  const unsigned hardware = util::default_thread_count();

  bench::print_banner(
      "E-SHARD", "the sharded engine's grain vs the single-stream engine",
      "sharded (one thread) within 1.10x of engine everywhere");
  std::cout << "hardware threads: " << hardware << "\n\n";

  // Every cell keeps the PRODUCTION shard grain — the perf gate must
  // measure the configuration users actually get, and the shard grain
  // is identity-bearing, so benching a special grain would time a
  // different engine.  The tiny sizes start at 2 x the default grain so
  // even smoke cells are genuinely multi-shard.
  const std::vector<std::uint32_t> agent_counts =
      tiny ? std::vector<std::uint32_t>{2 * sim::ShardPlan::kDefaultShardSize,
                                        8 * sim::ShardPlan::kDefaultShardSize}
           : std::vector<std::uint32_t>{1000, 10000, 100000};

  std::vector<Cell> cells;
  for (std::uint32_t agents : agent_counts) {
    // Keep density ~0.1 so occupancy work is realistic (matches
    // bench_engine's cells for apples-to-apples "engine" rows).
    const auto side = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(agents) * 10.0)));
    cells.push_back(
        measure_cell(graph::Torus2D(side, side), agents, budget, reps));
  }

  util::Table table({"topology", "agents", "rounds", "engine ns/step",
                     "vector ns/step", "sharded ns/step", "sharded/engine"});
  std::vector<bench::BenchRecord> records;
  for (const Cell& c : cells) {
    table.add_row(
        {c.topology, util::format_count(c.agents),
         util::format_count(c.rounds), util::format_fixed(c.engine_ns, 2),
         util::format_fixed(c.vector_ns, 2),
         util::format_fixed(c.sharded_ns, 2),
         util::format_fixed(c.sharded_ns / c.engine_ns, 3)});
    records.push_back({"engine", c.topology, c.agents, c.rounds, c.engine_ns,
                       1, hardware});
    records.push_back({"vector", c.topology, c.agents, c.rounds, c.vector_ns,
                       1, hardware});
    // The row keeps its historical name, which the perf gate reads.
    records.push_back({"sharded/t1", c.topology, c.agents, c.rounds,
                       c.sharded_ns, 1, hardware});
  }
  table.print_markdown(std::cout);

  bench::write_json(out_path, records);
  std::cout << "\nwrote " << records.size() << " records to " << out_path
            << "\n";
  return 0;
}
