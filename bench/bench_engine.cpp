// E-ENGINE — legacy-vs-engine-vs-type-erased stepping throughput.
//
// Times the frozen pre-engine round loop (sim/legacy_reference.hpp)
// against the observer-based engine=single walk (the shard loop in
// sim/sharded_walk.hpp, via the run_density_walk wrapper), against the
// same walk with its occupancy counter pinned to the hash table
// ("engine/hash": the shard loop instantiated on CollisionCounter, a
// bench-only row, where engine=single counts in whichever counter
// with_occupancy_counter picks — the dense array on every cell here),
// against the vector engine
// (sim/vector_walk.hpp: the same one-shard loop on a wide-lane RNG),
// and against the scalar engine driven through a
// type-erased graph::AnyTopology handle (the scenario layer's hot
// path), across agent counts and topologies, printing a ns/agent-round
// table and writing the same records to a JSON artifact (default
// BENCH_engine.json) for CI trending.  Every record stamps the host's
// hardware_threads and avx2 so perf numbers carry their context.
//
// Besides the four explicit families, one cell per implicit family
// (rgg2d / gnp / ba) rides along with a step budget scaled to its
// honest per-step cost — O(deg) cell-window scan for rgg2d; for gnp
// and ba, one pass over the edges per walk on the batched paths (the
// walk's row cache holds the whole graph: gnp once a third of its rows
// are needed, ba from the first step) and an O(n) row scan (gnp) or an
// O(m) edge sweep (ba) per agent step on the frozen legacy loop — plus a
// resident-set column that documents the O(agents) memory the implicit
// layer promises.
//
// A fifth path, "engine+obs", re-times the scalar engine with the full
// telemetry ambient installed (metrics registry + trace recorder), so
// the cost of observability is a trended number instead of folklore.
// A sixth, "any+dyn0", re-times the AnyTopology path with a zero-rate
// churn model attached: what the dynamics layer costs a walk whose
// model never mutates anything.  A seventh, "any+churn", attaches an
// active churn model at the perfbench lattice workload's rates (the
// kChurn* constants; at steady state about 0.25% of the nodes are
// failed and one edge per 200 nodes is down): what a walk pays to
// consult the time-varying overlay on every move.  These two and
// "anytopology", the walk they are gated against, are each the median
// of 9 reps timed alternately, so all three see the same host noise.
//
// On ring/torus2d cells two more rows time the step phase alone:
// "step" is graph::random_neighbors over every agent (the word-step
// kernel all engines share, on Xoshiro256pp words) and "draw" is
// drawing those words and nothing else, timed the same way.
//
// CI's bench-smoke job runs this with --tiny and gates ratios between
// rows of the same run, so runner speed cancels out.  The vector and
// dormant-telemetry gates divide by engine/hash, which counts in a hash
// table as the legacy loop does, so the counter choice cannot move
// them:
//   - vector/(engine/hash) <= 0.6 on every ring/torus2d cell;
//   - (engine/hash)/legacy <= 1.05 on every ring/torus2d cell (dormant
//     telemetry costs nothing);
//   - engine/(engine/hash) <= 0.85 on every ring/torus2d cell (dense
//     counting pays);
//   - engine/legacy <= 0.1 on the ba cell (the walk's row cache);
//   - engine/legacy <= 0.25 on the gnp cell (the walk's row cache);
//   - any+dyn0/anytopology: geometric mean over the ring/torus2d cells
//     <= 1.05, each cell <= 1.30;
//   - any+churn/anytopology: geometric mean over the ring/torus2d
//     cells <= 1.85 (the overlay's ~5 ns/agent-round over a
//     dense-counting walk);
//   - step/draw <= 3.5 on every ring/torus2d cell (the step costs 2-3
//     draws; the kernels that branched on the direction bits read
//     about 6).
// engine+obs rows are trended, not gated.
//
// Flags:
//   --out=PATH        JSON output path (default BENCH_engine.json)
//   --tiny            CI smoke mode: small sizes, seconds total
//   --reps=N          timing repetitions of the best-of rows (default 3)
//   --budget=STEPS    target agent-steps per timed run (default 2e7)
//
// The JSON must parse and carry one record per (path, topology, agents)
// cell.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "graph/any_topology.hpp"
#include "graph/ba.hpp"
#include "graph/gnp.hpp"
#include "graph/hypercube.hpp"
#include "graph/rgg2d.hpp"
#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "graph/torus_kd.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"
#include "sim/collision_counter.hpp"
#include "sim/density_sim.hpp"
#include "sim/dynamic_world.hpp"
#include "sim/legacy_reference.hpp"
#include "sim/sharded_walk.hpp"
#include "sim/vector_walk.hpp"
#include "util/table.hpp"

namespace {

using namespace antdense;

// The any+churn model: each round Binomial(n, p) edge drops and node
// failures, each recovering after kChurnMeanDown rounds on average, so
// ~kChurnMeanDown * p * n of each are down at steady state.
constexpr double kChurnPEdge = 0.0005;
constexpr double kChurnPFail = 0.00025;
constexpr std::uint32_t kChurnMeanDown = 10;

struct Cell {
  std::string topology;
  std::uint64_t agents = 0;
  std::uint64_t rounds = 0;
  std::uint64_t legacy_rounds = 0;  // the legacy row's own walk length
  double legacy_ns = 0.0;
  double engine_ns = 0.0;
  double engine_hash_ns = 0.0;  // engine on the hash counter
  double obs_ns = 0.0;  // engine with metrics + tracing ambient installed
  double vector_ns = 0.0;  // engine=vector (sim/vector_walk.hpp)
  double any_ns = 0.0;  // engine driven through graph::AnyTopology
  double dyn_ns = 0.0;  // AnyTopology engine + attached zero-rate dynamics
  double churn_ns = 0.0;  // AnyTopology engine + active churn model
  double step_ns = 0.0;   // graph::random_neighbors alone (ring/torus2d)
  double draw_ns = 0.0;   // the raw Xoshiro256pp words it consumes
  std::uint64_t peak_rss = 0;  // process high-water RSS after this cell
};

/// engine=single's density walk (sim::run_density_walk) with the shard
/// loop instantiated on the hash CollisionCounter instead of the counter
/// with_occupancy_counter picks: the same stream, hence the same counts.
template <graph::Topology T>
std::vector<std::uint64_t> run_single_on_hash(const T& topo,
                                              const sim::DensityConfig& cfg,
                                              std::uint64_t seed) {
  sim::CollisionObserver observer(cfg.num_agents, cfg.noise());
  const std::uint64_t stream_seed = rng::derive_seed(seed, 0x51u);
  sim::CollisionCounter counter(cfg.num_agents);
  obs::EngineTap tap("single", {"step", "count", "observe", "mutate"});
  sim::detail::run_shard_loop(
      topo, cfg.walk_config(), stream_seed,
      sim::ShardPlan::make(cfg.num_agents, cfg.num_agents),
      std::vector<rng::Xoshiro256pp>{rng::Xoshiro256pp(stream_seed)},
      /*view_gen=*/nullptr, tap,
      sim::detail::kSinglePhases,
      static_cast<const std::vector<typename T::node_type>*>(nullptr),
      counter, observer);
  return observer.take_counts();
}

using bench::time_interleaved;
using bench::time_path;

/// Rows that share a gate: the median of this many alternating reps.
constexpr int kInterleavedReps = 9;

/// `legacy_budget`, when nonzero, sizes the legacy row's walk apart
/// from the others' `budget`.
template <graph::Topology T>
Cell measure_cell(const T& topo, std::uint32_t agents, std::uint64_t budget,
                  int reps, std::uint64_t legacy_budget = 0) {
  sim::DensityConfig cfg;
  cfg.num_agents = agents;
  cfg.rounds = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, budget / agents));
  sim::DensityConfig legacy_cfg = cfg;
  if (legacy_budget != 0) {
    legacy_cfg.rounds = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1, legacy_budget / agents));
  }

  // The engine/hash row must time the engine's own walk: cross-check
  // the counts at a reduced round count before timing.
  {
    sim::DensityConfig check_cfg = cfg;
    check_cfg.rounds = std::max<std::uint32_t>(1, cfg.rounds / 16);
    if (run_single_on_hash(topo, check_cfg, 0x5EED) !=
        sim::run_density_walk(topo, check_cfg, 0x5EED).collision_counts) {
      std::cerr << "FATAL: engine/hash counts diverged from engine ("
                << topo.name() << ", " << agents << " agents)\n";
      std::exit(1);
    }
  }

  Cell cell;
  cell.topology = topo.name();
  cell.agents = agents;
  cell.rounds = cfg.rounds;
  cell.legacy_rounds = legacy_cfg.rounds;
  // DoNotOptimize equivalent: fold a count into a volatile sink.
  static volatile std::uint64_t sink = 0;
  cell.legacy_ns = time_path(
      [&](std::uint64_t rep) {
        sink = sink +
               sim::legacy::run_density_walk(topo, legacy_cfg, 0xBE7C + rep)
                   .collision_counts[0];
      },
      agents, legacy_cfg.rounds, reps);
  cell.engine_ns = time_path(
      [&](std::uint64_t rep) {
        sink = sink + sim::run_density_walk(topo, cfg, 0xBE7C + rep)
                          .collision_counts[0];
      },
      agents, cfg.rounds, reps);
  cell.engine_hash_ns = time_path(
      [&](std::uint64_t rep) {
        sink = sink + run_single_on_hash(topo, cfg, 0xBE7C + rep)[0];
      },
      agents, cfg.rounds, reps);
  // Same engine, full telemetry ambient: counters, phase histograms,
  // and the trace ring all live.  The registry persists across reps —
  // exactly how a long-lived process accumulates — so instrument
  // lookup happens once per run via the EngineTap, not per rep.
  obs::MetricsRegistry obs_metrics;
  obs::TraceRecorder obs_trace;
  obs::Telemetry obs_bundle{&obs_metrics, &obs_trace};
  cell.obs_ns = time_path(
      [&](std::uint64_t rep) {
        obs::ScopedTelemetry ambient(&obs_bundle);
        sink = sink + sim::run_density_walk(topo, cfg, 0xBE7C + rep)
                          .collision_counts[0];
      },
      agents, cfg.rounds, reps);
  cell.vector_ns = time_path(
      [&](std::uint64_t rep) {
        sink = sink + sim::run_density_walk_vector(topo, cfg, 0xBE7C + rep)
                          .collision_counts[0];
      },
      agents, cfg.rounds, reps);
  // The type-erased walk and its two dynamics overhead rows, timed
  // alternately because CI gates each dynamics row against any_ns.
  // any+dyn0 attaches a zero-rate churn model — the mutation phase
  // fires every round but mutates nothing, an upper bound on what the
  // layer costs a scenario that never asked for dynamics (whose
  // cfg.dynamics is null and which skips even this).  any+churn builds
  // a fresh active model per rep, so every rep starts from a pristine
  // world and walks into the same steady state.
  const graph::AnyTopology any(topo);
  sim::ChurnDynamics idle_dyn(any, 0.0, 0.0, 10, 0);
  std::tie(cell.any_ns, cell.dyn_ns, cell.churn_ns) = std::tuple_cat(
      time_interleaved(
          kInterleavedReps, agents, cfg.rounds,
          [&](std::uint64_t) {
            sink = sink + sim::run_density_walk(any, cfg, 0xBE7C)
                              .collision_counts[0];
          },
          [&](std::uint64_t) {
            const std::vector<double> est =
                sim::run_dynamic_density_walk(any, cfg, idle_dyn, 0xBE7C);
            sink = sink + static_cast<std::uint64_t>(est[0] * 1e9);
          },
          [&](std::uint64_t) {
            sim::ChurnDynamics churn(any, kChurnPEdge, kChurnPFail,
                                     kChurnMeanDown, 0);
            const std::vector<double> est =
                sim::run_dynamic_density_walk(any, cfg, churn, 0xBE7C);
            sink = sink + static_cast<std::uint64_t>(est[0] * 1e9);
          }));
  // The step phase alone on the word-step families: random_neighbors
  // over every agent each round, against drawing the Xoshiro256pp words
  // it consumes and nothing else.
  if constexpr (std::is_same_v<T, graph::Ring> ||
                std::is_same_v<T, graph::Torus2D>) {
    std::vector<std::uint64_t> pos(agents);
    rng::Xoshiro256pp gen(0xBE7C);
    for (std::uint64_t& p : pos) {
      p = topo.random_node(gen);
    }
    std::tie(cell.step_ns, cell.draw_ns) = std::tuple_cat(time_interleaved(
        kInterleavedReps, agents, cfg.rounds,
        [&](std::uint64_t) {
          for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
            graph::random_neighbors(topo, std::span<const std::uint64_t>(pos),
                                    std::span<std::uint64_t>(pos), gen);
          }
          sink = sink + pos[0];
        },
        [&](std::uint64_t) {
          // Drawn as the step draws them: from a copy held in registers.
          std::vector<std::uint64_t> words(agents);
          for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
            rng::Xoshiro256pp local = gen;
            for (std::uint64_t& w : words) {
              w = local();
            }
            gen = local;
            sink = sink + words[r % agents];
          }
        }));
  }
  cell.peak_rss = bench::peak_rss_bytes();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool tiny = args.get_bool("tiny", false);
  const std::string out_path = args.get_string("out", "BENCH_engine.json");
  const std::uint64_t budget =
      args.get_uint("budget", tiny ? 200'000 : 20'000'000);
  // Best-of-3 even in tiny mode: the tiny run feeds the CI vector-vs-
  // engine perf gate, and best-of filtering is what keeps a noisy
  // shared runner from failing it on upward jitter.
  const int reps = static_cast<int>(args.get_uint("reps", 3));

  bench::print_banner(
      "E-ENGINE",
      "unified WalkEngine vs the frozen legacy round loop vs AnyTopology",
      "on ring/torus2d: vector <= 0.6x engine/hash, engine/hash <= 1.05x "
      "legacy (dormant telemetry), engine <= 0.85x engine/hash, "
      "any+dyn0 <= 1.05x anytopology (geomean; 1.30x per cell), "
      "any+churn <= 1.85x anytopology (geomean), step <= 3.5x draw; "
      "ba: engine <= 0.1x legacy; gnp: engine <= 0.25x legacy; "
      "BENCH_engine.json parses");

  const std::vector<std::uint32_t> agent_counts =
      tiny ? std::vector<std::uint32_t>{200, 1000}
           : std::vector<std::uint32_t>{1000, 10000, 100000};

  std::vector<Cell> cells;
  for (std::uint32_t agents : agent_counts) {
    // Keep density ~0.1 on the tori so occupancy work is realistic.
    const auto side = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(static_cast<double>(agents) * 10.0)));
    cells.push_back(
        measure_cell(graph::Torus2D(side, side), agents, budget, reps));
    cells.push_back(
        measure_cell(graph::Ring(10 * agents), agents, budget, reps));
    std::uint32_t k = 1;
    while ((1ull << k) < 10ull * agents) {
      ++k;
    }
    cells.push_back(measure_cell(graph::Hypercube(k), agents, budget, reps));
    const auto side3 = static_cast<std::uint32_t>(
        std::ceil(std::cbrt(static_cast<double>(agents) * 10.0)));
    cells.push_back(
        measure_cell(graph::TorusKD(3, side3), agents, budget, reps));
  }

  // One cell per implicit family, step budget scaled to the family's
  // per-step cost so each path times in about a second.  rgg2d answers
  // a step from one O(deg) cell-window scan (~10x a lattice step).
  // gnp's and ba's batched paths fill the walk's graph::RowCache with
  // the whole graph in one pass over its edges and then pay a draw per
  // step, but the frozen legacy loop scans a gnp row (O(n)) or sweeps
  // ba's edges (O(m)) every agent step, so that path sets their budgets.
  // Both walks are at least 200 rounds long on the batched paths, so
  // those time row reuse as a real walk has it, not the one-time fill;
  // ba's legacy row keeps a walk of its own, a few rounds long.
  {
    const std::uint32_t implicit_agents = tiny ? 200 : 1000;
    const auto rgg_nodes = static_cast<std::uint64_t>(implicit_agents) * 10;
    // ~8 expected neighbors; rounded so the topology label stays short.
    const double radius =
        std::round(1e4 * std::sqrt(8.0 / (3.14159265358979323846 *
                                          static_cast<double>(rgg_nodes)))) /
        1e4;
    cells.push_back(measure_cell(graph::Rgg2D(rgg_nodes, radius, 7),
                                 implicit_agents,
                                 std::max<std::uint64_t>(1, budget / 4),
                                 reps));
    cells.push_back(measure_cell(
        graph::Gnp(2000, 0.004, 7), implicit_agents,
        std::max<std::uint64_t>(budget / 100,
                                std::uint64_t{implicit_agents} * 200),
        reps));
    cells.push_back(measure_cell(
        graph::Ba(2000, 4, 7), implicit_agents,
        std::max<std::uint64_t>(budget / 5000,
                                std::uint64_t{implicit_agents} * 200),
        reps, std::max<std::uint64_t>(1, budget / 5000)));
  }

  util::Table table({"topology", "agents", "rounds", "legacy ns/step",
                     "engine ns/step", "hash ns/step", "obs ns/step",
                     "vector ns/step", "any ns/step", "dyn ns/step",
                     "churn ns/step", "step ns/step", "draw ns/step",
                     "counter gain", "obs ratio",
                     "vector ratio", "erasure overhead", "dyn overhead",
                     "churn overhead", "peak rss MiB"});
  std::vector<bench::BenchRecord> records;
  for (const Cell& c : cells) {
    table.add_row({c.topology, util::format_count(c.agents),
                   util::format_count(c.rounds),
                   util::format_fixed(c.legacy_ns, 2),
                   util::format_fixed(c.engine_ns, 2),
                   util::format_fixed(c.engine_hash_ns, 2),
                   util::format_fixed(c.obs_ns, 2),
                   util::format_fixed(c.vector_ns, 2),
                   util::format_fixed(c.any_ns, 2),
                   util::format_fixed(c.dyn_ns, 2),
                   util::format_fixed(c.churn_ns, 2),
                   c.step_ns > 0.0 ? util::format_fixed(c.step_ns, 2) : "-",
                   c.draw_ns > 0.0 ? util::format_fixed(c.draw_ns, 2) : "-",
                   util::format_fixed(c.engine_ns / c.engine_hash_ns, 3),
                   util::format_fixed(c.obs_ns / c.engine_ns, 3),
                   util::format_fixed(c.vector_ns / c.engine_hash_ns, 3),
                   util::format_fixed(c.any_ns / c.engine_ns, 3),
                   util::format_fixed(c.dyn_ns / c.any_ns, 3),
                   util::format_fixed(c.churn_ns / c.any_ns, 3),
                   util::format_fixed(
                       static_cast<double>(c.peak_rss) / (1024.0 * 1024.0),
                       1)});
    bench::BenchRecord base;
    base.topology = c.topology;
    base.agents = c.agents;
    base.peak_rss_bytes = c.peak_rss;
    // Honest host width: perf claims in this artifact are meaningless
    // without knowing how wide the bench machine actually was.
    base.hardware_threads = std::thread::hardware_concurrency();
    base.name = "legacy";
    base.rounds = c.legacy_rounds;
    base.ns_per_agent_round = c.legacy_ns;
    records.push_back(base);
    base.rounds = c.rounds;
    base.name = "engine";
    base.ns_per_agent_round = c.engine_ns;
    records.push_back(base);
    base.name = "engine/hash";
    base.ns_per_agent_round = c.engine_hash_ns;
    records.push_back(base);
    base.name = "engine+obs";
    base.ns_per_agent_round = c.obs_ns;
    records.push_back(base);
    base.name = "vector";
    base.ns_per_agent_round = c.vector_ns;
    records.push_back(base);
    base.name = "anytopology";
    base.ns_per_agent_round = c.any_ns;
    records.push_back(base);
    base.name = "any+dyn0";
    base.ns_per_agent_round = c.dyn_ns;
    records.push_back(base);
    base.name = "any+churn";
    base.ns_per_agent_round = c.churn_ns;
    records.push_back(base);
    if (c.step_ns > 0.0) {
      base.name = "step";
      base.ns_per_agent_round = c.step_ns;
      records.push_back(base);
      base.name = "draw";
      base.ns_per_agent_round = c.draw_ns;
      records.push_back(base);
    }
  }
  table.print_markdown(std::cout);

  bench::write_json(out_path, records);
  std::cout << "\nwrote " << records.size() << " records to " << out_path
            << "\n";
  return 0;
}
