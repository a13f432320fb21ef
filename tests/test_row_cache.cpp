// The walk-lifetime row cache (graph::RowCache): the shard loop keeps
// one per walk and every batched and lazy step of the walk reads it.
// gnp and ba fill it with the whole graph in one pass over their edges
// (ba on first use, gnp once the walk needs a third of its rows); a gnp
// walk that needs fewer rows, or whose graph is past the budget, caches
// the rows it visits.  What the cache holds must never change a draw:
//
//   - whole-graph rows equal for_each_neighbor node by node, on gnp
//     (n = 2, p = 1, isolated-heavy) and ba (d = 1, self-loops,
//     multi-edges);
//   - a multi-round walk stepped through one cache equals sequential
//     random_neighbor calls draw for draw (positions every round, and
//     the generator state afterwards), on the concrete family and
//     through graph::AnyTopology, with Xoshiro256pp and with
//     rng::WideStream, batched and lazy;
//   - a graph just past the budget keeps the per-row (gnp) or per-call
//     (ba) paths and still matches; a gnp walk past the budget restarts
//     its cache mid-walk and still matches, batched and lazy;
//   - a gnp walk that needs fewer than n/3 rows never sweeps, and
//     enumerates each visited row exactly once;
//   - concurrent trials share one const topology but never a cache:
//     trials fanned out on 4 threads give the bytes of 1 thread (this
//     suite runs under TSan in CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "graph/any_topology.hpp"
#include "graph/ba.hpp"
#include "graph/gnp.hpp"
#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "rng/xoshiro256pp.hpp"
#include "rng/xoshiro_wide.hpp"
#include "scenario/experiment.hpp"
#include "util/json.hpp"

namespace antdense {
namespace {

using graph::detail::kImplicitRowBudget;

/// How a walk's cache should end up.
enum class Held {
  kGraph,      // the whole graph
  kVisited,    // exactly the rows the walk stepped from
  kRefused,    // the visited rows, the whole graph refused as too big
  kRestarted,  // fewer rows than visited: restarted past the budget
  kNothing,    // no rows: ba past the budget steps by per-call sweeps
};

/// Positions of a walk from `start`, round by round (entry 0 is `start`),
/// plus the generator's next word afterwards and the distinct nodes
/// agents stepped from.
struct Reference {
  std::vector<std::vector<std::uint64_t>> rounds;
  std::uint64_t next_word = 0;
  std::set<std::uint64_t> visited;
};

/// A walk's rounds from generator G(seed): each agent, unless its
/// stay draw (probability `lazy`) keeps it, steps by `step(u, gen)` —
/// the shard loop's lazy path; lazy == 0 draws no stay Bernoulli.
template <typename G, typename Step>
Reference walk(std::vector<std::uint64_t> pos, int rounds, double lazy,
               Step step) {
  G gen(0xCAC4E);
  Reference ref;
  ref.rounds.push_back(pos);
  for (int r = 0; r < rounds; ++r) {
    for (std::uint64_t& p : pos) {
      if (lazy == 0.0 || !rng::bernoulli(gen, lazy)) {
        ref.visited.insert(p);
        p = step(p, gen);
      }
    }
    ref.rounds.push_back(pos);
  }
  ref.next_word = gen();
  return ref;
}

/// Steps the walk through one cache, the shard loop's way (in place,
/// batched), and checks it against `ref` round by round.  Returns the
/// cache for the caller's checks on what it held.
template <typename G, typename T>
graph::RowCache batched_walk_matches(const T& topo, const Reference& ref) {
  G gen(0xCAC4E);
  graph::RowCache rows;
  std::vector<std::uint64_t> pos = ref.rounds.front();
  for (std::size_t r = 1; r < ref.rounds.size(); ++r) {
    graph::random_neighbors(topo, std::span<const std::uint64_t>(pos),
                            std::span<std::uint64_t>(pos), gen, rows);
    EXPECT_EQ(pos, ref.rounds[r]) << "round " << r;
    if (pos != ref.rounds[r]) {
      break;
    }
  }
  EXPECT_EQ(gen(), ref.next_word);
  return rows;
}

template <typename T>
std::vector<std::uint64_t> start_nodes(const T& topo, std::size_t agents) {
  rng::Xoshiro256pp seeder(17);
  std::vector<std::uint64_t> nodes(agents);
  for (std::uint64_t& u : nodes) {
    u = topo.random_node(seeder);
  }
  return nodes;
}

template <typename T>
void expect_held(const graph::RowCache& rows, const T& topo, Held held,
                 std::size_t visited) {
  switch (held) {
    case Held::kGraph:
      EXPECT_TRUE(rows.holds_graph());
      EXPECT_EQ(rows.rows(), topo.num_nodes());
      EXPECT_LE(rows.entries() + rows.rows(), kImplicitRowBudget);
      break;
    case Held::kVisited:
    case Held::kRefused:
      // Each visited row enumerated exactly once.
      EXPECT_FALSE(rows.holds_graph());
      EXPECT_EQ(rows.may_hold_graph(), held == Held::kVisited);
      EXPECT_EQ(rows.rows(), visited);
      EXPECT_LE(rows.entries(), kImplicitRowBudget);
      break;
    case Held::kRestarted:
      // Fewer rows held than visited, and never more than the budget
      // plus one row.
      EXPECT_FALSE(rows.holds_graph());
      EXPECT_LT(rows.rows(), visited);
      EXPECT_LE(rows.entries(), kImplicitRowBudget + topo.num_nodes());
      break;
    case Held::kNothing:
      EXPECT_FALSE(rows.holds_graph());
      EXPECT_EQ(rows.rows(), 0u);
      break;
  }
}

/// Batched walks through one cache, on the concrete family and through
/// AnyTopology, against sequential random_neighbor calls.
template <typename G, typename T>
void expect_batched_walks_match(const T& topo, std::size_t agents,
                                int rounds, Held held) {
  SCOPED_TRACE(topo.name());
  const Reference ref = walk<G>(
      start_nodes(topo, agents), rounds, 0.0,
      [&](std::uint64_t u, G& gen) { return topo.random_neighbor(u, gen); });
  const graph::AnyTopology any(topo);
  for (const graph::RowCache& rows : {batched_walk_matches<G>(topo, ref),
                                      batched_walk_matches<G>(any, ref)}) {
    expect_held(rows, topo, held, ref.visited.size());
  }
}

/// Lazy walks (each agent steps alone through graph::random_neighbor
/// and the walk's cache), on the concrete family and through
/// AnyTopology, against sequential random_neighbor calls with the same
/// stay draws.
template <typename G, typename T>
void expect_lazy_walks_match(const T& topo, std::size_t agents, int rounds,
                             Held held) {
  SCOPED_TRACE(topo.name());
  const std::vector<std::uint64_t> start = start_nodes(topo, agents);
  const Reference ref = walk<G>(
      start, rounds, 0.3,
      [&](std::uint64_t u, G& gen) { return topo.random_neighbor(u, gen); });
  const graph::AnyTopology any(topo);
  graph::RowCache concrete_rows;
  graph::RowCache any_rows;
  const Reference concrete =
      walk<G>(start, rounds, 0.3, [&](std::uint64_t u, G& gen) {
        return graph::random_neighbor(topo, u, gen, concrete_rows);
      });
  const Reference erased =
      walk<G>(start, rounds, 0.3, [&](std::uint64_t u, G& gen) {
        return graph::random_neighbor(any, u, gen, any_rows);
      });
  for (const Reference* lazy : {&concrete, &erased}) {
    EXPECT_EQ(lazy->rounds, ref.rounds);
    EXPECT_EQ(lazy->next_word, ref.next_word);
  }
  expect_held(concrete_rows, topo, held, ref.visited.size());
  EXPECT_EQ(any_rows.rows(), concrete_rows.rows());
  EXPECT_EQ(any_rows.holds_graph(), concrete_rows.holds_graph());
}

/// The family's whole graph, filled by its one pass, equals
/// for_each_neighbor node by node.  Returns the number of rows that
/// repeat a neighbor (multi-edges, or a self-loop listed twice).
template <typename T>
std::size_t expect_graph_rows_match(const T& topo) {
  SCOPED_TRACE(topo.name());
  graph::RowCache rows;
  topo.fill_graph(rows);
  EXPECT_TRUE(rows.holds_graph());
  EXPECT_EQ(rows.rows(), topo.num_nodes());
  std::size_t with_repeats = 0;
  std::size_t entries = 0;
  for (std::uint64_t u = 0; u < topo.num_nodes(); ++u) {
    std::vector<std::uint64_t> expected;
    topo.for_each_neighbor(u, [&](std::uint64_t v) { expected.push_back(v); });
    const std::uint64_t* row = rows.row(topo, u);
    EXPECT_EQ(std::vector<std::uint64_t>(row + 1, row + 1 + row[0]), expected)
        << "row " << u;
    with_repeats +=
        std::set<std::uint64_t>(expected.begin(), expected.end()).size() <
        expected.size();
    entries += 1 + expected.size();
  }
  // Each row is its length word and its entries, nothing more.
  EXPECT_EQ(rows.entries(), entries);
  return with_repeats;
}

TEST(RowCache, GraphBudgetCountsOffsetsLengthsAndEntries) {
  // Two words per row (offset, length) plus one per entry.
  EXPECT_TRUE(graph::detail::graph_fits_row_budget(1000, 0));
  EXPECT_TRUE(
      graph::detail::graph_fits_row_budget(1000, kImplicitRowBudget - 2000));
  EXPECT_FALSE(graph::detail::graph_fits_row_budget(
      1000, kImplicitRowBudget - 2000 + 1));
  EXPECT_TRUE(graph::detail::graph_fits_row_budget(kImplicitRowBudget / 2, 0));
  EXPECT_FALSE(
      graph::detail::graph_fits_row_budget(kImplicitRowBudget / 2 + 1, 0));
}

TEST(RowCache, GnpGraphRowsEqualEnumeratedRows) {
  expect_graph_rows_match(graph::Gnp(2, 1.0, 1));      // one edge
  expect_graph_rows_match(graph::Gnp(40, 1.0, 1));     // complete
  expect_graph_rows_match(graph::Gnp(400, 0.00125, 3));  // isolated-heavy
  expect_graph_rows_match(graph::Gnp(2000, 0.004, 1));   // the benchmark's
  // An isolated node's row is empty.
  graph::RowCache rows;
  const graph::Gnp sparse(400, 0.00125, 3);
  sparse.fill_graph(rows);
  std::size_t empty = 0;
  for (std::uint64_t u = 0; u < sparse.num_nodes(); ++u) {
    empty += rows.row(sparse, u)[0] == 0;
  }
  EXPECT_GT(empty, 100u);
}

TEST(RowCache, BaGraphRowsEqualEnumeratedRows) {
  // Edge 0 is node 0's self-loop, listed twice in its row; d >= 2 makes
  // multi-edges likely.
  std::size_t with_repeats = 0;
  with_repeats += expect_graph_rows_match(graph::Ba(2, 1, 1));
  with_repeats += expect_graph_rows_match(graph::Ba(50, 1, 4));
  with_repeats += expect_graph_rows_match(graph::Ba(300, 3, 3));
  with_repeats += expect_graph_rows_match(graph::Ba(500, 4, 1));
  EXPECT_GE(with_repeats, 4u);
  graph::RowCache rows;
  const graph::Ba ba(50, 1, 4);
  ba.fill_graph(rows);
  const std::uint64_t* row0 = rows.row(ba, 0);
  EXPECT_EQ(row0[1], 0u) << "node 0's out-edge is its self-loop";
}

TEST(RowCache, GnpWalkThroughOneCacheMatchesSequentialSteps) {
  // The benchmark's gnp: the first batch needs more than a third of the
  // 2000 rows, so the walk holds the whole graph from its first step.
  const graph::Gnp gnp(2000, 0.004, 1);
  expect_batched_walks_match<rng::Xoshiro256pp>(gnp, 1000, 30, Held::kGraph);
  expect_batched_walks_match<rng::WideStream>(gnp, 1000, 30, Held::kGraph);
}

TEST(RowCache, SmallGnpWalkCachesOnlyTheRowsItVisits) {
  // 20 agents for 3 rounds need far fewer than n/3 rows: no sweep.
  const graph::Gnp gnp(2000, 0.004, 1);
  expect_batched_walks_match<rng::Xoshiro256pp>(gnp, 20, 3, Held::kVisited);
  expect_batched_walks_match<rng::WideStream>(gnp, 20, 3, Held::kVisited);
  expect_lazy_walks_match<rng::Xoshiro256pp>(gnp, 20, 3, Held::kVisited);
}

TEST(RowCache, GnpSweepsOnceTheWalkNeedsAThirdOfItsRows) {
  // n = 300: a batch that brings the needed rows to 99 (3 * 99 < 300)
  // stays per-row; the next distinct row reaches n/3 and sweeps, before
  // the batch enumerates any row.
  const graph::Gnp gnp(300, 0.02, 3);
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "batched");
    rng::Xoshiro256pp gen(5);
    graph::RowCache rows;
    std::vector<std::uint64_t> nodes(99);
    std::iota(nodes.begin(), nodes.end(), 0);
    // Repeats of held and unheld nodes count once.
    nodes.insert(nodes.end(), {0, 5, 98, 98});
    std::vector<std::uint64_t> out(nodes.size());
    if (lazy) {
      for (const std::uint64_t u : nodes) {
        graph::random_neighbor(gnp, u, gen, rows);
      }
    } else {
      graph::random_neighbors(gnp, std::span<const std::uint64_t>(nodes),
                              std::span<std::uint64_t>(out), gen, rows);
    }
    EXPECT_FALSE(rows.holds_graph());
    EXPECT_EQ(rows.rows(), 99u);
    // Held rows alone never trigger it.
    graph::random_neighbor(gnp, std::uint64_t{7}, gen, rows);
    EXPECT_FALSE(rows.holds_graph());
    const std::uint64_t next = 99;
    if (lazy) {
      graph::random_neighbor(gnp, next, gen, rows);
    } else {
      graph::random_neighbors(gnp, std::span<const std::uint64_t>(&next, 1),
                              std::span<std::uint64_t>(out).first(1), gen,
                              rows);
    }
    EXPECT_TRUE(rows.holds_graph());
    EXPECT_EQ(rows.rows(), 300u);
  }
}

TEST(RowCache, GnpCacheRestartsPastTheBudgetMidWalk) {
  // Rows of ~101 entries: the budget holds ~650 of them, so the cache
  // restarts within the first round and again in every later one, and
  // never needs a third of the graph at once — batched or lazy.
  const graph::Gnp gnp(8000, 0.0125, 2);
  expect_batched_walks_match<rng::Xoshiro256pp>(gnp, 1000, 3,
                                                Held::kRestarted);
  expect_batched_walks_match<rng::WideStream>(gnp, 1000, 3, Held::kRestarted);
  expect_lazy_walks_match<rng::Xoshiro256pp>(gnp, 1000, 2, Held::kRestarted);
}

TEST(RowCache, GraphsJustPastTheBudgetKeepTheirOldPaths) {
  // 2000 rows leave room for 61,536 entries.  gnp(2000, 0.016) expects
  // about 64,000, so it is refused unswept; gnp(2000, 0.01538) expects
  // 61,489: seed 4 draws 61,802 and is refused mid-sweep, seed 1 draws
  // 61,272 and is held.  A refused walk needs a third of the rows and
  // caches the rows it visits, as before.
  const graph::Gnp gnp(2000, 0.016, 1);
  const graph::Gnp overflows(2000, 0.01538, 4);
  for (const graph::Gnp* refused : {&gnp, &overflows}) {
    graph::RowCache rows;
    refused->fill_graph(rows);
    EXPECT_FALSE(rows.holds_graph()) << "the graph overflows the budget";
    EXPECT_FALSE(rows.may_hold_graph()) << "and is not tried again";
    EXPECT_EQ(rows.rows(), 0u);
  }
  expect_batched_walks_match<rng::Xoshiro256pp>(gnp, 1000, 2,
                                                Held::kRefused);
  expect_batched_walks_match<rng::WideStream>(gnp, 1000, 2, Held::kRefused);
  expect_lazy_walks_match<rng::Xoshiro256pp>(gnp, 1000, 2, Held::kRefused);
  expect_batched_walks_match<rng::Xoshiro256pp>(overflows, 1000, 2,
                                                Held::kRefused);
  expect_batched_walks_match<rng::Xoshiro256pp>(graph::Gnp(2000, 0.01538, 1),
                                                1000, 2, Held::kGraph);
  // ba(3000, 10): 3000 * (2 + 2 * 10) = 66,000 words; ba(3000, 9) fits.
  // Past the budget every batch sweeps the in-edges and every lazy step
  // enumerates its row; nothing is held.
  EXPECT_FALSE(graph::detail::graph_fits_row_budget(3000, 2 * 30000));
  EXPECT_TRUE(graph::detail::graph_fits_row_budget(3000, 2 * 27000));
  const graph::Ba ba(3000, 10, 2);
  expect_batched_walks_match<rng::Xoshiro256pp>(ba, 60, 2, Held::kNothing);
  expect_batched_walks_match<rng::WideStream>(ba, 60, 2, Held::kNothing);
  expect_lazy_walks_match<rng::Xoshiro256pp>(ba, 20, 2, Held::kNothing);
  expect_batched_walks_match<rng::Xoshiro256pp>(graph::Ba(3000, 9, 2), 60, 2,
                                                Held::kGraph);
}

TEST(RowCache, IsolatedNodesSelfLoopWithoutDrawing) {
  // p * n = 0.5: most rows are empty; stepping from an empty row takes
  // no draw, whether the row came from the sweep or from a scan.
  const graph::Gnp gnp(400, 0.00125, 3);
  expect_batched_walks_match<rng::Xoshiro256pp>(gnp, 200, 10, Held::kGraph);
  expect_batched_walks_match<rng::WideStream>(gnp, 200, 10, Held::kGraph);
  expect_batched_walks_match<rng::Xoshiro256pp>(gnp, 10, 3, Held::kVisited);
}

TEST(RowCache, BaWalkThroughOneCacheMatchesSequentialSteps) {
  // The first call fills the whole graph; d = 1 and the benchmark's ba.
  for (const graph::Ba& ba : {graph::Ba(50, 1, 4), graph::Ba(2000, 4, 1)}) {
    expect_batched_walks_match<rng::Xoshiro256pp>(ba, 200, 4, Held::kGraph);
    expect_batched_walks_match<rng::WideStream>(ba, 200, 4, Held::kGraph);
  }
}

TEST(RowCache, LazyStepsThroughTheCacheMatchSequentialSteps) {
  const graph::Gnp gnp(2000, 0.004, 1);
  expect_lazy_walks_match<rng::Xoshiro256pp>(gnp, 500, 20, Held::kGraph);
  expect_lazy_walks_match<rng::WideStream>(gnp, 500, 20, Held::kGraph);
  expect_lazy_walks_match<rng::WideStream>(graph::Gnp(400, 0.00125, 3), 500,
                                           10, Held::kGraph);
  const graph::Ba ba(2000, 4, 1);
  expect_lazy_walks_match<rng::Xoshiro256pp>(ba, 200, 5, Held::kGraph);
  expect_lazy_walks_match<rng::WideStream>(ba, 200, 5, Held::kGraph);
}

TEST(RowCache, ParallelTrialsOnOneImplicitTopologyAreThreadInvariant) {
  // Four trials of every engine share one const topology on four
  // threads; each walk owns its cache, so the documents match one
  // thread's.
  for (const char* topology :
       {"gnp:n=2000,p=0.004,seed=1", "ba:n=2000,d=4,seed=1"}) {
    for (const char* engine : {"single", "sharded", "vector"}) {
      SCOPED_TRACE(std::string(topology) + " " + engine);
      scenario::ScenarioSpec spec =
          scenario::ScenarioSpec::from_json(util::JsonValue::parse(
              std::string(R"({"topology":")") + topology +
              R"(","workload":"density","agents":500,"rounds":10,
                  "trials":4,"seed":3,"engine":")" +
              engine + "\"}"));
      std::string docs[2];
      for (const unsigned threads : {1u, 4u}) {
        spec.threads = threads;
        scenario::ScenarioResult result = scenario::Experiment(spec).run();
        result.spec.threads = 1;
        util::JsonValue doc = result.to_json();
        doc.erase("elapsed_seconds");
        doc.erase("elapsed_ns");
        docs[threads == 1 ? 0 : 1] = doc.dump(0);
      }
      EXPECT_EQ(docs[0], docs[1]);
    }
  }
}

}  // namespace
}  // namespace antdense
