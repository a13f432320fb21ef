// The walk-lifetime row cache (graph::RowCache): the shard loop keeps
// one per walk and every batched step of the walk reads it, so gnp
// enumerates a row once per walk instead of once per round.  What the
// cache holds must never change a draw:
//
//   - a multi-round walk stepped through one cache equals sequential
//     random_neighbor calls draw for draw (positions every round, and
//     the generator state afterwards), on the concrete Gnp and through
//     graph::AnyTopology, with Xoshiro256pp and with rng::WideStream;
//   - a walk whose rows fit the entry budget enumerates each visited
//     row exactly once; a walk whose rows overflow it restarts the cache
//     mid-walk and still matches;
//   - a lazy walk, whose agents step one at a time through
//     graph::random_neighbor and the walk's cache, equals sequential
//     random_neighbor calls with the same stay/step draws;
//   - concurrent trials share one const topology but never a cache:
//     trials fanned out on 4 threads give the bytes of 1 thread (this
//     suite runs under TSan in CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "graph/any_topology.hpp"
#include "graph/gnp.hpp"
#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "rng/xoshiro256pp.hpp"
#include "rng/xoshiro_wide.hpp"
#include "scenario/experiment.hpp"
#include "util/json.hpp"

namespace antdense {
namespace {

/// Positions of a walk from `start`, round by round (entry 0 is `start`),
/// stepped by sequential random_neighbor calls on G(0xCAC4E), plus the
/// generator's next word afterwards.
struct Reference {
  std::vector<std::vector<std::uint64_t>> rounds;
  std::uint64_t next_word = 0;
};

template <typename G>
Reference sequential_walk(const graph::Gnp& topo,
                          std::vector<std::uint64_t> pos, int rounds) {
  G gen(0xCAC4E);
  Reference ref;
  ref.rounds.push_back(pos);
  for (int r = 0; r < rounds; ++r) {
    for (std::uint64_t& p : pos) {
      p = topo.random_neighbor(p, gen);
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
graph::RowCache cached_walk_matches(const T& topo, const Reference& ref) {
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

std::vector<std::uint64_t> start_nodes(const graph::Gnp& topo,
                                       std::size_t agents) {
  rng::Xoshiro256pp seeder(17);
  std::vector<std::uint64_t> nodes(agents);
  for (std::uint64_t& u : nodes) {
    u = topo.random_node(seeder);
  }
  return nodes;
}

/// Distinct nodes the walk stepped from (every round but the last).
std::size_t distinct_visited(const Reference& ref) {
  std::set<std::uint64_t> nodes;
  for (std::size_t r = 0; r + 1 < ref.rounds.size(); ++r) {
    nodes.insert(ref.rounds[r].begin(), ref.rounds[r].end());
  }
  return nodes.size();
}

template <typename G>
void expect_cached_walks_match(const graph::Gnp& gnp, std::size_t agents,
                               int rounds, bool fits_budget) {
  SCOPED_TRACE(gnp.name());
  const Reference ref =
      sequential_walk<G>(gnp, start_nodes(gnp, agents), rounds);
  const std::size_t visited = distinct_visited(ref);
  const graph::AnyTopology any(gnp);
  for (const graph::RowCache& rows :
       {cached_walk_matches<G>(gnp, ref), cached_walk_matches<G>(any, ref)}) {
    if (fits_budget) {
      // No restart: every visited row was enumerated exactly once.
      EXPECT_EQ(rows.rows(), visited);
      EXPECT_LE(rows.entries(), graph::detail::kImplicitRowBudget);
    } else {
      // Restarted mid-walk: fewer rows held than visited, and never
      // more than the budget plus one row.
      EXPECT_LT(rows.rows(), visited);
      EXPECT_LE(rows.entries(),
                graph::detail::kImplicitRowBudget + gnp.num_nodes());
    }
  }
}

TEST(RowCache, GnpWalkThroughOneCacheMatchesSequentialSteps) {
  // The benchmark's gnp: 2000 rows of ~9 entries fit the budget.
  const graph::Gnp gnp(2000, 0.004, 1);
  expect_cached_walks_match<rng::Xoshiro256pp>(gnp, 1000, 30, true);
  expect_cached_walks_match<rng::WideStream>(gnp, 1000, 30, true);
}

TEST(RowCache, GnpCacheRestartsPastTheBudgetMidWalk) {
  // Rows of ~101 entries: the budget holds ~650 of them, so the cache
  // restarts within the first round and again in every later one.
  const graph::Gnp gnp(8000, 0.0125, 2);
  expect_cached_walks_match<rng::Xoshiro256pp>(gnp, 1000, 3, false);
  expect_cached_walks_match<rng::WideStream>(gnp, 1000, 3, false);
}

TEST(RowCache, IsolatedNodesSelfLoopWithoutDrawing) {
  // p * n = 0.5: most rows are empty; an empty row is cached too, and
  // stepping from it takes no draw.
  const graph::Gnp gnp(400, 0.00125, 3);
  expect_cached_walks_match<rng::Xoshiro256pp>(gnp, 200, 10, true);
  expect_cached_walks_match<rng::WideStream>(gnp, 200, 10, true);
}

/// A lazy walk's rounds: each agent draws its stay/step Bernoulli, then
/// steps by `step(u, gen)` — the shard loop's lazy path.  Returns every
/// round's positions and the generator's next word.
template <typename G, typename Step>
Reference lazy_walk(std::vector<std::uint64_t> pos, int rounds, Step step) {
  G gen(0x1A2F);
  Reference ref;
  ref.rounds.push_back(pos);
  for (int r = 0; r < rounds; ++r) {
    for (std::uint64_t& p : pos) {
      if (!rng::bernoulli(gen, 0.3)) {
        p = step(p, gen);
      }
    }
    ref.rounds.push_back(pos);
  }
  ref.next_word = gen();
  return ref;
}

template <typename G>
void expect_lazy_cached_walks_match(const graph::Gnp& gnp, int rounds) {
  SCOPED_TRACE(gnp.name());
  const std::vector<std::uint64_t> start = start_nodes(gnp, 500);
  const Reference ref = lazy_walk<G>(
      start, rounds,
      [&](std::uint64_t u, G& gen) { return gnp.random_neighbor(u, gen); });
  const graph::AnyTopology any(gnp);
  graph::RowCache concrete_rows;
  graph::RowCache any_rows;
  const Reference concrete = lazy_walk<G>(
      start, rounds, [&](std::uint64_t u, G& gen) {
        return graph::random_neighbor(gnp, u, gen, concrete_rows);
      });
  const Reference erased = lazy_walk<G>(
      start, rounds, [&](std::uint64_t u, G& gen) {
        return graph::random_neighbor(any, u, gen, any_rows);
      });
  for (const Reference* walk : {&concrete, &erased}) {
    EXPECT_EQ(walk->rounds, ref.rounds);
    EXPECT_EQ(walk->next_word, ref.next_word);
  }
  EXPECT_GT(concrete_rows.rows(), 0u) << "the lazy steps read the cache";
  EXPECT_EQ(any_rows.rows(), concrete_rows.rows());
}

TEST(RowCache, LazyGnpStepsThroughTheCacheMatchSequentialSteps) {
  expect_lazy_cached_walks_match<rng::Xoshiro256pp>(
      graph::Gnp(2000, 0.004, 1), 20);
  expect_lazy_cached_walks_match<rng::WideStream>(graph::Gnp(2000, 0.004, 1),
                                                  20);
  // Past the budget and with isolated nodes.
  expect_lazy_cached_walks_match<rng::Xoshiro256pp>(
      graph::Gnp(8000, 0.0125, 2), 2);
  expect_lazy_cached_walks_match<rng::WideStream>(graph::Gnp(400, 0.00125, 3),
                                                  10);
}

TEST(RowCache, ParallelTrialsOnOneGnpTopologyAreThreadInvariant) {
  // Four trials of every engine share one const topology on four
  // threads; each walk owns its cache, so the documents match one
  // thread's.
  for (const char* engine : {"single", "sharded", "vector"}) {
    SCOPED_TRACE(engine);
    scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::from_json(util::JsonValue::parse(
            std::string(R"({"topology":"gnp:n=2000,p=0.004,seed=1",
                "workload":"density","agents":500,"rounds":10,
                "trials":4,"seed":3,"engine":")") +
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

}  // namespace
}  // namespace antdense
