// The Topology concept: the minimal interface the density-estimation
// engine needs from a graph substrate.
//
// All of the paper's substrates are *regular* graphs (uniform degree) —
// regularity is what keeps uniformly-placed random walkers uniformly
// distributed in every round (Lemma 2 relies on it).  Topologies are
// value types; nodes are cheap handles with a packed 64-bit key used by
// the collision counter.  Keys are unique per node and lie in
// [0, num_nodes()): the direct-addressed counter
// (sim/dense_counter.hpp) indexes an array by them.
//
// Implemented models:
//   Torus2D      — the paper's main model (Section 2)
//   Ring         — 1-D torus (Section 4.2)
//   TorusKD      — k-dimensional torus (Section 4.3)
//   Hypercube    — k-dimensional hypercube (Section 4.5)
//   CompleteGraph— the independent-sampling reference (Section 1.1)
//   ExplicitTopology — any regular CSR graph, e.g. random-regular
//                  expanders (Section 4.4)
//   Rgg2D, Gnp, Ba — implicit random geometric, Erdős–Rényi and
//                  Barabási–Albert graphs whose rows are recomputed on
//                  demand (graph/rgg2d.hpp, gnp.hpp, ba.hpp)
//
// A concept rather than a virtual base keeps the per-step cost inlined;
// benches push billions of steps through these calls.
//
// Paper: Musco, Su & Lynch (PODC 2016, arXiv:1603.02981); full
// concept-to-header map in docs/ARCHITECTURE.md.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "rng/random.hpp"
#include "rng/xoshiro256pp.hpp"
#include "util/check.hpp"

namespace antdense::graph {

template <typename T>
concept Topology = requires(const T& t, const typename T::node_type& u,
                            rng::Xoshiro256pp& g) {
  typename T::node_type;
  { t.num_nodes() } -> std::convertible_to<std::uint64_t>;
  { t.degree() } -> std::convertible_to<std::uint64_t>;
  { t.random_node(g) } -> std::same_as<typename T::node_type>;
  { t.random_neighbor(u, g) } -> std::same_as<typename T::node_type>;
  { t.key(u) } -> std::same_as<std::uint64_t>;
  { t.name() } -> std::convertible_to<std::string>;
};

/// A topology whose neighbor draw factors into "uniform pick below a
/// node-independent bound, then a pure function of (node, pick)".  The
/// contract, relied on by random_neighbors' pick stepping:
///   random_neighbor(u, g) == pick_step(u, uniform_below(g, pick_bound()))
/// consuming the generator identically.
template <typename T>
concept UniformPickTopology =
    Topology<T> && requires(const T& t, const typename T::node_type& u,
                            std::uint64_t pick) {
      { t.pick_bound() } -> std::convertible_to<std::uint64_t>;
      { t.pick_step(u, pick) } -> std::same_as<typename T::node_type>;
    };

namespace detail {

/// Batched stepping for the families whose step takes exactly one raw
/// generator word (ring, torus2d), for every generator: draws a block
/// of words in stream order — one fill() on a generator that has it
/// (rng::WideStream), else one call per word — then runs the family's
/// step_words kernel over it.  Same draws in the same order as
/// in.size() random_neighbor calls.  The spans may alias elementwise.
template <typename T, rng::BitGenerator64 G>
inline void step_word_blocks(const T& topo, std::span<const std::uint64_t> in,
                             std::span<std::uint64_t> out, G& gen) {
  ANTDENSE_CHECK(in.size() == out.size(),
                 "bulk neighbor sampling needs equal-sized spans");
  constexpr std::size_t kBlock = 256;
  std::uint64_t words[kBlock];
  for (std::size_t done = 0; done < in.size();) {
    const std::size_t m = std::min(kBlock, in.size() - done);
    if constexpr (requires { gen.fill(std::span<std::uint64_t>()); }) {
      gen.fill({words, m});
    } else {
      // A local copy keeps the state in registers; stores to `words`
      // could alias it in memory.
      G local = gen;
      for (std::size_t j = 0; j < m; ++j) {
        words[j] = local();
      }
      gen = local;
    }
    topo.step_words(in.subspan(done, m), out.subspan(done, m), words);
    done += m;
  }
}

/// Word budget of the rows an implicit family holds for a walk
/// (graph::RowCache).  A whole graph is held only if its row offsets,
/// row lengths and entries fit it (two words per node plus two per
/// edge); else gnp caches the rows the walk visits and restarts past
/// this many entries, and ba gathers in-rows per call in agent-order
/// chunks of at most this many entries.  Either way a walk holds at
/// most 512 KiB of rows plus one row, never sized by the node or edge
/// count.
inline constexpr std::size_t kImplicitRowBudget = std::size_t{1} << 16;

/// Whether a whole graph of `nodes` rows and `entries` entries fits
/// kImplicitRowBudget: two words per row (its offset and its length)
/// plus one per entry.
constexpr bool graph_fits_row_budget(std::uint64_t nodes,
                                     std::uint64_t entries) {
  return nodes <= kImplicitRowBudget / 2 &&
         entries <= kImplicitRowBudget - 2 * nodes;
}

/// One-pass neighbor sampling for the implicit families, whose rows are
/// enumerated (for_each_neighbor) rather than indexed: u's row goes once
/// into the calling thread's scratch buffer, then one uniform pick below
/// its length selects the neighbor.  Draw for draw this equals a count
/// pass, uniform_below(degree) and a select pass to the pick; an
/// isolated node takes no draw and self-loops.
template <typename T, rng::BitGenerator64 G>
inline typename T::node_type sample_enumerated_neighbor(
    const T& topo, typename T::node_type u, G& gen) {
  using node = typename T::node_type;
  thread_local std::vector<node> row;
  row.clear();
  topo.for_each_neighbor(u, [](node v) { row.push_back(v); });
  return row.empty() ? u : row[rng::uniform_below(gen, row.size())];
}

}  // namespace detail

/// Enumerated rows that outlive one batched call: the walk's row cache.
/// The shard loop (sim/sharded_walk.hpp) owns one per walk and passes it
/// down every batched and lazy step.  It holds rows one of two ways:
///   - the whole graph, when the family fills it (hold_graph) from one
///     pass over its edges: ba on first use, gnp once the walk needs a
///     third of its rows; a dense node -> offset array indexes it;
///   - else the rows the walk visits, each enumerated by
///     for_each_neighbor on first use, with a node -> offset map;
///     past detail::kImplicitRowBudget entries the cache restarts.
/// Rows are stored flat, each as its length followed by its neighbors
/// in for_each_neighbor order.  They are pure functions of the node, so
/// what the cache holds never changes a draw.  Not thread-safe: one
/// walk, one thread, one cache.
class RowCache {
 public:
  /// u's row: its length, then its neighbors.  Without the whole graph,
  /// enumerated by topo.for_each_neighbor on first use.  Valid until the
  /// next call.
  template <typename T>
  const std::uint64_t* row(const T& topo, std::uint64_t u) {
    if (holds_graph()) {
      return rows_.data() + offset_[u];
    }
    auto found = at_.find(u);
    if (found == at_.end()) {
      if (rows_.size() >= detail::kImplicitRowBudget) {
        rows_.clear();
        at_.clear();
      }
      found = at_.emplace(u, rows_.size()).first;
      rows_.push_back(0);
      topo.for_each_neighbor(u,
                             [this](std::uint64_t v) { rows_.push_back(v); });
      rows_[found->second] = rows_.size() - found->second - 1;
    }
    return rows_.data() + found->second;
  }

  /// Whether u's row is held.
  bool holds(std::uint64_t u) const {
    return holds_graph() || at_.contains(u);
  }

  /// Holds the whole graph from now on, row u taking lengths[u] entries
  /// (the caller checks the words fit the budget): lays the rows out,
  /// then calls fill(push), where push(u, v) appends v to row u.
  template <typename Fill>
  void hold_graph(std::vector<std::uint64_t> lengths, Fill fill) {
    at_.clear();
    offset_.resize(lengths.size());
    std::size_t words = 0;
    for (std::size_t u = 0; u < lengths.size(); ++u) {
      offset_[u] = words;
      words += 1 + lengths[u];
    }
    rows_.assign(words, 0);
    // lengths[u] becomes row u's next free slot.
    for (std::size_t u = 0; u < lengths.size(); ++u) {
      rows_[offset_[u]] = lengths[u];
      lengths[u] = offset_[u] + 1;
    }
    fill([&](std::uint64_t u, std::uint64_t v) { rows_[lengths[u]++] = v; });
  }

  /// Records that the family's whole graph overflowed the budget, so the
  /// walk keeps caching visited rows.
  void refuse_graph() { refused_ = true; }

  bool holds_graph() const { return !offset_.empty(); }
  /// Whether a family may still fill the whole graph.
  bool may_hold_graph() const { return !holds_graph() && !refused_; }

  /// Entries held (row lengths included) and rows held.
  std::size_t entries() const { return rows_.size(); }
  std::size_t rows() const {
    return holds_graph() ? offset_.size() : at_.size();
  }

 private:
  std::vector<std::uint64_t> rows_;
  std::unordered_map<std::uint64_t, std::size_t> at_;
  std::vector<std::uint64_t> offset_;  // whole graph: node -> row offset
  bool refused_ = false;
};

/// One step from `u` through the walk's row cache: a topology with a
/// cached single-step member (gnp, ba) picks from `rows`, every other
/// family steps by its plain random_neighbor.  Draw for draw it equals
/// topo.random_neighbor(u, gen); the shard loop's lazy path steps each
/// agent this way.
template <Topology T, rng::BitGenerator64 G>
inline typename T::node_type random_neighbor(const T& topo,
                                             typename T::node_type u, G& gen,
                                             RowCache& rows) {
  if constexpr (requires { topo.random_neighbor(u, gen, rows); }) {
    return topo.random_neighbor(u, gen, rows);
  } else {
    return topo.random_neighbor(u, gen);
  }
}

/// Samples one neighbor for every node in `in`, writing to `out`
/// (`out[i]` replaces `in[i]`; the spans may alias elementwise, so
/// stepping a position array in place is fine) — the one batched-step
/// entry point, for every generator.  It takes the first that applies:
///   1. the topology's own batched member (ring, torus2d, rgg2d, gnp,
///      ba; graph::AnyTopology forwards to this function on the wrapped
///      topology), handed `rows` when it takes a RowCache;
///   2. for a UniformPickTopology (toruskd, hypercube, complete): picks
///      mapped through pick_step, drawn in blocks by
///      rng::uniform_below_batch when `gen` has a bulk fill()
///      (rng::WideStream), one uniform_below per agent otherwise — the
///      block pays on the wide stream and costs on a scalar one;
///   3. per-agent random_neighbor calls.
/// Every path consumes the generator exactly as in.size() sequential
/// random_neighbor calls would (same draws, same order), so which one
/// ran never shows in a result.
template <Topology T, rng::BitGenerator64 G>
inline void random_neighbors(const T& topo,
                             std::span<const typename T::node_type> in,
                             std::span<typename T::node_type> out, G& gen,
                             RowCache& rows) {
  ANTDENSE_CHECK(in.size() == out.size(),
                 "bulk neighbor sampling needs equal-sized spans");
  if constexpr (requires { topo.random_neighbors(in, out, gen, rows); }) {
    topo.random_neighbors(in, out, gen, rows);
  } else if constexpr (requires { topo.random_neighbors(in, out, gen); }) {
    topo.random_neighbors(in, out, gen);
  } else if constexpr (UniformPickTopology<T>) {
    const std::uint64_t bound = topo.pick_bound();
    if constexpr (requires { gen.fill(std::span<std::uint64_t>()); }) {
      constexpr std::size_t kBlock = 256;
      std::uint64_t picks[kBlock];
      for (std::size_t done = 0; done < in.size();) {
        const std::size_t m = std::min(kBlock, in.size() - done);
        rng::uniform_below_batch(gen, bound, {picks, m});
        for (std::size_t j = 0; j < m; ++j) {
          out[done + j] = topo.pick_step(in[done + j], picks[j]);
        }
        done += m;
      }
    } else {
      // A local copy keeps the state in registers; stores to `out`
      // could alias it in memory.
      G local = gen;
      for (std::size_t i = 0; i < in.size(); ++i) {
        out[i] = topo.pick_step(in[i], rng::uniform_below(local, bound));
      }
      gen = local;
    }
  } else {
    for (std::size_t i = 0; i < in.size(); ++i) {
      out[i] = topo.random_neighbor(in[i], gen);
    }
  }
}

/// The same through a fresh row cache: one batch, rows shared only
/// within it.
template <Topology T, rng::BitGenerator64 G>
inline void random_neighbors(const T& topo,
                             std::span<const typename T::node_type> in,
                             std::span<typename T::node_type> out, G& gen) {
  RowCache rows;
  random_neighbors(topo, in, out, gen, rows);
}

/// Computes `out[i] = topo.key(nodes[i])` for every node, dispatching to
/// a batched `keys` member when the topology has one.  Concrete
/// topologies inline the per-node loop; type-erased handles
/// (graph::AnyTopology) override the batched member so occupancy
/// counting costs one virtual call per round, not one per agent.
template <Topology T>
inline void node_keys(const T& topo,
                      std::span<const typename T::node_type> nodes,
                      std::span<std::uint64_t> out) {
  ANTDENSE_CHECK(nodes.size() == out.size(),
                 "key batching needs equal-sized spans");
  if constexpr (requires { topo.keys(nodes, out); }) {
    topo.keys(nodes, out);
  } else {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      out[i] = topo.key(nodes[i]);
    }
  }
}

}  // namespace antdense::graph
