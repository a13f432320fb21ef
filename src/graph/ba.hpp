// Implicit Barabási–Albert preferential-attachment graph, via the
// Batagelj–Brandes linear construction made storage-free.
//
// Batagelj & Brandes (2005) build BA(n, d) by writing the endpoint array
// M[0..2m): edge j has source M[2j] = j / d, and target M[2j+1] = M[r]
// for r uniform in [0, 2j+1).  Landing on an even slot copies a node id
// directly; landing on an odd slot copies an earlier *target*, which is
// exactly what makes attachment proportional to current degree.  We
// never store M: edge j's draw comes from its own private SplitMix64
// stream seeded by implicit_hash::ba_attach_seed(seed, j), so any M[r]
// can be recomputed on demand by chasing the odd-slot chain — a
// geometric chain with expected O(1) length.  The construction is
// all-integer (Lemire rejection on 64-bit words), hence bit-stable
// across platforms (pinned by tests/test_implicit_golden.cpp).
//
// Faithful BA semantics retained, quirks included: the graph is a
// multigraph, edge 0 is a self-loop on node 0 (r is forced to 0), and a
// self-loop contributes the node twice to its own neighbor multiset —
// the same convention as graph::Graph::from_edges, so differential
// tests compare like with like.  The degree distribution has the
// classic power-law tail with exponent ~3.
//
// Honest complexity note: out-neighbors (the d attachments of u) cost
// O(d) chains, but in-neighbors require scanning all m = n*d edge
// targets, so enumerating one row is O(m); a plain random_neighbor
// call pays that.  A walk instead steps through its graph::RowCache:
// its first step fills the cache with the whole graph in one pass in
// edge order (fill_graph), one attachment draw per edge, and every
// later step is one draw — O(m) per walk, not per step or per round.
// That holds while the graph fits detail::kImplicitRowBudget (2n + 2m
// words, so n * (1 + d) <= 2^15); past it a batched call gathers the
// in-rows of its distinct nodes in one m-edge sweep per call, and a
// lazy step enumerates its row.  Chain steps hoist the (seed, tag)
// prefix of their stream derivation into the constructor.  Like gnp,
// ba is an exact-in-distribution family for small and moderate n;
// rgg2d is the massive-scale one.
//
// Degree is heavy-tailed: degree() reports the nominal mean 2d for the
// Topology concept, degree_of(u) the exact value.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/implicit_hash.hpp"
#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "rng/splitmix64.hpp"
#include "util/check.hpp"

namespace antdense::graph {

class Ba {
 public:
  using node_type = std::uint64_t;

  Ba(std::uint64_t num_nodes, std::uint64_t attach_degree, std::uint64_t seed)
      : n_(num_nodes),
        d_(attach_degree),
        seed_(seed),
        // ba_attach_seed(seed, j) == derive_seed(attach_root_, j):
        // derive_seed folds its indices one at a time.
        attach_root_(rng::derive_seed(seed, implicit_hash::kBaAttachTag)) {
    ANTDENSE_CHECK(num_nodes >= 2, "ba requires at least 2 nodes");
    ANTDENSE_CHECK(attach_degree >= 1, "ba attachment degree must be >= 1");
    ANTDENSE_CHECK(attach_degree < num_nodes,
                   "ba attachment degree must be < n");
    ANTDENSE_CHECK(num_nodes <= (std::uint64_t{1} << 32) &&
                       attach_degree <= (std::uint64_t{1} << 16),
                   "ba supports n <= 2^32 and d <= 2^16");
    m_ = n_ * d_;
  }

  std::uint64_t num_nodes() const { return n_; }
  /// Nominal (mean) degree 2d — the distribution is a power law;
  /// degree_of(u) is the exact value.
  std::uint64_t degree() const {
    const std::uint64_t nominal = 2 * d_;
    return nominal > n_ - 1 ? n_ - 1 : nominal;
  }
  std::uint64_t attach_degree() const { return d_; }
  std::uint64_t num_edges() const { return m_; }
  std::uint64_t seed() const { return seed_; }

  /// Source endpoint of edge j (the attaching node).
  node_type source_of(std::uint64_t edge) const { return edge / d_; }

  /// Target endpoint of edge j, recomputed by chasing the Batagelj–
  /// Brandes odd-slot chain (expected O(1) steps).
  node_type target_of(std::uint64_t edge) const {
    std::uint64_t j = edge;
    while (true) {
      const std::uint64_t r = attach_draw(j);
      if (r % 2 == 0) {
        return (r / 2) / d_;  // even slot holds edge (r/2)'s source
      }
      j = (r - 1) / 2;  // odd slot holds edge ((r-1)/2)'s target
    }
  }

  /// Exact degree of u (multi-edges counted with multiplicity, a
  /// self-loop counted twice) — O(m) target scan (see header note).
  std::uint64_t degree_of(node_type u) const {
    std::uint64_t count = 0;
    for_each_neighbor(u, [&count](node_type) { ++count; });
    return count;
  }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    return rng::uniform_below(gen, n_);
  }

  /// Uniform over u's neighbor *multiset*: one enumeration (one m-edge
  /// sweep), one uniform draw.  Every node has degree >= d >= 1, so the
  /// self-loop fallback never fires.
  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen) const {
    return detail::sample_enumerated_neighbor(*this, u, gen);
  }

  /// One step through the walk's row cache, same draw as
  /// random_neighbor: u picks from its row in the whole graph, which the
  /// first step fills in (fill_graph).  A graph past the budget steps
  /// by random_neighbor.
  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen, RowCache& rows) const {
    return holds_graph(rows) ? pick(rows.row(*this, u), gen)
                             : random_neighbor(u, gen);
  }

  /// Batched stepping through the walk's row cache, same draws as
  /// sequential random_neighbor calls: every agent picks from its row in
  /// the whole graph, which the first call fills in (fill_graph).  A
  /// graph past the budget steps by the in-edge sweep below, once per
  /// call.  The spans may alias elementwise.
  template <rng::BitGenerator64 G>
  void random_neighbors(std::span<const node_type> in,
                        std::span<node_type> out, G& gen,
                        RowCache& rows) const {
    ANTDENSE_CHECK(in.size() == out.size(),
                   "bulk neighbor sampling needs equal-sized spans");
    if (!holds_graph(rows)) {
      random_neighbors(in, out, gen);
      return;
    }
    for (std::size_t i = 0; i < in.size(); ++i) {
      out[i] = pick(rows.row(*this, in[i]), gen);
    }
  }

  /// Batched stepping without a row cache, same draws as sequential
  /// calls.  Per agent-order chunk, one sweep gathers the in-rows of the
  /// chunk's distinct nodes; each agent then draws below d + its
  /// in-degree, and a pick below d is resolved by one chain chase (its
  /// out-edge), one above from the gathered in-row.  A chunk whose
  /// in-rows overflow detail::kImplicitRowBudget is halved and swept
  /// again, down to a single agent, whose one row may exceed the budget.
  /// The spans may alias elementwise.
  template <rng::BitGenerator64 G>
  void random_neighbors(std::span<const node_type> in,
                        std::span<node_type> out, G& gen) const {
    ANTDENSE_CHECK(in.size() == out.size(),
                   "bulk neighbor sampling needs equal-sized spans");
    std::vector<node_type> nodes;
    std::vector<std::uint64_t> in_edges;
    for (std::size_t lo = 0, hi = 0; lo < in.size(); lo = hi) {
      hi = std::min(in.size(), lo + detail::kImplicitRowBudget / 2);
      while (!collect_in_edges(in.subspan(lo, hi - lo), nodes, in_edges)) {
        hi = lo + (hi - lo) / 2;
      }
      for (std::size_t i = lo; i < hi; ++i) {
        const node_type u = in[i];
        const auto first = std::partition_point(
            in_edges.begin(), in_edges.end(),
            [u](std::uint64_t e) { return (e >> 32) < u; });
        const auto last = std::partition_point(
            first, in_edges.end(),
            [u](std::uint64_t e) { return (e >> 32) == u; });
        const std::uint64_t pick = rng::uniform_below(
            gen, d_ + static_cast<std::uint64_t>(last - first));
        out[i] = pick < d_ ? target_of(u * d_ + pick)
                           : first[static_cast<std::ptrdiff_t>(pick - d_)] &
                                 0xFFFFFFFFULL;
      }
    }
  }

  /// Fills `rows` with the whole graph by one pass in edge order: each
  /// target takes exactly one attachment draw, since an odd slot copies
  /// the target of an earlier, already resolved edge.  Rows are laid out
  /// as for_each_neighbor enumerates them: out-targets in slot order,
  /// then in-sources in ascending edge order, repeats kept.  The caller
  /// checks the graph fits detail::kImplicitRowBudget.
  void fill_graph(RowCache& rows) const {
    std::vector<node_type> targets(m_);
    std::vector<std::uint64_t> lengths(n_, d_);
    for (std::uint64_t j = 0; j < m_; ++j) {
      const std::uint64_t r = attach_draw(j);
      targets[j] = r % 2 == 0 ? (r / 2) / d_ : targets[(r - 1) / 2];
      ++lengths[targets[j]];
    }
    rows.hold_graph(std::move(lengths), [&](auto push) {
      for (std::uint64_t j = 0; j < m_; ++j) {
        push(source_of(j), targets[j]);
      }
      for (std::uint64_t j = 0; j < m_; ++j) {
        push(targets[j], source_of(j));
      }
    });
  }

  std::uint64_t key(node_type u) const { return u; }

  void keys(std::span<const node_type> nodes,
            std::span<std::uint64_t> out) const {
    ANTDENSE_CHECK(nodes.size() == out.size(),
                   "key batching needs equal-sized spans");
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      out[i] = nodes[i];
    }
  }

  /// Enumerates u's neighbor multiset in a fixed deterministic order:
  /// first the targets of u's own d edges (ascending edge id), then the
  /// sources of every edge targeting u (ascending edge id).
  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    for (std::uint64_t j = u * d_; j < (u + 1) * d_; ++j) {
      fn(target_of(j));
    }
    for (std::uint64_t j = 0; j < m_; ++j) {
      if (target_of(j) == u) {
        fn(source_of(j));
      }
    }
  }

  std::string name() const {
    return "ba(n=" + std::to_string(n_) + ",d=" + std::to_string(d_) + ")";
  }

 private:
  /// Edge j's array position r, uniform in [0, 2j + 1): an even r holds
  /// edge (r/2)'s source, an odd one edge ((r-1)/2)'s target.
  std::uint64_t attach_draw(std::uint64_t j) const {
    rng::SplitMix64 gen(rng::derive_seed(attach_root_, j));
    return rng::uniform_below(gen, 2 * j + 1);
  }

  /// Whether `rows` holds the whole graph, filled on first use when it
  /// fits detail::kImplicitRowBudget.
  bool holds_graph(RowCache& rows) const {
    if (!rows.holds_graph() && detail::graph_fits_row_budget(n_, 2 * m_)) {
      fill_graph(rows);
    }
    return rows.holds_graph();
  }

  /// A uniform pick from `row` (length, then neighbors); every row holds
  /// at least d >= 1 entries.
  template <rng::BitGenerator64 G>
  static node_type pick(const std::uint64_t* row, G& gen) {
    return row[1 + rng::uniform_below(gen, row[0])];
  }

  /// One sweep over all m edge targets: gathers every in-edge of the
  /// chunk's distinct nodes as (target << 32) | source, sorted, which
  /// groups each node's in-row in ascending edge order (sources are
  /// non-decreasing in the edge id).  Both halves fit 32 bits since
  /// n <= 2^32.  Returns false when a chunk of several agents would
  /// hold more than the entry budget.
  bool collect_in_edges(std::span<const node_type> chunk,
                        std::vector<node_type>& nodes,
                        std::vector<std::uint64_t>& in_edges) const {
    nodes.assign(chunk.begin(), chunk.end());
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    const std::size_t room = detail::kImplicitRowBudget - nodes.size();
    in_edges.clear();
    for (std::uint64_t j = 0; j < m_; ++j) {
      const node_type t = target_of(j);
      if (std::binary_search(nodes.begin(), nodes.end(), t)) {
        if (in_edges.size() == room && chunk.size() > 1) {
          return false;
        }
        in_edges.push_back((t << 32) | source_of(j));
      }
    }
    std::sort(in_edges.begin(), in_edges.end());
    return true;
  }

  std::uint64_t n_;
  std::uint64_t d_;
  std::uint64_t seed_;
  std::uint64_t attach_root_;  // derive_seed(seed, kBaAttachTag)
  std::uint64_t m_ = 0;        // total edges n * d
};

static_assert(Topology<Ba>);

}  // namespace antdense::graph
