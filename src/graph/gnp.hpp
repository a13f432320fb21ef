// Implicit Erdős–Rényi G(n, p) — every unordered pair {u, v} is an edge
// independently with probability p, decided by comparing the pair's
// recomputable hash word implicit_hash::gnp_edge_word(seed, min, max)
// against a fixed 64-bit threshold.  Both endpoints recompute the same
// word, so the graph is symmetric by construction, and nothing is ever
// stored: the topology is O(1) memory at any n.
//
// The realized edge probability is threshold / 2^64 with threshold =
// round-toward-zero of p * 2^64 — a quantization of p below one part in
// 2^64, far under any statistical resolution.  The threshold is the
// product of one IEEE double ldexp/multiply at construction, so
// adjacency is bit-stable across platforms (pinned by
// tests/test_implicit_golden.cpp).
//
// Honest complexity note: unlike rgg2d there is no spatial structure to
// exploit, so enumerating a row scans all n-1 candidate pairs — O(n),
// not O(degree).  The scan hoists the row's own hash prefix: pairs
// above u cost one SplitMix64 mix, pairs below it two (the (seed, tag)
// prefix is hoisted into the constructor).  A single random_neighbor
// call enumerates once; churn's deflect steps that way, one scan per
// call.  Walk steps, batched or lazy, take the cached single step, which
// reads rows from the walk's graph::RowCache instead: a walk scans each
// node it visits once, and once it needs a third of the rows it fills
// the cache with the whole graph in one sweep of the upper triangle
// (fill_graph), each pair hashed once — about n^2/2 mixes, which the
// row scans (about 1.5n mixes each) would cost by then anyway.  After
// that a step is one draw.  The whole graph is held only while it fits
// detail::kImplicitRowBudget (2n + 2|E| words, about n * (2 + p * n) <=
// 2^16); past it the walk keeps scanning visited rows, and the cache
// restarts past the budget.  A graph expected to overflow it (p n (n-1)
// entries) is refused before the sweep, so a walk on one pays no
// sweep.  G(n, p) is therefore the
// exact-in-distribution reference family for small and moderate n
// (differential tests, campaign sweeps), not the massive-scale one;
// rgg2d fills that role.
//
// Degree is Binomial(n-1, p): degree() reports the nominal mean for the
// Topology concept, degree_of(u) the exact value.  Isolated nodes
// self-loop so the walk stays total.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/implicit_hash.hpp"
#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "rng/splitmix64.hpp"
#include "util/check.hpp"
#include "util/format.hpp"

namespace antdense::graph {

class Gnp {
 public:
  using node_type = std::uint64_t;

  Gnp(std::uint64_t num_nodes, double p, std::uint64_t seed)
      : n_(num_nodes),
        p_(p),
        seed_(seed),
        // gnp_edge_word(seed, a, b) == derive_seed(row_prefix(a), b) with
        // row_prefix(a) == derive_seed(edge_root_, a): derive_seed folds
        // its indices one at a time.
        edge_root_(rng::derive_seed(seed, implicit_hash::kGnpEdgeTag)) {
    ANTDENSE_CHECK(num_nodes >= 2, "gnp requires at least 2 nodes");
    ANTDENSE_CHECK(num_nodes <= (std::uint64_t{1} << 32),
                   "gnp supports at most 2^32 nodes");
    ANTDENSE_CHECK(p > 0.0 && p <= 1.0, "gnp p must be in (0, 1]");
    // Quantize p to a 64-bit acceptance threshold: edge iff word <
    // threshold.  p == 1 saturates (every word is below 2^64).
    all_edges_ = p >= 1.0;
    threshold_ = all_edges_
                     ? ~std::uint64_t{0}
                     : static_cast<std::uint64_t>(std::ldexp(p, 64));
  }

  std::uint64_t num_nodes() const { return n_; }
  /// Nominal (mean) degree p * (n - 1); degree_of(u) is exact.
  std::uint64_t degree() const {
    const auto nominal = static_cast<std::uint64_t>(
        std::llround(p_ * static_cast<double>(n_ - 1)));
    return nominal < 1 ? 1 : (nominal > n_ - 1 ? n_ - 1 : nominal);
  }
  double probability() const { return p_; }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t threshold() const { return threshold_; }

  /// Exact pairwise adjacency test: one hash word, one compare.
  bool connected(node_type u, node_type v) const {
    if (u == v) {
      return false;
    }
    const node_type a = u < v ? u : v;
    const node_type b = u < v ? v : u;
    return is_edge(rng::derive_seed(row_prefix(a), b));
  }

  /// Exact degree of u — O(n) row scan (see header note).
  std::uint64_t degree_of(node_type u) const {
    std::uint64_t count = 0;
    for_each_neighbor(u, [&count](node_type) { ++count; });
    return count;
  }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    return rng::uniform_below(gen, n_);
  }

  /// Uniform over N(u): one row scan, one uniform draw.  Isolated nodes
  /// self-loop without drawing.
  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen) const {
    return detail::sample_enumerated_neighbor(*this, u, gen);
  }

  /// One step through the walk's row cache, same draw as
  /// random_neighbor: u picks from its row in `rows` (see RowCache).
  /// When u's row is the first past a third of the graph, the step
  /// first fills the whole graph in (fill_graph).
  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen, RowCache& rows) const {
    if (may_fill(rows) && 3 * (rows.rows() + 1) >= n_ && !rows.holds(u)) {
      fill_graph(rows);
    }
    return pick(rows.row(*this, u), u, gen);
  }

  /// Batched stepping through the walk's row cache, same draws as
  /// sequential random_neighbor calls.  Before any row is enumerated,
  /// the batch fills the whole graph in once the rows the walk has
  /// needed (held rows plus the batch's distinct unheld ones) reach a
  /// third of the graph: from there the sweep costs no more than the
  /// row scans it replaces.  The spans may alias elementwise.
  template <rng::BitGenerator64 G>
  void random_neighbors(std::span<const node_type> in,
                        std::span<node_type> out, G& gen,
                        RowCache& rows) const {
    ANTDENSE_CHECK(in.size() == out.size(),
                   "bulk neighbor sampling needs equal-sized spans");
    if (may_fill(rows)) {
      std::vector<node_type> unheld;
      for (const node_type u : in) {
        if (!rows.holds(u)) {
          unheld.push_back(u);
        }
      }
      std::sort(unheld.begin(), unheld.end());
      const auto distinct = static_cast<std::uint64_t>(
          std::unique(unheld.begin(), unheld.end()) - unheld.begin());
      if (3 * (rows.rows() + distinct) >= n_) {
        fill_graph(rows);
      }
    }
    for (std::size_t i = 0; i < in.size(); ++i) {
      out[i] = pick(rows.row(*this, in[i]), in[i], gen);
    }
  }

  /// Fills `rows` with the whole graph by one sweep of the upper
  /// triangle, each pair hashed once with its row's prefix hoisted, so
  /// rows come out ascending, as for_each_neighbor enumerates them.  A
  /// graph past detail::kImplicitRowBudget is refused for the rest of
  /// the walk: unswept when its expected entries, p n (n - 1), already
  /// overflow the budget, else as soon as the sweep overflows it.
  void fill_graph(RowCache& rows) const {
    if (!detail::graph_fits_row_budget(n_, 0) ||
        !detail::graph_fits_row_budget(
            n_, static_cast<std::uint64_t>(p_ * static_cast<double>(n_) *
                                           static_cast<double>(n_ - 1)))) {
      rows.refuse_graph();
      return;
    }
    std::vector<std::uint64_t> lengths(n_);
    std::vector<std::uint64_t> edges;  // (a << 32) | b for a < b
    for (node_type a = 0; a < n_; ++a) {
      const std::uint64_t prefix = row_prefix(a);
      for (node_type b = a + 1; b < n_; ++b) {
        if (is_edge(rng::derive_seed(prefix, b))) {
          if (!detail::graph_fits_row_budget(n_, 2 * (edges.size() + 1))) {
            rows.refuse_graph();
            return;
          }
          edges.push_back((a << 32) | b);
          ++lengths[a];
          ++lengths[b];
        }
      }
    }
    rows.hold_graph(std::move(lengths), [&edges](auto push) {
      for (const std::uint64_t e : edges) {
        push(e >> 32, e & 0xFFFFFFFFULL);
        push(e & 0xFFFFFFFFULL, e >> 32);
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

  /// Enumerates N(u) in ascending node order.
  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    for (node_type v = 0; v < u; ++v) {
      if (is_edge(rng::derive_seed(row_prefix(v), u))) {
        fn(v);
      }
    }
    const std::uint64_t prefix = row_prefix(u);
    for (node_type v = u + 1; v < n_; ++v) {
      if (is_edge(rng::derive_seed(prefix, v))) {
        fn(v);
      }
    }
  }

  std::string name() const {
    return "gnp(n=" + std::to_string(n_) +
           ",p=" + util::format_shortest(p_) + ")";
  }

 private:
  /// Whether the walk may still fill `rows` with the whole graph: it
  /// has not yet, and the graph's offsets and lengths alone fit.
  bool may_fill(const RowCache& rows) const {
    return rows.may_hold_graph() && detail::graph_fits_row_budget(n_, 0);
  }

  /// A uniform pick from `row` (length, then neighbors); an empty row
  /// self-loops without drawing.
  template <rng::BitGenerator64 G>
  static node_type pick(const std::uint64_t* row, node_type u, G& gen) {
    return row[0] == 0 ? u : row[1 + rng::uniform_below(gen, row[0])];
  }

  /// Hash prefix shared by every pair {a, b} with a < b.
  std::uint64_t row_prefix(node_type a) const {
    return rng::derive_seed(edge_root_, a);
  }

  bool is_edge(std::uint64_t word) const {
    return all_edges_ || word < threshold_;
  }

  std::uint64_t n_;
  double p_;
  std::uint64_t seed_;
  std::uint64_t edge_root_;  // derive_seed(seed, kGnpEdgeTag)
  std::uint64_t threshold_ = 0;
  bool all_edges_ = false;
};

static_assert(Topology<Gnp>);

}  // namespace antdense::graph
