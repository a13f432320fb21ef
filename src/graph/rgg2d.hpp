// Implicit 2-D random geometric graph — the massive-scale spatial
// substrate (ants/robots in continuous space; Hindes et al.'s
// stochastic-sensing swarms are exactly this regime).
//
// Nodes are points on the unit *torus* [0,1)^2, and u ~ v iff their
// wrap-aware Euclidean distance is at most `radius`.  Nothing is ever
// materialized: node u's position is recomputed on demand from
// implicit_hash::rgg2d_jitter_word(seed, u), so the topology costs O(1)
// memory at any n and a billion-node ScenarioSpec walks in O(agents)
// total (tests/test_implicit_memory.cpp pins the RSS bound).
//
// Point process: stratified one-point-per-cell placement.  The square is
// divided into side x side cells (side = ceil(sqrt(n))); node u sits in
// cell (u % side, u / side) at a hash-derived uniform jitter inside the
// cell (ids >= n in the final row are simply absent).  Stratified
// placement is what makes neighbor queries O(expected degree): a radius-
// r ball overlaps O((r*side+1)^2) cells and each cell holds at most one
// recomputable point.  The expected degree matches the i.i.d. RGG's
// pi*r^2*n exactly (each foreign cell's point is uniform in its cell, so
// inclusion probabilities integrate to the ball area) — the variance is
// slightly *below* binomial, which the degree-distribution tests
// account for.  For perfect-square n the process is exactly uniform;
// otherwise the trailing partial cell row thins the top band.
//
// Query cost: one enumeration per step.  The (2*reach+1)^2 candidate
// window is walked with incremental wrap (no per-cell division); a cell
// row whose nearest point lies beyond the radius is skipped before its
// points are hashed, and each remaining point costs one SplitMix64 mix
// (the (seed, tag) prefix of its derivation is hoisted into the
// constructor).  random_neighbor enumerates the row once into a
// per-thread buffer and picks from it, so memory stays O(1) plus one
// row at any n.
//
// All geometry is integer: positions are 32.32-style fixed point (cell
// index in the high bits, jitter in the low 32), distances compare in
// unsigned 128-bit, and the only floating-point step is the one IEEE
// double multiplication radius * world_width at construction — so
// neighborhoods are bit-stable across platforms and releases
// (tests/test_implicit_golden.cpp).
//
// Degree is *near*-uniform, not uniform: degree() reports the nominal
// expected degree for the Topology concept, degree_of(u) the exact
// value.  Isolated nodes (possible for tiny radius) self-loop, keeping
// the walk total.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "graph/implicit_hash.hpp"
#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "rng/splitmix64.hpp"
#include "util/check.hpp"
#include "util/format.hpp"

namespace antdense::graph {

class Rgg2D {
 public:
  using node_type = std::uint64_t;

  /// Fixed-point position on the torus, in units of 1/(side * 2^32) of
  /// the unit square per axis.
  struct Position {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
  };

  Rgg2D(std::uint64_t num_nodes, double radius, std::uint64_t seed)
      : n_(num_nodes),
        radius_(radius),
        seed_(seed),
        // rgg2d_jitter_word(seed, u) == derive_seed(jitter_root_, u):
        // derive_seed folds its indices one at a time.
        jitter_root_(rng::derive_seed(seed, implicit_hash::kRgg2DJitterTag)) {
    ANTDENSE_CHECK(num_nodes >= 2, "rgg2d requires at least 2 nodes");
    ANTDENSE_CHECK(num_nodes <= (std::uint64_t{1} << 32),
                   "rgg2d supports at most 2^32 nodes");
    ANTDENSE_CHECK(radius > 0.0 && radius < 1.0,
                   "rgg2d radius must be in (0, 1)");
    side_ = integer_sqrt_ceil(num_nodes);
    world_ = side_ << kCellBits;
    // The one floating-point step: one correctly-rounded IEEE double
    // multiplication (world_ <= 2^48 is exactly representable), so the
    // integer threshold is platform-stable.
    threshold_ =
        static_cast<std::uint64_t>(radius * static_cast<double>(world_));
    threshold_sq_ = static_cast<unsigned __int128>(threshold_) * threshold_;
    reach_ = (threshold_ >> kCellBits) + 1;
  }

  std::uint64_t num_nodes() const { return n_; }
  /// Nominal (expected) degree pi * r^2 * n — the substrate is
  /// near-regular, not regular; degree_of(u) is the exact per-node value.
  std::uint64_t degree() const {
    const double expected =
        3.14159265358979323846 * radius_ * radius_ * static_cast<double>(n_);
    const auto nominal = static_cast<std::uint64_t>(std::llround(expected));
    return nominal < 1 ? 1 : (nominal > n_ - 1 ? n_ - 1 : nominal);
  }
  double radius() const { return radius_; }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t side() const { return side_; }
  /// Cells within Chebyshev distance reach() can hold neighbors.
  std::uint64_t reach() const { return reach_; }

  /// Node u's recomputed position: cell origin plus hash-derived jitter.
  Position position(node_type u) const {
    return cell_position(u % side_, u / side_, u);
  }

  /// Wrap-aware Euclidean adjacency test (exact, integer-only).
  bool connected(node_type u, node_type v) const {
    if (u == v) {
      return false;
    }
    return within_radius(position(u), position(v));
  }

  /// Exact degree of u, by scanning the O(reach^2) candidate cells.
  std::uint64_t degree_of(node_type u) const {
    std::uint64_t count = 0;
    for_each_neighbor(u, [&count](node_type) { ++count; });
    return count;
  }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    return rng::uniform_below(gen, n_);
  }

  /// Uniform over N(u), recomputed on the fly: one enumeration, one
  /// uniform draw.  Isolated nodes self-loop without drawing (the walk
  /// must stay total; for radii above the connectivity threshold
  /// isolation is vanishingly rare).
  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen) const {
    return detail::sample_enumerated_neighbor(*this, u, gen);
  }

  /// Batched stepping: same generator stream as sequential
  /// random_neighbor calls, as graph::random_neighbors requires.  Agents
  /// rarely share a node at the sizes rgg2d exists for, so rows are not
  /// shared across the batch.  The spans may alias elementwise.
  template <rng::BitGenerator64 G>
  void random_neighbors(std::span<const node_type> in,
                        std::span<node_type> out, G& gen) const {
    ANTDENSE_CHECK(in.size() == out.size(),
                   "bulk neighbor sampling needs equal-sized spans");
    for (std::size_t i = 0; i < in.size(); ++i) {
      out[i] = random_neighbor(in[i], gen);
    }
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

  /// Enumerates N(u) in a fixed deterministic order (cell-major over the
  /// candidate window).  O(reach^2) candidate cells = O(expected degree)
  /// work.
  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    const std::uint64_t cx = u % side_;
    const std::uint64_t cy = u / side_;
    const Position pu = cell_position(cx, cy, u);
    // Cell (ccx, ccy) holds node v (absent when v >= n).
    const auto visit = [&](std::uint64_t ccx, std::uint64_t ccy, node_type v) {
      if (v < n_ && v != u && within_radius(pu, cell_position(ccx, ccy, v))) {
        fn(v);
      }
    };
    if (2 * reach_ + 1 >= side_) {
      // The window wraps onto itself: scan every cell exactly once.
      for (std::uint64_t y = 0; y < side_; ++y) {
        for (std::uint64_t x = 0; x < side_; ++x) {
          visit(x, y, y * side_ + x);
        }
      }
      return;
    }
    // The window does not wrap onto itself (side >= 2*reach + 2), so the
    // torus distance to a cell row at window offset k is along that
    // offset, and cell_gap bounds it from below: a row whose gap is
    // beyond the radius cannot hold a neighbor and is never hashed.
    // (A per-cell test costs more in mispredicted branches than the
    // hashes it saves.)
    const std::uint64_t jy = pu.y & kJitterMask;
    const std::uint64_t x0 = (cx + side_ - reach_) % side_;
    std::uint64_t ccy = (cy + side_ - reach_) % side_;
    for (std::uint64_t dy = 0; dy <= 2 * reach_; ++dy) {
      const unsigned __int128 gap_y_sq = square(cell_gap(dy, jy));
      if (gap_y_sq <= threshold_sq_) {
        const node_type row = ccy * side_;
        std::uint64_t ccx = x0;
        for (std::uint64_t dx = 0; dx <= 2 * reach_; ++dx) {
          visit(ccx, ccy, row + ccx);
          ccx = ccx + 1 == side_ ? 0 : ccx + 1;
        }
      }
      ccy = ccy + 1 == side_ ? 0 : ccy + 1;
    }
  }

  std::string name() const {
    return "rgg2d(n=" + std::to_string(n_) +
           ",r=" + util::format_shortest(radius_) + ")";
  }

 private:
  static constexpr std::uint32_t kCellBits = 32;
  static constexpr std::uint64_t kJitterMask = 0xFFFFFFFFULL;

  static std::uint64_t integer_sqrt_ceil(std::uint64_t n) {
    auto s = static_cast<std::uint64_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
    // Correct any floating-point slop: smallest s with s*s >= n.
    while (s > 0 && (s - 1) * (s - 1) >= n) {
      --s;
    }
    while (s * s < n) {
      ++s;
    }
    return s;
  }

  /// Position of node v, which sits in cell (cx, cy): the cell origin
  /// plus its jitter word (low half x, high half y).
  Position cell_position(std::uint64_t cx, std::uint64_t cy,
                         node_type v) const {
    const std::uint64_t w = rng::derive_seed(jitter_root_, v);
    return Position{(cx << kCellBits) | (w & kJitterMask),
                    (cy << kCellBits) | (w >> 32)};
  }

  /// Lower bound on the axis distance from a point at in-cell jitter j
  /// to any point of the cells at window index i (offset i - reach).
  std::uint64_t cell_gap(std::uint64_t i, std::uint64_t j) const {
    if (i > reach_) {
      return ((i - reach_) << kCellBits) - j;
    }
    return i < reach_ ? ((reach_ - i - 1) << kCellBits) + j : 0;
  }

  static unsigned __int128 square(std::uint64_t d) {
    return static_cast<unsigned __int128>(d) * d;
  }

  std::uint64_t axis_distance(std::uint64_t a, std::uint64_t b) const {
    const std::uint64_t d = a > b ? a - b : b - a;
    return d <= world_ - d ? d : world_ - d;
  }

  bool within_radius(const Position& a, const Position& b) const {
    const std::uint64_t dx = axis_distance(a.x, b.x);
    const std::uint64_t dy = axis_distance(a.y, b.y);
    return square(dx) + square(dy) <= threshold_sq_;
  }

  std::uint64_t n_;
  double radius_;
  std::uint64_t seed_;
  std::uint64_t jitter_root_;    // derive_seed(seed, kRgg2DJitterTag)
  std::uint64_t side_ = 0;       // cells per axis
  std::uint64_t world_ = 0;      // torus width in fixed-point units
  std::uint64_t threshold_ = 0;  // radius in fixed-point units
  unsigned __int128 threshold_sq_ = 0;
  std::uint64_t reach_ = 0;      // candidate-cell Chebyshev radius
};

static_assert(Topology<Rgg2D>);

}  // namespace antdense::graph
