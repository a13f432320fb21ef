// The k-dimensional torus of Section 4.3.  For k >= 3 local mixing is so
// strong (re-collision probability ~ 1/(m+1)^(k/2), Lemma 22) that
// encounter-rate density estimation matches independent sampling up to
// constants, even though the *global* mixing time is still ~A^(2/k).
//
// Nodes pack k coordinates (each < side) into a uint64, `bits` bits per
// dimension; k * bits must fit in 64.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "util/check.hpp"

namespace antdense::graph {

class TorusKD {
 public:
  using node_type = std::uint64_t;

  TorusKD(std::uint32_t dimensions, std::uint32_t side)
      : k_(dimensions), side_(side) {
    ANTDENSE_CHECK(dimensions >= 1 && dimensions <= 16,
                   "dimensions must be in [1,16]");
    ANTDENSE_CHECK(side >= 2, "side length must be at least 2");
    bits_ = std::bit_width(static_cast<std::uint32_t>(side - 1));
    if (bits_ == 0) bits_ = 1;
    ANTDENSE_CHECK(static_cast<std::uint64_t>(bits_) * k_ <= 64,
                   "k * bits-per-dimension must fit in 64 bits");
    mask_ = (bits_ == 64) ? ~std::uint64_t{0}
                          : ((std::uint64_t{1} << bits_) - 1);
    num_nodes_ = 1;
    for (std::uint32_t i = 0; i < k_; ++i) {
      num_nodes_ *= side_;
    }
  }

  std::uint64_t num_nodes() const { return num_nodes_; }
  std::uint64_t degree() const { return 2ULL * k_; }
  std::uint32_t dimensions() const { return k_; }
  std::uint32_t side() const { return side_; }

  std::uint32_t coordinate(node_type u, std::uint32_t dim) const {
    ANTDENSE_CHECK(dim < k_, "dimension out of range");
    return static_cast<std::uint32_t>((u >> (dim * bits_)) & mask_);
  }

  node_type make_node(const std::vector<std::uint32_t>& coords) const {
    ANTDENSE_CHECK(coords.size() == k_, "coordinate count must equal k");
    node_type u = 0;
    for (std::uint32_t d = 0; d < k_; ++d) {
      ANTDENSE_CHECK(coords[d] < side_, "coordinate out of range");
      u |= static_cast<std::uint64_t>(coords[d]) << (d * bits_);
    }
    return u;
  }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    node_type u = 0;
    for (std::uint32_t d = 0; d < k_; ++d) {
      u |= rng::uniform_below(gen, side_) << (d * bits_);
    }
    return u;
  }

  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen) const {
    const std::uint64_t pick = rng::uniform_below(gen, 2ULL * k_);
    const auto dim = static_cast<std::uint32_t>(pick >> 1);
    const bool forward = (pick & 1) != 0;
    return step(u, dim, forward);
  }

  /// UniformPickTopology factoring of random_neighbor: a 2k-way pick
  /// (dimension in the high bits, direction in bit 0) then a pure step.
  std::uint64_t pick_bound() const { return 2ULL * k_; }
  node_type pick_step(node_type u, std::uint64_t pick) const {
    return step(u, static_cast<std::uint32_t>(pick >> 1), (pick & 1) != 0);
  }

  node_type step(node_type u, std::uint32_t dim, bool forward) const {
    const std::uint32_t shift = dim * bits_;
    auto c = static_cast<std::uint32_t>((u >> shift) & mask_);
    if (forward) {
      c = (c + 1 == side_) ? 0 : c + 1;
    } else {
      c = (c == 0) ? side_ - 1 : c - 1;
    }
    return (u & ~(mask_ << shift)) | (static_cast<std::uint64_t>(c) << shift);
  }

  std::uint64_t key(node_type u) const {
    // Mixed-radix index: dense in [0, num_nodes).
    std::uint64_t idx = 0;
    for (std::uint32_t d = k_; d-- > 0;) {
      idx = idx * side_ + coordinate(u, d);
    }
    return idx;
  }

  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    for (std::uint32_t d = 0; d < k_; ++d) {
      fn(step(u, d, true));
      fn(step(u, d, false));
    }
  }

  std::string name() const {
    return "torus" + std::to_string(k_) + "d(side=" + std::to_string(side_) +
           ")";
  }

 private:
  std::uint32_t k_;
  std::uint32_t side_;
  std::uint32_t bits_ = 0;
  std::uint64_t mask_ = 0;
  std::uint64_t num_nodes_ = 0;
};

static_assert(Topology<TorusKD>);
static_assert(UniformPickTopology<TorusKD>);

}  // namespace antdense::graph
