// The k-dimensional hypercube of Section 4.5: A = 2^k vertices labeled by
// bit strings, one random bit flip per step.  Despite the spectral gap
// shrinking as 1/log A, local mixing *improves* with A: re-collision
// probability <= (9/10)^(m-1) + 1/sqrt(A) (Lemma 25), so density
// estimation matches independent sampling.
#pragma once

#include <cstdint>
#include <string>

#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "util/check.hpp"

namespace antdense::graph {

class Hypercube {
 public:
  using node_type = std::uint64_t;  // bit i = coordinate i

  explicit Hypercube(std::uint32_t dimensions) : k_(dimensions) {
    ANTDENSE_CHECK(dimensions >= 1 && dimensions <= 63,
                   "hypercube dimension must be in [1,63]");
  }

  std::uint64_t num_nodes() const { return std::uint64_t{1} << k_; }
  std::uint64_t degree() const { return k_; }
  std::uint32_t dimensions() const { return k_; }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    return gen() & (num_nodes() - 1);
  }

  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen) const {
    const std::uint64_t bit = rng::uniform_below(gen, k_);
    return u ^ (std::uint64_t{1} << bit);
  }

  /// UniformPickTopology factoring of random_neighbor: pick the bit to
  /// flip, then a pure XOR step.
  std::uint64_t pick_bound() const { return k_; }
  node_type pick_step(node_type u, std::uint64_t pick) const {
    return u ^ (std::uint64_t{1} << pick);
  }

  std::uint64_t key(node_type u) const { return u; }

  /// Hamming distance, for tests.
  static std::uint32_t hamming(node_type a, node_type b) {
    return static_cast<std::uint32_t>(__builtin_popcountll(a ^ b));
  }

  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    for (std::uint32_t b = 0; b < k_; ++b) {
      fn(u ^ (std::uint64_t{1} << b));
    }
  }

  std::string name() const { return "hypercube(k=" + std::to_string(k_) + ")"; }

 private:
  std::uint32_t k_;
};

static_assert(Topology<Hypercube>);
static_assert(UniformPickTopology<Hypercube>);

}  // namespace antdense::graph
