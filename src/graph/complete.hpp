// The complete graph K_A — the paper's independent-sampling reference
// point (Section 1.1).  Every step goes to a uniformly random *other*
// node, so collisions are (essentially) independent Bernoulli samples and
// the Chernoff bound applies directly.
#pragma once

#include <cstdint>
#include <string>

#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "util/check.hpp"

namespace antdense::graph {

class CompleteGraph {
 public:
  using node_type = std::uint64_t;

  explicit CompleteGraph(std::uint64_t num_nodes) : size_(num_nodes) {
    ANTDENSE_CHECK(num_nodes >= 2, "complete graph requires >= 2 nodes");
  }

  std::uint64_t num_nodes() const { return size_; }
  std::uint64_t degree() const { return size_ - 1; }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    return rng::uniform_below(gen, size_);
  }

  /// Uniform over the A-1 nodes other than u.
  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen) const {
    const std::uint64_t r = rng::uniform_below(gen, size_ - 1);
    return r >= u ? r + 1 : r;
  }

  /// UniformPickTopology factoring of random_neighbor: pick among the
  /// A-1 other nodes, then skip past u.
  std::uint64_t pick_bound() const { return size_ - 1; }
  node_type pick_step(node_type u, std::uint64_t pick) const {
    return pick >= u ? pick + 1 : pick;
  }

  std::uint64_t key(node_type u) const { return u; }

  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    for (std::uint64_t v = 0; v < size_; ++v) {
      if (v != u) fn(v);
    }
  }

  std::string name() const {
    return "complete(" + std::to_string(size_) + ")";
  }

 private:
  std::uint64_t size_;
};

static_assert(Topology<CompleteGraph>);
static_assert(UniformPickTopology<CompleteGraph>);

}  // namespace antdense::graph
