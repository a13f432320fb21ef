// The ring (one-dimensional torus) of Section 4.2 — the paper's example
// of *weak* local mixing: re-collision probability decays only as
// 1/sqrt(m+1), so encounter-rate estimation converges like t^(-1/4)
// (Theorem 21) instead of ~t^(-1/2).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "util/check.hpp"

namespace antdense::graph {

namespace detail {

/// The ring's portable word-step body: out[j] is the node a walker at
/// in[j] reaches on a ring of `size` nodes when its generator word is
/// words[j] (top bit set = forward).  Branch-free: a delta of 1 or
/// size-1 (≡ -1 mod size) from a table, then a subtract of size masked
/// by the wrap test.  The spans may alias elementwise.
inline void ring_step_words_portable(std::uint64_t size,
                                     std::span<const std::uint64_t> in,
                                     std::span<std::uint64_t> out,
                                     const std::uint64_t* words) {
  // u + delta wraps iff u >= size - delta, which is the other delta.
  // Deciding on u, not on the sum, stays right on rings above 2^63
  // nodes, where the sum can carry out of 64 bits.
  const std::uint64_t delta[2] = {size - 1, 1};
  for (std::size_t j = 0; j < in.size(); ++j) {
    const std::uint64_t forward = words[j] >> 63;
    const std::uint64_t wrap =
        std::uint64_t{0} -
        static_cast<std::uint64_t>(in[j] >= delta[forward ^ 1]);
    out[j] = in[j] + delta[forward] - (size & wrap);
  }
}

}  // namespace detail

class Ring {
 public:
  using node_type = std::uint64_t;

  explicit Ring(std::uint64_t num_nodes) : size_(num_nodes) {
    ANTDENSE_CHECK(num_nodes >= 3, "ring requires at least 3 nodes");
  }

  std::uint64_t num_nodes() const { return size_; }
  std::uint64_t degree() const { return 2; }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    return rng::uniform_below(gen, size_);
  }

  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen) const {
    const bool forward = (gen() >> 63) != 0;
    return forward ? (u + 1 == size_ ? 0 : u + 1)
                   : (u == 0 ? size_ - 1 : u - 1);
  }

  /// Batched stepping: same generator stream as sequential
  /// random_neighbor calls, through step_words for any generator.
  /// `out[i]` replaces `in[i]`; the spans may alias elementwise.
  template <rng::BitGenerator64 G>
  void random_neighbors(std::span<const node_type> in,
                        std::span<node_type> out, G& gen) const {
    detail::step_word_blocks(*this, in, out, gen);
  }

  /// The ring's word-step kernel, shared by every engine: out[j] is the
  /// node random_neighbor(in[j], g) returns when g's next word is
  /// words[j] (detail::ring_step_words_portable).  Runs this CPU's body
  /// (util/simd.hpp): the AVX2 one, whose signed 64-bit compares need
  /// fewer than 2^62 nodes, when it applies.  The spans may alias
  /// elementwise.
  void step_words(std::span<const node_type> in, std::span<node_type> out,
                  const std::uint64_t* words) const;

  std::uint64_t key(node_type u) const { return u; }

  /// Wrap-aware distance, for tests.
  std::uint64_t distance(node_type a, node_type b) const {
    const std::uint64_t d = a > b ? a - b : b - a;
    return d < size_ - d ? d : size_ - d;
  }

  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    fn(u + 1 == size_ ? 0 : u + 1);
    fn(u == 0 ? size_ - 1 : u - 1);
  }

  std::string name() const { return "ring(" + std::to_string(size_) + ")"; }

 private:
  std::uint64_t size_;
};

static_assert(Topology<Ring>);

}  // namespace antdense::graph
