// The two-dimensional torus — the paper's primary model (Section 2).
//
// Nodes are (x, y) coordinates with 0 <= x < width, 0 <= y < height,
// packed into a single uint64 (x in the low 32 bits).  A random-walk step
// moves to one of the four axis neighbors chosen uniformly; coordinates
// wrap around.  The paper uses a square sqrt(A) x sqrt(A) torus; this
// class supports rectangles, and square(side) is the paper's case.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "util/check.hpp"

namespace antdense::graph {

namespace detail {

/// The torus's portable word-step body: out[j] is the node a walker at
/// in[j] reaches on a width x height torus when its generator word is
/// words[j] (two top bits = the direction).  Branch-free: per-direction
/// deltas (+1, or width-1 / height-1 ≡ -1 mod size) from a table, added
/// to the unpacked coordinates in 64 bits — so sides up to 2^32-1
/// cannot overflow — then a conditional subtract (a select, not a
/// branch) wraps each.  The spans may alias elementwise.
inline void torus2d_step_words_portable(std::uint64_t width,
                                        std::uint64_t height,
                                        std::span<const std::uint64_t> in,
                                        std::span<std::uint64_t> out,
                                        const std::uint64_t* words) {
  const std::uint64_t dx[4] = {1, width - 1, 0, 0};
  const std::uint64_t dy[4] = {0, 0, 1, height - 1};
  for (std::size_t j = 0; j < in.size(); ++j) {
    const std::uint64_t dir = words[j] >> 62;
    std::uint64_t x = (in[j] & 0xFFFFFFFFULL) + dx[dir];
    std::uint64_t y = (in[j] >> 32) + dy[dir];
    x = x >= width ? x - width : x;
    y = y >= height ? y - height : y;
    out[j] = (y << 32) | x;
  }
}

/// The torus's portable key body: out[i] = y * width + x of the packed
/// node nodes[i].
inline void torus2d_keys_portable(std::uint64_t width,
                                  std::span<const std::uint64_t> nodes,
                                  std::span<std::uint64_t> out) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    out[i] = (nodes[i] >> 32) * width + (nodes[i] & 0xFFFFFFFFULL);
  }
}

}  // namespace detail

class Torus2D {
 public:
  using node_type = std::uint64_t;  // packed (y << 32) | x

  Torus2D(std::uint32_t width, std::uint32_t height)
      : width_(width), height_(height) {
    ANTDENSE_CHECK(width >= 2 && height >= 2,
                   "torus dimensions must be at least 2x2");
  }

  static Torus2D square(std::uint32_t side) { return Torus2D(side, side); }

  std::uint64_t num_nodes() const {
    return static_cast<std::uint64_t>(width_) * height_;
  }
  std::uint64_t degree() const { return 4; }
  std::uint32_t width() const { return width_; }
  std::uint32_t height() const { return height_; }

  static node_type pack(std::uint32_t x, std::uint32_t y) {
    return (static_cast<std::uint64_t>(y) << 32) | x;
  }
  static std::uint32_t x_of(node_type u) {
    return static_cast<std::uint32_t>(u & 0xFFFFFFFFULL);
  }
  static std::uint32_t y_of(node_type u) {
    return static_cast<std::uint32_t>(u >> 32);
  }

  node_type make_node(std::uint32_t x, std::uint32_t y) const {
    ANTDENSE_CHECK(x < width_ && y < height_, "coordinates out of range");
    return pack(x, y);
  }

  template <rng::BitGenerator64 G>
  node_type random_node(G& gen) const {
    const auto x =
        static_cast<std::uint32_t>(rng::uniform_below(gen, width_));
    const auto y =
        static_cast<std::uint32_t>(rng::uniform_below(gen, height_));
    return pack(x, y);
  }

  /// One step of the paper's random walk: uniform over {+x, -x, +y, -y}.
  template <rng::BitGenerator64 G>
  node_type random_neighbor(node_type u, G& gen) const {
    const std::uint64_t dir = gen() >> 62;  // two uniform bits
    return step(u, static_cast<int>(dir));
  }

  /// Batched stepping: same generator stream as sequential
  /// random_neighbor calls, through step_words for any generator.
  /// `out[i]` replaces `in[i]`; the spans may alias elementwise.
  template <rng::BitGenerator64 G>
  void random_neighbors(std::span<const node_type> in,
                        std::span<node_type> out, G& gen) const {
    detail::step_word_blocks(*this, in, out, gen);
  }

  /// The torus's word-step kernel, shared by every engine: out[j] is
  /// the node random_neighbor(in[j], g) returns when g's next word is
  /// words[j] (detail::torus2d_step_words_portable).  Runs this CPU's
  /// body (util/simd.hpp).  The spans may alias elementwise.
  void step_words(std::span<const node_type> in, std::span<node_type> out,
                  const std::uint64_t* words) const;

  /// Deterministic step, dir in {0:+x, 1:-x, 2:+y, 3:-y}.  Exposed for
  /// the displacement experiments and for the independent-sampling
  /// baseline (Algorithm 4), which walks a fixed pattern.
  node_type step(node_type u, int dir) const {
    std::uint32_t x = x_of(u);
    std::uint32_t y = y_of(u);
    switch (dir & 3) {
      case 0:
        x = (x + 1 == width_) ? 0 : x + 1;
        break;
      case 1:
        x = (x == 0) ? width_ - 1 : x - 1;
        break;
      case 2:
        y = (y + 1 == height_) ? 0 : y + 1;
        break;
      default:
        y = (y == 0) ? height_ - 1 : y - 1;
        break;
    }
    return pack(x, y);
  }

  std::uint64_t key(node_type u) const {
    return static_cast<std::uint64_t>(y_of(u)) * width_ + x_of(u);
  }
  /// Batched key(): out[i] = key(nodes[i]) (graph::node_keys), on this
  /// CPU's body (detail::torus2d_keys_portable or AVX2).
  void keys(std::span<const node_type> nodes,
            std::span<std::uint64_t> out) const;

  /// Torus (wrap-aware) L1 distance between nodes; used by tests and the
  /// swarm dispersion demo.
  std::uint64_t l1_distance(node_type a, node_type b) const;

  template <typename Fn>
  void for_each_neighbor(node_type u, Fn&& fn) const {
    for (int dir = 0; dir < 4; ++dir) {
      fn(step(u, dir));
    }
  }

  std::string name() const {
    return "torus2d(" + std::to_string(width_) + "x" +
           std::to_string(height_) + ")";
  }

 private:
  std::uint32_t width_;
  std::uint32_t height_;
};

static_assert(Topology<Torus2D>);

}  // namespace antdense::graph
