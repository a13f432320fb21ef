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

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace antdense::graph {

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
  /// words[j] (two top bits = the direction).  Branch-free: per-
  /// direction deltas (+1, or width-1 / height-1 ≡ -1 mod size) from a
  /// table, added to the unpacked coordinates in 64 bits — so sides up
  /// to 2^32-1 cannot overflow — then a conditional subtract (a select,
  /// not a branch) wraps each.
  /// The spans may alias elementwise.
  void step_words(std::span<const node_type> in, std::span<node_type> out,
                  const std::uint64_t* words) const {
    const std::uint64_t width = width_;
    const std::uint64_t height = height_;
    std::size_t j = 0;
#if defined(__AVX2__)
    {
      const __m256i vxmask = _mm256_set1_epi64x(0xFFFFFFFFLL);
      const __m256i vone = _mm256_set1_epi64x(1);
      const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(width));
      const __m256i vw1 =
          _mm256_set1_epi64x(static_cast<long long>(width - 1));
      const __m256i vh = _mm256_set1_epi64x(static_cast<long long>(height));
      const __m256i vh1 =
          _mm256_set1_epi64x(static_cast<long long>(height - 1));
      const __m256i d0 = _mm256_setzero_si256();
      const __m256i d2 = _mm256_set1_epi64x(2);
      const __m256i d3 = _mm256_set1_epi64x(3);
      for (; j + 4 <= in.size(); j += 4) {
        const __m256i u = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(in.data() + j));
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(words + j));
        const __m256i dir = _mm256_srli_epi64(w, 62);
        __m256i x = _mm256_and_si256(u, vxmask);
        __m256i y = _mm256_srli_epi64(u, 32);
        // The delta table as masked selects: dx = {1, width-1, 0, 0},
        // dy = {0, 0, 1, height-1} by direction.
        const __m256i dx = _mm256_or_si256(
            _mm256_and_si256(_mm256_cmpeq_epi64(dir, d0), vone),
            _mm256_and_si256(_mm256_cmpeq_epi64(dir, vone), vw1));
        const __m256i dy = _mm256_or_si256(
            _mm256_and_si256(_mm256_cmpeq_epi64(dir, d2), vone),
            _mm256_and_si256(_mm256_cmpeq_epi64(dir, d3), vh1));
        x = _mm256_add_epi64(x, dx);
        x = _mm256_sub_epi64(
            x, _mm256_and_si256(vw, _mm256_cmpgt_epi64(x, vw1)));
        y = _mm256_add_epi64(y, dy);
        y = _mm256_sub_epi64(
            y, _mm256_and_si256(vh, _mm256_cmpgt_epi64(y, vh1)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out.data() + j),
                            _mm256_or_si256(_mm256_slli_epi64(y, 32), x));
      }
    }
#endif
    const std::uint64_t dx[4] = {1, width - 1, 0, 0};
    const std::uint64_t dy[4] = {0, 0, 1, height - 1};
    for (; j < in.size(); ++j) {
      const std::uint64_t dir = words[j] >> 62;
      std::uint64_t x = (in[j] & 0xFFFFFFFFULL) + dx[dir];
      std::uint64_t y = (in[j] >> 32) + dy[dir];
      x = x >= width ? x - width : x;
      y = y >= height ? y - height : y;
      out[j] = (y << 32) | x;
    }
  }

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
static_assert(BulkTopology<Torus2D>);

}  // namespace antdense::graph
