#include "graph/torus2d.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/simd.hpp"

namespace antdense::graph {

std::uint64_t Torus2D::l1_distance(node_type a, node_type b) const {
  const auto wrap_dist = [](std::uint32_t p, std::uint32_t q,
                            std::uint32_t side) {
    const std::uint32_t d = p > q ? p - q : q - p;
    return std::min(d, side - d);
  };
  return static_cast<std::uint64_t>(wrap_dist(x_of(a), x_of(b), width_)) +
         wrap_dist(y_of(a), y_of(b), height_);
}

namespace {

#if ANTDENSE_X86_SIMD
/// The AVX2 body of torus2d_step_words_portable, four words per
/// iteration; the portable body finishes the tail.  The coordinates
/// stay below 2^32 + 2^32, so signed 64-bit compares wrap them right.
ANTDENSE_TARGET_AVX2 void torus2d_step_words_avx2(
    std::uint64_t width, std::uint64_t height,
    std::span<const std::uint64_t> in, std::span<std::uint64_t> out,
    const std::uint64_t* words) {
  const __m256i vxmask = _mm256_set1_epi64x(0xFFFFFFFFLL);
  const __m256i vone = _mm256_set1_epi64x(1);
  const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(width));
  const __m256i vw1 = _mm256_set1_epi64x(static_cast<long long>(width - 1));
  const __m256i vh = _mm256_set1_epi64x(static_cast<long long>(height));
  const __m256i vh1 = _mm256_set1_epi64x(static_cast<long long>(height - 1));
  const __m256i d0 = _mm256_setzero_si256();
  const __m256i d2 = _mm256_set1_epi64x(2);
  const __m256i d3 = _mm256_set1_epi64x(3);
  std::size_t j = 0;
  for (; j + 4 <= in.size(); j += 4) {
    const __m256i u =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in.data() + j));
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + j));
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
    x = _mm256_sub_epi64(x, _mm256_and_si256(vw, _mm256_cmpgt_epi64(x, vw1)));
    y = _mm256_add_epi64(y, dy);
    y = _mm256_sub_epi64(y, _mm256_and_si256(vh, _mm256_cmpgt_epi64(y, vh1)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out.data() + j),
                        _mm256_or_si256(_mm256_slli_epi64(y, 32), x));
  }
  detail::torus2d_step_words_portable(width, height, in.subspan(j),
                                      out.subspan(j), words + j);
}

/// The AVX2 body of torus2d_keys_portable: y * width is one unsigned
/// 32x32 -> 64-bit multiply per lane, exact for every side below 2^32.
ANTDENSE_TARGET_AVX2 void torus2d_keys_avx2(
    std::uint64_t width, std::span<const std::uint64_t> nodes,
    std::span<std::uint64_t> out) {
  const __m256i vxmask = _mm256_set1_epi64x(0xFFFFFFFFLL);
  const __m256i vw = _mm256_set1_epi64x(static_cast<long long>(width));
  std::size_t i = 0;
  for (; i + 4 <= nodes.size(); i += 4) {
    const __m256i u = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(nodes.data() + i));
    const __m256i key =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(u, 32), vw),
                         _mm256_and_si256(u, vxmask));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out.data() + i), key);
  }
  detail::torus2d_keys_portable(width, nodes.subspan(i), out.subspan(i));
}
#endif

}  // namespace

void Torus2D::step_words(std::span<const node_type> in,
                         std::span<node_type> out,
                         const std::uint64_t* words) const {
#if ANTDENSE_X86_SIMD
  if (util::cpu_has_avx2()) {
    torus2d_step_words_avx2(width_, height_, in, out, words);
    return;
  }
#endif
  detail::torus2d_step_words_portable(width_, height_, in, out, words);
}

void Torus2D::keys(std::span<const node_type> nodes,
                   std::span<std::uint64_t> out) const {
#if ANTDENSE_X86_SIMD
  if (util::cpu_has_avx2()) {
    torus2d_keys_avx2(width_, nodes, out);
    return;
  }
#endif
  detail::torus2d_keys_portable(width_, nodes, out);
}

}  // namespace antdense::graph
