#include "graph/ring.hpp"

#include "util/simd.hpp"

namespace antdense::graph {

namespace {

#if ANTDENSE_X86_SIMD
/// The AVX2 body of detail::ring_step_words_portable, four words per
/// iteration;
/// the portable body finishes the tail.  Signed 64-bit compares: needs
/// size < 2^62.
ANTDENSE_TARGET_AVX2 void ring_step_words_avx2(
    std::uint64_t size, std::span<const std::uint64_t> in,
    std::span<std::uint64_t> out, const std::uint64_t* words) {
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vone = _mm256_set1_epi64x(1);
  const __m256i vsize = _mm256_set1_epi64x(static_cast<long long>(size));
  const __m256i vsize1 = _mm256_set1_epi64x(static_cast<long long>(size - 1));
  std::size_t j = 0;
  for (; j + 4 <= in.size(); j += 4) {
    const __m256i u =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in.data() + j));
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + j));
    // Top bit set (word "negative") means forward: delta 1.
    const __m256i fwd = _mm256_cmpgt_epi64(vzero, w);
    __m256i v = _mm256_add_epi64(u, _mm256_blendv_epi8(vsize1, vone, fwd));
    v = _mm256_sub_epi64(
        v, _mm256_and_si256(vsize, _mm256_cmpgt_epi64(v, vsize1)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out.data() + j), v);
  }
  detail::ring_step_words_portable(size, in.subspan(j), out.subspan(j),
                                   words + j);
}
#endif

}  // namespace

void Ring::step_words(std::span<const node_type> in, std::span<node_type> out,
                      const std::uint64_t* words) const {
#if ANTDENSE_X86_SIMD
  if (size_ < (std::uint64_t{1} << 62) && util::cpu_has_avx2()) {
    ring_step_words_avx2(size_, in, out, words);
    return;
  }
#endif
  detail::ring_step_words_portable(size_, in, out, words);
}

}  // namespace antdense::graph
