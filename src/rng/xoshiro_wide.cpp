#include "rng/xoshiro_wide.hpp"

#include "util/simd.hpp"

namespace antdense::rng {

namespace {

#if ANTDENSE_X86_SIMD
template <int K>
ANTDENSE_TARGET_AVX2 __m256i vrotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K),
                         _mm256_srli_epi64(x, 64 - K));
}
ANTDENSE_TARGET_AVX2 __m256i load(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
ANTDENSE_TARGET_AVX2 void store(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// The AVX2 body of XoshiroWide::generate_portable: each xoshiro state
/// word is two 4-lane vectors; one iteration emits kWideLanes words
/// with vector add/xor/shift/rotate.
ANTDENSE_TARGET_AVX2 void generate_avx2(XoshiroWide::State& state,
                                        std::uint64_t* dst,
                                        std::size_t count) {
  static_assert(kWideLanes == 8, "two 4-lane vectors per state word");
  __m256i s0a = load(state[0].data());
  __m256i s0b = load(state[0].data() + 4);
  __m256i s1a = load(state[1].data());
  __m256i s1b = load(state[1].data() + 4);
  __m256i s2a = load(state[2].data());
  __m256i s2b = load(state[2].data() + 4);
  __m256i s3a = load(state[3].data());
  __m256i s3b = load(state[3].data() + 4);
  for (std::size_t i = 0; i < count; i += kWideLanes) {
    const __m256i ra =
        _mm256_add_epi64(vrotl<23>(_mm256_add_epi64(s0a, s3a)), s0a);
    const __m256i rb =
        _mm256_add_epi64(vrotl<23>(_mm256_add_epi64(s0b, s3b)), s0b);
    store(dst + i, ra);
    store(dst + i + 4, rb);
    const __m256i ta = _mm256_slli_epi64(s1a, 17);
    const __m256i tb = _mm256_slli_epi64(s1b, 17);
    s2a = _mm256_xor_si256(s2a, s0a);
    s2b = _mm256_xor_si256(s2b, s0b);
    s3a = _mm256_xor_si256(s3a, s1a);
    s3b = _mm256_xor_si256(s3b, s1b);
    s1a = _mm256_xor_si256(s1a, s2a);
    s1b = _mm256_xor_si256(s1b, s2b);
    s0a = _mm256_xor_si256(s0a, s3a);
    s0b = _mm256_xor_si256(s0b, s3b);
    s2a = _mm256_xor_si256(s2a, ta);
    s2b = _mm256_xor_si256(s2b, tb);
    s3a = vrotl<45>(s3a);
    s3b = vrotl<45>(s3b);
  }
  store(state[0].data(), s0a);
  store(state[0].data() + 4, s0b);
  store(state[1].data(), s1a);
  store(state[1].data() + 4, s1b);
  store(state[2].data(), s2a);
  store(state[2].data() + 4, s2b);
  store(state[3].data(), s3a);
  store(state[3].data() + 4, s3b);
}
#endif

}  // namespace

void XoshiroWide::generate(std::uint64_t* dst, std::size_t count) {
#if ANTDENSE_X86_SIMD
  if (util::cpu_has_avx2()) {
    generate_avx2(state_, dst, count);
    return;
  }
#endif
  generate_portable(dst, count);
}

}  // namespace antdense::rng
