// Runtime instruction-set dispatch for the walk kernels.
//
// Each kernel with a SIMD body — the ring and torus2d word steps, the
// torus2d key batch, the wide generator's block fill and the churn
// prefilter's block test — keeps its portable body, callable on its own
// as a detail:: function, and adds an AVX2 body compiled with the
// `target("avx2")` function attribute, so every build carries both and
// no compiler flag selects one.  cpu_has_avx2() reads the CPU's feature
// bits once per process; a kernel asks it once per block of work (a
// 256-word step block, a generator fill, a 256-key prefilter block),
// never per agent.  The bodies are bit-identical
// (tests/test_simd_dispatch.cpp runs both on the same inputs), so the
// choice changes speed, never a result.
//
// Only translation units that define an AVX2 body include this header;
// the AVX2 bodies are compiled only where the intrinsics exist (x86 with
// a GCC-compatible compiler), and elsewhere every kernel is portable.
#pragma once

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define ANTDENSE_X86_SIMD 1
#define ANTDENSE_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define ANTDENSE_X86_SIMD 0
#endif

namespace antdense::util {

/// Whether this CPU executes AVX2, read once per process.
inline bool cpu_has_avx2() {
#if ANTDENSE_X86_SIMD
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace antdense::util
