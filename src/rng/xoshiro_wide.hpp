// Wide (multi-lane) xoshiro256++ generation for the vector walk engine
// (sim/vector_walk.hpp): kWideLanes independent xoshiro256++ streams
// advanced in lockstep over structure-of-arrays state, emitting their
// outputs lane-interleaved.  This turns the per-agent "call the scalar
// generator" hot-path cost into one wide update per kWideLanes words —
// the batched recomputable-randomness idea KaGen-style generators use,
// applied to the round loop.
//
// Stream contract (pinned in tests/test_rng_wide.cpp):
//   - Lane l of XoshiroWide(root) is bit-identical to
//     Xoshiro256pp(derive_seed(root, kVectorLaneTag, l)) — lane streams
//     are ordinary scalar streams at domain-tagged derived seeds, so
//     their independence story is exactly the shard-stream one
//     (rng/stream.hpp).
//   - The emitted word sequence is lane-interleaved: word i of the
//     stream comes from lane (i mod kWideLanes), draw (i / kWideLanes).
//   - generate() and generate_portable() produce identical words.
//     generate() runs an AVX2 body on CPUs that have it
//     (util/simd.hpp); which body ran is never an identity:
//     vector-engine goldens hold on every host.
//
// WideStream adapts the block generator to the BitGenerator64 concept
// (buffered operator()) plus a bulk fill(), so scalar draw algorithms
// (Lemire rejection, bernoulli, placement) and vector step kernels can
// consume the *same* word sequence in the same order.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"

namespace antdense::rng {

/// Lane count of the wide generator.  8 lanes = two 4x64-bit AVX2
/// registers per state word, and a convenient unroll for the portable
/// fallback.  Part of the stream contract: changing it re-goldens the
/// vector engine.
inline constexpr std::size_t kWideLanes = 8;

/// Domain-separation tag for vector-engine lane streams ("VECLANES"):
/// keeps lane seeds disjoint from shard streams (kShardStreamTag),
/// trial seeds, and the 0x51/0x52 driver tags.
inline constexpr std::uint64_t kVectorLaneTag = 0x5645434C414E4553ULL;

/// kWideLanes xoshiro256++ streams advanced in lockstep.  State is
/// stored lane-major per word (SoA) so both the portable loop and the
/// AVX2 body touch contiguous memory.
class XoshiroWide {
 public:
  /// The lane-major state: State[w][l] is state word w of lane l.
  using State = std::array<std::array<std::uint64_t, kWideLanes>, 4>;

  explicit XoshiroWide(std::uint64_t root) {
    for (std::size_t l = 0; l < kWideLanes; ++l) {
      const Xoshiro256pp lane(derive_seed(root, kVectorLaneTag,
                                          static_cast<std::uint64_t>(l)));
      for (int w = 0; w < 4; ++w) {
        state_[w][l] = lane.state()[w];
      }
    }
  }

  /// Writes `count` words (a multiple of kWideLanes) lane-interleaved
  /// into `dst`, advancing every lane count / kWideLanes draws: the AVX2
  /// body on CPUs that have it, else generate_portable.
  void generate(std::uint64_t* dst, std::size_t count);

  /// The unrolled-u64-lane fallback, compiled on every platform.  The
  /// SIMD/fallback equality contract: generate() == generate_portable()
  /// word for word from equal states (tests/test_rng_wide.cpp).
  void generate_portable(std::uint64_t* dst, std::size_t count) {
    std::uint64_t s0[kWideLanes];
    std::uint64_t s1[kWideLanes];
    std::uint64_t s2[kWideLanes];
    std::uint64_t s3[kWideLanes];
    std::memcpy(s0, state_[0].data(), sizeof(s0));
    std::memcpy(s1, state_[1].data(), sizeof(s1));
    std::memcpy(s2, state_[2].data(), sizeof(s2));
    std::memcpy(s3, state_[3].data(), sizeof(s3));
    for (std::size_t i = 0; i < count; i += kWideLanes) {
      for (std::size_t l = 0; l < kWideLanes; ++l) {
        dst[i + l] = rotl(s0[l] + s3[l], 23) + s0[l];
      }
      for (std::size_t l = 0; l < kWideLanes; ++l) {
        const std::uint64_t t = s1[l] << 17;
        s2[l] ^= s0[l];
        s3[l] ^= s1[l];
        s1[l] ^= s2[l];
        s0[l] ^= s3[l];
        s2[l] ^= t;
        s3[l] = rotl(s3[l], 45);
      }
    }
    std::memcpy(state_[0].data(), s0, sizeof(s0));
    std::memcpy(state_[1].data(), s1, sizeof(s1));
    std::memcpy(state_[2].data(), s2, sizeof(s2));
    std::memcpy(state_[3].data(), s3, sizeof(s3));
  }

  /// Lane l's state, for the lane-equality tests.
  std::array<std::uint64_t, 4> lane_state(std::size_t lane) const {
    return {state_[0][lane], state_[1][lane], state_[2][lane],
            state_[3][lane]};
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  State state_;
};

/// Buffered adapter over XoshiroWide: a single flat word stream that can
/// be consumed one word at a time (operator(), satisfying BitGenerator64
/// so every scalar draw helper works unchanged) or in bulk (fill(), used
/// by the vector step kernels).  Both paths pop the same sequence in
/// order, so mixing them is well-defined — the property that lets the
/// vector engine run scalar Lemire rejection and wide step kernels off
/// one reproducible stream.
class WideStream {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kBufferWords = 256;
  static_assert(kBufferWords % kWideLanes == 0);

  explicit WideStream(std::uint64_t root) : wide_(root) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  std::uint64_t operator()() {
    if (pos_ == filled_) {
      wide_.generate(buffer_, kBufferWords);
      filled_ = kBufferWords;
      pos_ = 0;
    }
    return buffer_[pos_++];
  }

  /// Pops out.size() words in stream order: buffered words first, then
  /// whole wide blocks straight into `out`, then a fresh buffer for the
  /// tail.  Equivalent to out.size() operator() calls.
  void fill(std::span<std::uint64_t> out) {
    std::size_t done = 0;
    const std::size_t n = out.size();
    while (done < n && pos_ < filled_) {
      out[done++] = buffer_[pos_++];
    }
    const std::size_t direct = ((n - done) / kWideLanes) * kWideLanes;
    if (direct > 0) {
      wide_.generate(out.data() + done, direct);
      done += direct;
    }
    while (done < n) {
      if (pos_ == filled_) {
        wide_.generate(buffer_, kBufferWords);
        filled_ = kBufferWords;
        pos_ = 0;
      }
      out[done++] = buffer_[pos_++];
    }
  }

 private:
  XoshiroWide wide_;
  std::uint64_t buffer_[kBufferWords];
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
};

}  // namespace antdense::rng
