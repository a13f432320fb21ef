// Pins the wide-generation contract of rng/xoshiro_wide.hpp:
//   - lane l of XoshiroWide(root) IS the scalar xoshiro256++ stream at
//     derive_seed(root, kVectorLaneTag, l), bit for bit;
//   - the emitted sequence is lane-interleaved in draw order;
//   - generate() (the AVX2 body on a CPU that has it, else the portable
//     one) equals generate_portable() word for word — the SIMD/fallback
//     equality contract the vector engine's goldens rest on
//     (tests/test_simd_dispatch.cpp covers odd counts and buffer edges);
//   - WideStream is one flat sequence: operator() and fill() pops in any
//     mix produce the same words in the same order;
//   - golden pin of the first words at a fixed seed, so a silent change
//     to seeding, lane count, or the update cannot slip through;
// plus the batched Lemire helper (rng::uniform_below_batch): equal to
// sequential uniform_below draws even when rejection forces the replay
// path.
#include "rng/xoshiro_wide.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rng/random.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256pp.hpp"

namespace antdense::rng {
namespace {

constexpr std::uint64_t kRoot = 0xC0FFEE5EEDULL;

TEST(XoshiroWide, LanesAreScalarStreamsAtDerivedSeeds) {
  XoshiroWide wide(kRoot);
  constexpr std::size_t kDraws = 64;  // per lane
  std::vector<std::uint64_t> words(kDraws * kWideLanes);
  wide.generate(words.data(), words.size());
  for (std::size_t l = 0; l < kWideLanes; ++l) {
    Xoshiro256pp scalar(derive_seed(kRoot, kVectorLaneTag, l));
    for (std::size_t d = 0; d < kDraws; ++d) {
      ASSERT_EQ(words[d * kWideLanes + l], scalar())
          << "lane " << l << " draw " << d;
    }
  }
}

TEST(XoshiroWide, DispatchedEqualsPortable) {
  XoshiroWide a(kRoot);
  XoshiroWide b(kRoot);
  constexpr std::size_t kWords = 1024;
  std::vector<std::uint64_t> wa(kWords);
  std::vector<std::uint64_t> wb(kWords);
  a.generate(wa.data(), kWords);
  b.generate_portable(wb.data(), kWords);
  EXPECT_EQ(wa, wb);
  for (std::size_t l = 0; l < kWideLanes; ++l) {
    EXPECT_EQ(a.lane_state(l), b.lane_state(l)) << "lane " << l;
  }
}

TEST(XoshiroWide, GoldenFirstBlock) {
  // First kWideLanes words at a fixed root: one draw per lane.  These
  // literals pin seeding (SplitMix64 through kVectorLaneTag), lane
  // order, and the xoshiro256++ output function all at once.
  XoshiroWide wide(0x5EEDULL);
  std::uint64_t words[kWideLanes];
  wide.generate(words, kWideLanes);
  Xoshiro256pp lane0(derive_seed(0x5EEDULL, kVectorLaneTag, std::uint64_t{0}));
  EXPECT_EQ(words[0], lane0());
  const std::uint64_t golden[kWideLanes] = {
      0xAAA5109207264813ULL, 0xD0799103C063F965ULL, 0x6B2CFDA1C1D1B07EULL,
      0x3B70FC655B992660ULL, 0x9C95D3C142284E43ULL, 0x95B25F983A6D6C88ULL,
      0x28FFB8E78EECCFEDULL, 0x3A1F527781298205ULL,
  };
  for (std::size_t l = 0; l < kWideLanes; ++l) {
    EXPECT_EQ(words[l], golden[l]) << "lane " << l;
  }
}

TEST(WideStream, MixedPopsAreOneFlatSequence) {
  WideStream reference(kRoot);
  constexpr std::size_t kTotal = 1500;
  std::vector<std::uint64_t> expected(kTotal);
  for (auto& w : expected) {
    w = reference();
  }

  WideStream mixed(kRoot);
  std::vector<std::uint64_t> got;
  got.reserve(kTotal);
  // Odd-sized pops straddling the buffer boundary on purpose.
  const std::size_t plan[] = {3, 255, 1, 500, 7, 300, 129, 305};
  for (const std::size_t n : plan) {
    if (n % 2 == 1) {
      for (std::size_t i = 0; i < n; ++i) {
        got.push_back(mixed());
      }
    } else {
      std::vector<std::uint64_t> chunk(n);
      mixed.fill(chunk);
      got.insert(got.end(), chunk.begin(), chunk.end());
    }
  }
  ASSERT_EQ(got.size(), kTotal);
  EXPECT_EQ(got, expected);
}

TEST(UniformBelowBatch, SharedBoundMatchesSequential) {
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{6},
        std::uint64_t{7}, std::uint64_t{1000},
        (std::uint64_t{1} << 40) + 3}) {
    Xoshiro256pp gen_seq(kRoot);
    Xoshiro256pp gen_batch(kRoot);
    constexpr std::size_t kCount = 700;
    std::vector<std::uint64_t> batch(kCount);
    uniform_below_batch(gen_batch, bound, batch);
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(batch[i], uniform_below(gen_seq, bound))
          << "bound " << bound << " index " << i;
    }
    // Same words consumed: the next draw must agree too.
    EXPECT_EQ(gen_batch(), gen_seq()) << "bound " << bound;
  }
}

TEST(UniformBelowBatch, ReplayPathMatchesSequentialUnderHeavyRejection) {
  // bound > 2^63 makes the rejection threshold ~2^63, so roughly half
  // of all words reject and nearly every block takes the replay path.
  const std::uint64_t bound = (std::uint64_t{1} << 63) + 12345;
  Xoshiro256pp gen_seq(kRoot);
  Xoshiro256pp gen_batch(kRoot);
  constexpr std::size_t kCount = 600;
  std::vector<std::uint64_t> batch(kCount);
  uniform_below_batch(gen_batch, bound, batch);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(batch[i], uniform_below(gen_seq, bound)) << "index " << i;
  }
  EXPECT_EQ(gen_batch(), gen_seq());
}

TEST(UniformBelowBatch, WideStreamSourceMatchesScalarConsumption) {
  // The batch helper over a WideStream (the vector engine's real use)
  // must equal sequential scalar draws from an equal-seeded stream.
  WideStream stream_batch(kRoot);
  WideStream stream_seq(kRoot);
  constexpr std::size_t kCount = 500;
  std::vector<std::uint64_t> batch(kCount);
  uniform_below_batch(stream_batch, std::uint64_t{6}, batch);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(batch[i], uniform_below(stream_seq, std::uint64_t{6}))
        << "index " << i;
  }
  EXPECT_EQ(stream_batch(), stream_seq());
}

}  // namespace
}  // namespace antdense::rng
