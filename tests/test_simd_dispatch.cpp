// Runs every kernel with a SIMD body (util/simd.hpp) and its portable
// body on the same inputs and requires the same output, word for word:
// the ring and torus2d word steps, the torus2d key batch, the wide
// generator and the churn prefilter's block test.  The dispatched entry
// points run the AVX2 bodies on a CPU that has AVX2, so on such a host
// this covers both bodies in one build; elsewhere both sides are the
// portable body.  Inputs reach the edges each AVX2 body handles apart:
// odd counts (a scalar or padded tail), sides up to 2^32-1, rings at and
// above 2^62 nodes (where the ring's AVX2 body must step aside) and
// above 2^63, generator fills across buffer edges, and prefilters both
// indexed by key and hashed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/ring.hpp"
#include "graph/time_varying.hpp"
#include "graph/torus2d.hpp"
#include "rng/xoshiro256pp.hpp"
#include "rng/xoshiro_wide.hpp"
#include "util/simd.hpp"

namespace antdense {
namespace {

/// Batch lengths around the 4-lane groups and the 256-word blocks.
constexpr std::size_t kCounts[] = {0,  1,  2,   3,   4,   5,   7,   8,
                                   63, 64, 65, 255, 256, 257, 1001};

/// `count` nodes of a width x height torus: its corners first, then
/// uniform ones.
std::vector<std::uint64_t> torus_nodes(std::uint64_t width,
                                       std::uint64_t height,
                                       std::size_t count,
                                       rng::Xoshiro256pp& gen) {
  const std::uint64_t corners[] = {
      graph::Torus2D::pack(0, 0),
      graph::Torus2D::pack(static_cast<std::uint32_t>(width - 1),
                           static_cast<std::uint32_t>(height - 1)),
      graph::Torus2D::pack(0, static_cast<std::uint32_t>(height - 1)),
      graph::Torus2D::pack(static_cast<std::uint32_t>(width - 1), 0)};
  std::vector<std::uint64_t> nodes(count);
  for (std::size_t i = 0; i < count; ++i) {
    nodes[i] = i < 4 ? corners[i]
                     : graph::Torus2D::pack(
                           static_cast<std::uint32_t>(gen() % width),
                           static_cast<std::uint32_t>(gen() % height));
  }
  return nodes;
}

std::vector<std::uint64_t> words(std::size_t count, rng::Xoshiro256pp& gen) {
  std::vector<std::uint64_t> w(count);
  for (std::uint64_t& x : w) {
    x = gen();
  }
  return w;
}

TEST(SimdDispatch, TorusStepBodiesAgree) {
  RecordProperty("cpu_has_avx2", util::cpu_has_avx2() ? "true" : "false");
  constexpr std::uint64_t kMax = 0xFFFFFFFFULL;  // 2^32 - 1
  const std::pair<std::uint64_t, std::uint64_t> sides[] = {
      {2, 2}, {3, 5}, {45, 45}, {1000, 1000}, {kMax, kMax},
      {kMax, 3},  {2, kMax}, {3000000000ULL, 2}};
  rng::Xoshiro256pp gen(0x70305);
  for (const auto& [w, h] : sides) {
    for (const std::size_t n : kCounts) {
      const std::vector<std::uint64_t> in = torus_nodes(w, h, n, gen);
      const std::vector<std::uint64_t> dir = words(n, gen);
      std::vector<std::uint64_t> want(n);
      std::vector<std::uint64_t> got(n);
      graph::detail::torus2d_step_words_portable(w, h, in, want, dir.data());
      const graph::Torus2D torus(static_cast<std::uint32_t>(w),
                                 static_cast<std::uint32_t>(h));
      torus.step_words(in, got, dir.data());
      ASSERT_EQ(got, want) << w << "x" << h << ", " << n << " words";
      // In place, as the engines step.
      std::vector<std::uint64_t> pos = in;
      torus.step_words(pos, pos, dir.data());
      ASSERT_EQ(pos, want) << w << "x" << h << ", " << n << " in place";
    }
  }
}

TEST(SimdDispatch, RingStepBodiesAgree) {
  const std::uint64_t sizes[] = {3,
                                 4,
                                 1000,
                                 (1ULL << 62) - 1,
                                 1ULL << 62,
                                 (1ULL << 62) + 1,
                                 1ULL << 63,
                                 (1ULL << 63) + 2,
                                 ~0ULL};
  rng::Xoshiro256pp gen(0x7130);
  for (const std::uint64_t size : sizes) {
    for (const std::size_t n : kCounts) {
      std::vector<std::uint64_t> in(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t edges[] = {0, size - 1, size - 2, size / 2};
        in[i] = i < 4 ? edges[i] : gen() % size;
      }
      const std::vector<std::uint64_t> dir = words(n, gen);
      std::vector<std::uint64_t> want(n);
      std::vector<std::uint64_t> got(n);
      graph::detail::ring_step_words_portable(size, in, want, dir.data());
      graph::Ring(size).step_words(in, got, dir.data());
      ASSERT_EQ(got, want) << "ring(" << size << "), " << n << " words";
    }
  }
}

TEST(SimdDispatch, TorusKeyBodiesAgree) {
  const std::uint64_t widths[] = {2, 3, 45, 1000, 3000000000ULL,
                                  0xFFFFFFFFULL};
  rng::Xoshiro256pp gen(0x7E45);
  for (const std::uint64_t w : widths) {
    const graph::Torus2D torus(static_cast<std::uint32_t>(w), 0xFFFFFFFFu);
    for (const std::size_t n : kCounts) {
      const std::vector<std::uint64_t> nodes =
          torus_nodes(w, 0xFFFFFFFFULL, n, gen);
      std::vector<std::uint64_t> want(n);
      std::vector<std::uint64_t> got(n);
      graph::detail::torus2d_keys_portable(w, nodes, want);
      torus.keys(nodes, got);
      ASSERT_EQ(got, want) << "width " << w << ", " << n << " keys";
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(want[i], torus.key(nodes[i])) << "node " << nodes[i];
      }
    }
  }
}

TEST(SimdDispatch, WideGeneratorBodiesAgree) {
  // Odd numbers of 8-word draws, from advanced states too.
  rng::XoshiroWide a(0xC0FFEE);
  rng::XoshiroWide b(0xC0FFEE);
  for (const std::size_t draws : {1, 3, 5, 31, 32, 33, 129}) {
    std::vector<std::uint64_t> wa(draws * rng::kWideLanes);
    std::vector<std::uint64_t> wb(draws * rng::kWideLanes);
    a.generate(wa.data(), wa.size());
    b.generate_portable(wb.data(), wb.size());
    ASSERT_EQ(wa, wb) << draws << " draws";
    for (std::size_t l = 0; l < rng::kWideLanes; ++l) {
      ASSERT_EQ(a.lane_state(l), b.lane_state(l)) << "lane " << l;
    }
  }
}

TEST(SimdDispatch, WideStreamFillsMatchThePortableSequence) {
  // The portable body's flat word sequence, against a stream filled in
  // chunks that start and end inside and across its 256-word buffer.
  constexpr std::size_t kTotal = 8 * rng::WideStream::kBufferWords;
  rng::XoshiroWide ref(0xB0FFE7);
  std::vector<std::uint64_t> want(kTotal);
  ref.generate_portable(want.data(), kTotal);
  rng::WideStream stream(0xB0FFE7);
  std::vector<std::uint64_t> got;
  std::size_t chunk = 0;
  const std::size_t chunks[] = {1, 7, 255, 256, 257, 3, 513, 8, 0, 100};
  while (got.size() < kTotal) {
    const std::size_t n =
        std::min(chunks[chunk++ % std::size(chunks)], kTotal - got.size());
    std::vector<std::uint64_t> part(n);
    stream.fill(part);
    got.insert(got.end(), part.begin(), part.end());
    if (got.size() < kTotal) {
      got.push_back(stream());  // interleave single pops
    }
  }
  EXPECT_EQ(got, want);
}

TEST(SimdDispatch, PrefilterBlockBodiesAgree) {
  rng::Xoshiro256pp gen(0xB10C);
  // {key space, keys held}: small key spaces index the filter directly,
  // large ones hash into it; 2^20 keys hash into the filter sized for
  // 5000 keys and index the one sized for 40000 directly.
  constexpr std::uint64_t kAny = ~std::uint64_t{0};
  const std::pair<std::uint64_t, std::size_t> filters[] = {
      {4096, 0},    {4096, 1},     {4096, 40},       {kAny, 0},
      {kAny, 3},    {kAny, 40},    {kAny, 5000},     {1 << 20, 5000},
      {1 << 20, 40000}};
  for (const auto& [space, held] : filters) {
    graph::detail::KeyFilter filter(space);
    filter.reset(held);
    const auto draw_key = [&] { return space == kAny ? gen() : gen() % space; };
    std::vector<std::uint64_t> inserted;
    for (std::size_t k = 0; k < held; ++k) {
      inserted.push_back(draw_key());
      filter.insert(inserted.back());
    }
    for (const std::size_t m : kCounts) {
      if (m > graph::detail::KeyFilter::kBlock) {
        continue;
      }
      // A third of the keys held, so the blocks have hits.
      std::vector<std::uint64_t> keys(m);
      for (std::size_t j = 0; j < m; ++j) {
        keys[j] = !inserted.empty() && j % 3 == 0
                      ? inserted[gen() % inserted.size()]
                      : draw_key();
      }
      std::uint16_t want[graph::detail::KeyFilter::kBlock];
      std::uint16_t got[graph::detail::KeyFilter::kBlock];
      const std::size_t nw =
          filter.may_contain_block_portable(keys.data(), m, want);
      const std::size_t ng = filter.may_contain_block(keys.data(), m, got);
      ASSERT_EQ(std::vector<std::uint16_t>(got, got + ng),
                std::vector<std::uint16_t>(want, want + nw))
          << held << " held of " << space << ", " << m << " keys";
      std::vector<std::uint16_t> scalar;
      for (std::size_t j = 0; j < m; ++j) {
        ASSERT_TRUE(filter.may_contain(keys[j]) ||
                    std::find(inserted.begin(), inserted.end(), keys[j]) ==
                        inserted.end())
            << "a held key was missed";
        if (filter.may_contain(keys[j])) {
          scalar.push_back(static_cast<std::uint16_t>(j));
        }
      }
      ASSERT_EQ(std::vector<std::uint16_t>(want, want + nw), scalar)
          << held << " held of " << space << ", " << m << " keys";
    }
  }
}

}  // namespace
}  // namespace antdense
