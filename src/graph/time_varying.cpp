#include "graph/time_varying.hpp"

#include <algorithm>
#include <bit>

#include "rng/random.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace antdense::graph {

namespace {

/// One recovery sweep over an insertion-ordered set: one Bernoulli per
/// element in order, then swap-and-pop the recovered positions from the
/// back so earlier removals never move an element that is still pending
/// a decision.
template <class Key, class Index>
void sweep(std::vector<Key>& items, Index& index, double p,
           rng::Xoshiro256pp& gen, std::vector<std::size_t>& recovered) {
  recovered.clear();
  // A local copy keeps the state in registers; push_back could alias it
  // in memory.
  rng::Xoshiro256pp local = gen;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (rng::bernoulli(local, p)) {
      recovered.push_back(i);
    }
  }
  gen = local;
  for (std::size_t r = recovered.size(); r-- > 0;) {
    const std::size_t i = recovered[r];
    index.erase(items[i], items);
    if (i + 1 != items.size()) {
      // The back key's slot is found through items.back() before the
      // pop, then pointed at its new position.
      items[i] = items.back();
      index.set(items[i], i, items);
    }
    items.pop_back();
  }
}

#if ANTDENSE_X86_SIMD
/// The 4-bit may-contain mask of the four keys at `group`.  kDirect
/// takes each key as its bit.  Otherwise it hashes: AVX2 has no 64-bit
/// multiply, so key * kHashMultiplier mod 2^64 is put together from
/// 32-bit halves, lo(k)*lo(c) + ((hi(k)*lo(c) + lo(k)*hi(c)) << 32).  A
/// gather fetches each bit's filter word, a variable shift moves the
/// bit to the sign bit, and movemask collects the four.
template <bool kDirect>
ANTDENSE_TARGET_AVX2 inline std::uint64_t test_group(
    const std::uint64_t* words, __m128i shift, const std::uint64_t* group) {
  constexpr std::uint64_t kMul = detail::KeyFilter::kHashMultiplier;
  const __m256i k =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(group));
  __m256i bit = k;
  if constexpr (!kDirect) {
    const __m256i mul = _mm256_set1_epi64x(static_cast<long long>(kMul));
    const __m256i mul_hi =
        _mm256_set1_epi64x(static_cast<long long>(kMul >> 32));
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(k, 32), mul),
                         _mm256_mul_epu32(k, mul_hi));
    const __m256i hash = _mm256_add_epi64(_mm256_mul_epu32(k, mul),
                                          _mm256_slli_epi64(cross, 32));
    bit = _mm256_srl_epi64(hash, shift);
  }
  const __m256i low6 = _mm256_set1_epi64x(63);
  const __m256i word = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(words), _mm256_srli_epi64(bit, 6), 8);
  const __m256i top = _mm256_sllv_epi64(
      word, _mm256_sub_epi64(low6, _mm256_and_si256(bit, low6)));
  return static_cast<std::uint64_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(top)));
}

/// The AVX2 body of KeyFilter::may_contain_block_portable.  Masks are
/// gathered 64 keys at a time, and only set bits cost a branch (hits
/// are rare).  A short last group repeats its first key in the missing
/// lanes, whose bits are dropped.
template <bool kDirect>
ANTDENSE_TARGET_AVX2 std::size_t block_avx2(const std::uint64_t* words,
                                            unsigned shift,
                                            const std::uint64_t* keys,
                                            std::size_t m,
                                            std::uint16_t* hits) {
  const __m128i vshift = _mm_cvtsi32_si128(static_cast<int>(shift));
  std::size_t n = 0;
  for (std::size_t base = 0; base < m; base += 64) {
    const std::size_t end = std::min(m, base + 64);
    std::uint64_t bits = 0;
    std::size_t j = base;
    for (; j + 4 <= end; j += 4) {
      bits |= test_group<kDirect>(words, vshift, keys + j) << (j - base);
    }
    if (j < end) {
      std::uint64_t tail[4];
      for (std::size_t t = 0; t < 4; ++t) {
        tail[t] = keys[j + (j + t < end ? t : 0)];
      }
      bits |= (test_group<kDirect>(words, vshift, tail) &
               ((std::uint64_t{1} << (end - j)) - 1))
              << (j - base);
    }
    for (; bits != 0; bits &= bits - 1) {
      hits[n++] = static_cast<std::uint16_t>(base + std::countr_zero(bits));
    }
  }
  return n;
}
#endif

}  // namespace

std::size_t detail::KeyFilter::may_contain_block(const std::uint64_t* keys,
                                                 std::size_t m,
                                                 std::uint16_t* hits) const {
#if ANTDENSE_X86_SIMD
  if (util::cpu_has_avx2()) {
    return mul_ == 1
               ? block_avx2<true>(words_.data(), shift_, keys, m, hits)
               : block_avx2<false>(words_.data(), shift_, keys, m, hits);
  }
#endif
  return may_contain_block_portable(keys, m, hits);
}

TimeVaryingWorld::TimeVaryingWorld(const AnyTopology& topo)
    : topo_(&topo),
      failed_filter_(topo.num_nodes()),
      blocked_filter_(topo.num_nodes()) {}

void TimeVaryingWorld::rebuild_filters() {
  failed_filter_.reset(failed_.size());
  blocked_filter_.reset(failed_.size() + 2 * down_.size());
  for (const std::uint64_t key : failed_) {
    failed_filter_.insert(key);
    blocked_filter_.insert(key);
  }
  for (const EdgeKey& e : down_) {
    blocked_filter_.insert(e.first);
    blocked_filter_.insert(e.second);
  }
}

bool TimeVaryingWorld::fail_node(node_type u) {
  const std::uint64_t key = topo_->key(u);
  if (node_failed(key)) {
    return false;
  }
  failed_.push_back(key);
  failed_index_.set(key, failed_.size() - 1, failed_);
  if (failed_filter_.outgrown_by(1) || blocked_filter_.outgrown_by(1)) {
    rebuild_filters();
  } else {
    failed_filter_.insert(key);
    blocked_filter_.insert(key);
  }
  return true;
}

bool TimeVaryingWorld::drop_edge(node_type u, node_type v) {
  ANTDENSE_CHECK(u != v, "an edge needs two distinct endpoints");
  const EdgeKey key = canonical_edge(topo_->key(u), topo_->key(v));
  if (down_index_.contains(key, down_)) {
    return false;
  }
  down_.push_back(key);
  down_index_.set(key, down_.size() - 1, down_);
  if (blocked_filter_.outgrown_by(2)) {
    rebuild_filters();
  } else {
    blocked_filter_.insert(key.first);
    blocked_filter_.insert(key.second);
  }
  return true;
}

void TimeVaryingWorld::recover(double recover_probability,
                               rng::Xoshiro256pp& gen) {
  ANTDENSE_CHECK(recover_probability >= 0.0 && recover_probability <= 1.0,
                 "recovery probability must be in [0,1]");
  if (recover_probability == 0.0) {
    return;
  }
  sweep(failed_, failed_index_, recover_probability, gen, recovered_);
  sweep(down_, down_index_, recover_probability, gen, recovered_);
  // Bits cannot be cleared one key at a time: recovered keys stay held,
  // as false positives only, until they outnumber the live ones.
  if (failed_filter_.held() > 2 * failed_.size() ||
      blocked_filter_.held() > 2 * (failed_.size() + 2 * down_.size())) {
    rebuild_filters();
  }
}

TimeVaryingWorld::node_type TimeVaryingWorld::deflect(
    node_type from, std::vector<node_type>& scratch) const {
  const std::uint64_t from_key = topo_->key(from);
  scratch.clear();
  topo_->append_neighbors(from, scratch);
  node_type best = from;
  std::uint64_t best_key = 0;
  bool found = false;
  for (const node_type w : scratch) {
    const std::uint64_t w_key = topo_->key(w);
    if (w_key == from_key || node_failed(w_key) ||
        edge_down(from_key, w_key)) {
      continue;
    }
    if (!found || w_key < best_key) {
      best = w;
      best_key = w_key;
      found = true;
    }
  }
  return best;
}

}  // namespace antdense::graph
