// Distribution helpers on top of a uniform bit generator.
//
// uniform_below uses Lemire's multiply-shift rejection method: unbiased,
// one multiplication in the common case, no modulo in the hot loop.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace antdense::rng {

template <typename G>
concept BitGenerator64 = requires(G g) {
  { g() } -> std::same_as<std::uint64_t>;
};

/// Unbiased uniform integer in [0, bound).
///
/// Precondition: bound >= 1.  An empty range has no uniform sample, and
/// the rejection threshold computes (2^64 mod bound) as
/// `(0 - bound) % bound` — a division by zero when bound == 0.  Debug
/// builds assert; release builds return 0 instead of dividing by zero,
/// so a violated precondition stays deterministic rather than UB.
template <BitGenerator64 G>
inline std::uint64_t uniform_below(G& gen, std::uint64_t bound) {
#ifndef NDEBUG
  ANTDENSE_ASSERT(bound >= 1, "uniform_below requires bound >= 1");
#endif
  if (bound == 0) [[unlikely]] {
    return 0;
  }
  // Lemire 2019, "Fast Random Integer Generation in an Interval".
  std::uint64_t x = gen();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = gen();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

namespace detail {

/// Pops out.size() words from the generator, using its bulk fill()
/// member when it has one (rng::WideStream), else sequential calls.
template <BitGenerator64 G>
inline void fill_words(G& gen, std::span<std::uint64_t> out) {
  if constexpr (requires { gen.fill(out); }) {
    gen.fill(out);
  } else {
    for (std::uint64_t& w : out) {
      w = gen();
    }
  }
}

/// Word source that replays a buffered prefix before falling through to
/// the live generator — the replay device that keeps batched Lemire
/// rejection word-for-word compatible with sequential draws.
template <BitGenerator64 G>
struct ReplayThenGen {
  const std::uint64_t* words;
  std::size_t count;
  std::size_t pos;
  G* gen;
  std::uint64_t operator()() {
    return pos < count ? words[pos++] : (*gen)();
  }
};

}  // namespace detail

/// Batched uniform_below with a shared bound: out[i] gets the value the
/// i-th sequential uniform_below(gen, bound) call would produce — same
/// draws, same order.  The fast path draws a block of words in bulk and
/// multiplies straight through; iff any word lands under the rejection
/// threshold (probability (2^64 mod bound)/2^64 per word, ~0 for the
/// small bounds topologies use), that block is recomputed sequentially
/// over the already-drawn words, consuming extra words exactly where the
/// scalar loop would.  Precondition: bound >= 1 (see uniform_below).
template <BitGenerator64 G>
inline void uniform_below_batch(G& gen, std::uint64_t bound,
                                std::span<std::uint64_t> out) {
#ifndef NDEBUG
  ANTDENSE_ASSERT(bound >= 1, "uniform_below_batch requires bound >= 1");
#endif
  if (bound == 0) [[unlikely]] {
    std::fill(out.begin(), out.end(), std::uint64_t{0});
    return;
  }
  const std::uint64_t threshold = (0 - bound) % bound;
  constexpr std::size_t kBlock = 256;
  std::uint64_t words[kBlock];
  for (std::size_t done = 0; done < out.size();) {
    const std::size_t m = std::min(kBlock, out.size() - done);
    detail::fill_words(gen, {words, m});
    bool reject = false;
    for (std::size_t j = 0; j < m; ++j) {
      const __uint128_t prod = static_cast<__uint128_t>(words[j]) * bound;
      out[done + j] = static_cast<std::uint64_t>(prod >> 64);
      reject |= static_cast<std::uint64_t>(prod) < threshold;
    }
    if (reject) [[unlikely]] {
      detail::ReplayThenGen<G> src{words, m, 0, &gen};
      for (std::size_t j = 0; j < m; ++j) {
        out[done + j] = uniform_below(src, bound);
      }
    }
    done += m;
  }
}

/// Uniform integer in [lo, hi] inclusive.  The span hi - lo + 1 must not
/// wrap to zero, i.e. the full 64-bit range [INT64_MIN, INT64_MAX] is
/// excluded — that span violates uniform_below's bound >= 1 precondition.
template <BitGenerator64 G>
inline std::int64_t uniform_int(G& gen, std::int64_t lo, std::int64_t hi) {
  ANTDENSE_CHECK(lo <= hi, "uniform_int requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_below(gen, span));
}

/// Uniform double in [0, 1) with 53 bits of precision.
template <BitGenerator64 G>
inline double uniform_unit(G& gen) {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

/// Uniform double in [lo, hi).
template <BitGenerator64 G>
inline double uniform_real(G& gen, double lo, double hi) {
  ANTDENSE_CHECK(lo < hi, "uniform_real requires lo < hi");
  return lo + (hi - lo) * uniform_unit(gen);
}

/// Bernoulli trial with success probability p in [0, 1].
template <BitGenerator64 G>
inline bool bernoulli(G& gen, double p) {
  return uniform_unit(gen) < p;
}

/// One unbiased coin flip.
template <BitGenerator64 G>
inline bool coin_flip(G& gen) {
  return (gen() >> 63) != 0;
}

/// Binomial(n, p) samples for a fixed p: the number of successes in n
/// independent Bernoulli(p) trials, drawn without iterating all n
/// trials.  Uses the geometric-skip (second waiting time) method — each
/// uniform draw jumps over a geometric run of failures — so the expected
/// cost is O(n * min(p, 1-p) + 1) draws instead of n; for p > 1/2 it
/// counts the failures instead.  The logarithm the skips divide by is
/// taken once, at construction, so a caller that samples one p again
/// and again (a dynamics model's per-tick event counts) holds one.
class Binomial {
 public:
  explicit Binomial(double p = 0.0) : p_(p) {
    ANTDENSE_CHECK(p >= 0.0 && p <= 1.0,
                   "binomial probability must be in [0,1]");
    log_q_ = std::log1p(-(p > 0.5 ? 1.0 - p : p));  // log(1-q) <= 0
  }

  template <BitGenerator64 G>
  std::uint64_t operator()(G& gen, std::uint64_t n) const {
    if (n == 0 || p_ == 0.0) {
      return 0;
    }
    if (p_ == 1.0) {
      return n;
    }
    std::uint64_t successes = 0;
    std::uint64_t trials_used = 0;
    while (true) {
      const double u = uniform_unit(gen);
      // Failures before the next success: Geometric(q) on {0, 1, 2, ...}.
      const double skip = std::floor(std::log1p(-u) / log_q_);
      if (skip >= static_cast<double>(n - trials_used)) {
        break;  // the next success would land beyond trial n
      }
      trials_used += static_cast<std::uint64_t>(skip) + 1;
      ++successes;
      if (trials_used >= n) {
        break;
      }
    }
    return p_ > 0.5 ? n - successes : successes;
  }

 private:
  double p_;
  double log_q_;
};

/// One Binomial(n, p) sample (see rng::Binomial).  The engine uses this
/// to collapse the per-partner detection-miss loop into one call per
/// agent.
template <BitGenerator64 G>
inline std::uint64_t binomial(G& gen, std::uint64_t n, double p) {
  return Binomial(p)(gen, n);
}

/// Fisher–Yates shuffle.
template <BitGenerator64 G, typename T>
inline void shuffle(G& gen, std::vector<T>& items) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = uniform_below(gen, i);
    using std::swap;
    swap(items[i - 1], items[j]);
  }
}

/// Samples k distinct indices from [0, n) without replacement
/// (Floyd's algorithm for k << n; falls back to partial shuffle).
template <BitGenerator64 G>
std::vector<std::uint64_t> sample_without_replacement(G& gen, std::uint64_t n,
                                                      std::uint64_t k);

}  // namespace antdense::rng

#include "rng/random_impl.hpp"
