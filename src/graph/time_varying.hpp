// A time-varying overlay on a static graph::AnyTopology: a set of
// currently-failed nodes and currently-down edges, mutated between
// walk rounds by the dynamics layer (sim/dynamic_world.hpp) and
// consulted when walkers move.
//
// The base topology is never modified — failure state is a sparse
// difference on top of it.  Every container here is sized by the
// overlay's state (failed nodes + down edges), never by num_nodes(), so
// implicit billion-node generators stay O(state) in memory.  Node
// identity is the topology's stable `key` space (handles may be packed
// encodings), while sampling and neighbor enumeration work on handles.
//
// Determinism: each set is a vector (iteration order = insertion order,
// removals by swap-and-pop) plus an index for O(1) membership.
// Iteration order therefore depends only on the sequence of mutations,
// never on index internals, so recovery sweeps that draw one Bernoulli
// per element consume the mutation stream in a platform-stable order.
//
// Speed: every walker move queries the overlay and almost every query
// misses, so membership is answered in two tiers.
//   - One-bit prefilters over node keys (detail::KeyFilter: >= 32 bits
//     per key held and >= 2^16 bits; hashed, with at most 1/32 false
//     positives, or indexed by the key itself, and exact, when the key
//     space fits in the bits): `blocked` holds every failed node and
//     both ends of every down edge, `failed` only the failed nodes.  A
//     clear bit answers "no" exactly, so a move to an untouched node
//     costs one bit test.  fail_node / drop_edge set
//     bits.  Bits cannot be cleared one key at a time, so a recovered
//     key stays held until recover() finds a filter holding more
//     recovered keys than live ones and rebuilds the filters.
//   - Behind them, flat open-addressing indexes (key -> vector
//     position, linear probing, backward-shift erase) at most half
//     full.  A slot is a 32-bit position; the key lives in the vector.
// Memory is O(state) plus 8 KiB per prefilter, never O(num_nodes()):
// the prefilters follow the current state, the indexes keep the
// capacity of the largest state seen.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/any_topology.hpp"
#include "rng/xoshiro256pp.hpp"
#include "util/check.hpp"

namespace antdense::graph {

namespace detail {

/// Key -> position index over an insertion-ordered vector of keys:
/// open addressing, linear probing, backward-shift erase, at most half
/// full.  A slot stores only a position; its key is items[position], so
/// every call takes the vector the positions point into.  `Hash` must
/// spread keys over all 64 bits: slots are taken from its top bits.
template <class Key, class Hash>
class FlatIndex {
 public:
  using Items = std::vector<Key>;

  FlatIndex() : slots_(kMinSlots, kEmpty), shift_(64 - kMinBits) {}

  bool contains(const Key& key, const Items& items) const {
    return slots_[slot_of(key, items)] != kEmpty;
  }

  /// Points `key` at `pos`, which must hold it (items[pos] == key): adds
  /// the key, or moves it after a swap-and-pop.
  void set(const Key& key, std::size_t pos, const Items& items) {
    ANTDENSE_CHECK(pos < kEmpty, "overlay set too large to index");
    if (2 * (size_ + 1) > slots_.size()) {
      grow(items);
    }
    std::uint32_t& slot = slots_[slot_of(key, items)];
    if (slot == kEmpty) {
      ++size_;
    }
    slot = static_cast<std::uint32_t>(pos);
  }

  /// Removes `key` if present; items[] must still hold it.  Backward
  /// shift keeps every probe chain gap-free without tombstones.
  void erase(const Key& key, const Items& items) {
    std::size_t gap = slot_of(key, items);
    if (slots_[gap] == kEmpty) {
      return;
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (gap + 1) & mask; slots_[j] != kEmpty;
         j = (j + 1) & mask) {
      // Move slot j into the gap unless its home lies cyclically in
      // (gap, j], where the gap does not interrupt its probe chain.
      if (((j - home(items[slots_[j]])) & mask) >= ((j - gap) & mask)) {
        slots_[gap] = slots_[j];
        gap = j;
      }
    }
    slots_[gap] = kEmpty;
    --size_;
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr unsigned kMinBits = 4;
  static constexpr std::size_t kMinSlots = std::size_t{1} << kMinBits;

  std::size_t home(const Key& key) const {
    return static_cast<std::size_t>(Hash{}(key) >> shift_);
  }
  /// The slot holding `key`, or the empty slot ending its probe chain.
  std::size_t slot_of(const Key& key, const Items& items) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key);
    while (slots_[i] != kEmpty && !(items[slots_[i]] == key)) {
      i = (i + 1) & mask;
    }
    return i;
  }
  void grow(const Items& items) {
    std::vector<std::uint32_t> old(slots_.size() * 2, kEmpty);
    old.swap(slots_);
    --shift_;
    for (const std::uint32_t pos : old) {
      if (pos != kEmpty) {
        slots_[slot_of(items[pos], items)] = pos;
      }
    }
  }

  std::vector<std::uint32_t> slots_;
  unsigned shift_;
  std::size_t size_ = 0;
};

/// One-bit membership prefilter over node keys: a clear bit means the
/// key was never inserted since the last reset().  Sized for the keys it
/// holds (every insert since the reset), never for the key space, and
/// never below kMinBits.  When the key space fits in the bits, a key is
/// its own bit: the filter is exact and takes no multiply.  Otherwise
/// keys are hashed into it.
class KeyFilter {
 public:
  /// Bits per key the filter is sized for; the false-positive rate is
  /// at most 1/kBitsPerKey.
  static constexpr std::size_t kBitsPerKey = 32;
  /// Smallest size (8 KiB), so the few keys of a small state read
  /// almost no false positives.
  static constexpr std::size_t kMinBits = std::size_t{1} << 16;
  /// Keys per block test.
  static constexpr std::size_t kBlock = 256;
  /// Fibonacci hashing, read from the top bits: one multiply on a path
  /// every walker move takes.
  static constexpr std::uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ULL;

  /// A filter over keys below `key_space`.
  explicit KeyFilter(std::uint64_t key_space) : key_space_(key_space) {
    reset(0);
  }

  bool may_contain(std::uint64_t key) const {
    const std::uint64_t bit = (key * mul_) >> shift_;
    return ((words_[bit >> 6] >> (bit & 63)) & 1) != 0;
  }
  /// Block test, with no branch per key: writes the indexes j < m at
  /// which may_contain(keys[j]) holds, ascending, to `hits`, and returns
  /// how many it wrote; m <= kBlock.  Runs this CPU's body
  /// (util/simd.hpp).
  std::size_t may_contain_block(const std::uint64_t* keys, std::size_t m,
                                std::uint16_t* hits) const;
  /// The portable body of may_contain_block.
  std::size_t may_contain_block_portable(const std::uint64_t* keys,
                                         std::size_t m,
                                         std::uint16_t* hits) const {
    // 16-bit indexes: storing them cannot alias the filter's state, so
    // the compiler keeps that in registers across the block.
    std::size_t n = 0;
    for (std::size_t j = 0; j < m; ++j) {
      hits[n] = static_cast<std::uint16_t>(j);
      n += may_contain(keys[j]) ? 1 : 0;
    }
    return n;
  }
  void insert(std::uint64_t key) {
    const std::uint64_t bit = (key * mul_) >> shift_;
    words_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
    ++held_;
  }
  /// Empties a filter that holds exactly `keys` (every insert since the
  /// last reset), in O(keys) instead of a reset's O(bits).
  void erase(std::span<const std::uint64_t> keys) {
    for (const std::uint64_t key : keys) {
      const std::uint64_t bit = (key * mul_) >> shift_;
      words_[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
    }
    held_ = 0;
  }
  /// Keys inserted since the last reset().
  std::size_t held() const { return held_; }
  /// Whether `more` keys on top of the held ones exceed what the
  /// current size is meant for.
  bool outgrown_by(std::size_t more) const {
    return (held_ + more) * kBitsPerKey > words_.size() * 64;
  }
  /// Clears the filter and resizes it for `keys` keys.
  void reset(std::size_t keys) {
    const std::size_t bits =
        std::bit_ceil(std::max(kMinBits, keys * kBitsPerKey));
    words_.assign(bits / 64, 0);
    const bool direct = key_space_ <= bits;
    mul_ = direct ? 1 : kHashMultiplier;
    shift_ = direct ? 0 : 64 - static_cast<unsigned>(std::countr_zero(bits));
    held_ = 0;
  }

 private:
  std::uint64_t key_space_;           // keys lie below this
  std::vector<std::uint64_t> words_;  // power-of-two bit count
  std::uint64_t mul_ = 1;             // 1: a key is its own bit
  unsigned shift_ = 0;                // 64 - log2(bit count), or 0
  std::size_t held_ = 0;              // inserts since the last reset()
};

}  // namespace detail

class TimeVaryingWorld {
 public:
  using node_type = AnyTopology::node_type;
  /// Canonical undirected edge identity: (min key, max key).
  using EdgeKey = std::pair<std::uint64_t, std::uint64_t>;

  explicit TimeVaryingWorld(const AnyTopology& topo);

  const AnyTopology& base() const { return *topo_; }
  std::size_t num_failed_nodes() const { return failed_.size(); }
  std::size_t num_down_edges() const { return down_.size(); }

  /// False when the node keyed `key` is up and no down edge touches it
  /// (exact); true when it may be failed or touched (a prefilter hit).
  bool may_block(std::uint64_t key) const {
    return blocked_filter_.may_contain(key);
  }
  /// The prefilter may_block reads, for block tests.
  const detail::KeyFilter& blocked_filter() const { return blocked_filter_; }
  bool node_failed(std::uint64_t key) const {
    return failed_filter_.may_contain(key) &&
           failed_index_.contains(key, failed_);
  }
  bool edge_down(std::uint64_t key_a, std::uint64_t key_b) const {
    return may_block(key_a) && may_block(key_b) &&
           down_index_.contains(canonical_edge(key_a, key_b), down_);
  }
  /// Whether a walker standing on the node keyed `from_key` may move to
  /// the node keyed `to_key`: the destination is up and the edge is not
  /// down.  (Staying put is always allowed.)
  bool move_allowed(std::uint64_t from_key, std::uint64_t to_key) const {
    if (from_key == to_key) {
      return true;
    }
    return !node_failed(to_key) && !edge_down(from_key, to_key);
  }

  /// Marks the node behind handle `u` failed; returns false when it
  /// already was.
  bool fail_node(node_type u);
  /// Takes the undirected edge {u, v} down; returns false when it
  /// already was.
  bool drop_edge(node_type u, node_type v);

  /// One recovery sweep: every failed node and down edge independently
  /// recovers with probability `recover_probability` (one Bernoulli per
  /// element from `gen`, in insertion order).
  void recover(double recover_probability, rng::Xoshiro256pp& gen);

  /// The deterministic deflection target for a walker at handle `from`:
  /// the admissible neighbor (destination up, edge up) with the
  /// smallest key, or `from` itself when every neighbor is blocked.
  /// `scratch` avoids per-call allocation; const and race-free, so the
  /// sharded engine may call it concurrently.
  node_type deflect(node_type from, std::vector<node_type>& scratch) const;

 private:
  static EdgeKey canonical_edge(std::uint64_t a, std::uint64_t b) {
    return a < b ? EdgeKey{a, b} : EdgeKey{b, a};
  }

  // SplitMix64 finalizer for the indexes.  It is unrelated to the
  // prefilter's hash, so a prefilter false positive does not also land
  // on the colliding key's home slot.
  static std::uint64_t mix(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }
  struct KeyHash {
    std::uint64_t operator()(std::uint64_t k) const { return mix(k); }
  };
  struct EdgeKeyHash {
    std::uint64_t operator()(const EdgeKey& e) const {
      return mix(e.first * 0x9E3779B97F4A7C15ULL + e.second);
    }
  };

  /// Resizes both prefilters to the state and re-inserts its keys.
  void rebuild_filters();

  const AnyTopology* topo_;
  std::vector<std::uint64_t> failed_;  // node keys, insertion order
  detail::FlatIndex<std::uint64_t, KeyHash> failed_index_;
  std::vector<EdgeKey> down_;  // down edges, insertion order
  detail::FlatIndex<EdgeKey, EdgeKeyHash> down_index_;
  detail::KeyFilter failed_filter_;   // failed node keys
  detail::KeyFilter blocked_filter_;  // ... and both ends of down edges
  std::vector<std::size_t> recovered_;  // recover() scratch
};

}  // namespace antdense::graph
