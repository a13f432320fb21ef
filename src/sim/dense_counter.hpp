// Direct-addressed per-round occupancy counter, and the one policy that
// picks every round loop's counter.  CollisionCounter
// (collision_counter.hpp) pays a mix + probe per touch; on substrates
// whose packed keys are dense in [0, num_nodes) — every explicit family
// guarantees this — a flat epoch-stamped array answers add/occupancy
// with a single indexed load.
//
// Each slot packs (epoch << 32) | count into one u64, so "stale slot
// reads as empty" costs a shift-compare instead of a second field load,
// and begin_round stays O(1) like the hash counter.  Counts are exactly
// CollisionCounter's and ConcurrentCollisionCounter's for any key
// sequence (tests/test_sharded_walk.cpp runs all three through the
// shard loop), so which counter a walk used is unobservable in its
// results.  with_occupancy_counter makes the choice for both round
// loops: the worker pool needs the lock-free concurrent counter; a
// serial loop takes the dense array while its O(num_nodes) slots stay
// small next to the population (use_dense_counter), and the hash table,
// O(agents) memory, on sparse or huge substrates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "sim/collision_counter.hpp"
#include "sim/concurrent_counter.hpp"
#include "util/check.hpp"

namespace antdense::sim {

class DenseCollisionCounter {
 public:
  /// `num_keys`: keys must lie in [0, num_keys).  Allocates one u64 per
  /// key up front; see use_dense_counter for the size policy.
  explicit DenseCollisionCounter(std::uint64_t num_keys)
      : slots_(static_cast<std::size_t>(num_keys), 0) {
    ANTDENSE_CHECK(num_keys >= 1, "dense counter needs >= 1 key");
  }

  /// Starts a new round; all previous counts become invisible (O(1)).
  void begin_round() {
    ++epoch_;
    if (epoch_ == 0) {
      // Epoch counter wrapped (after 2^32 rounds): hard-reset stamps so
      // stale slots cannot alias the new epoch 1.
      std::fill(slots_.begin(), slots_.end(), std::uint64_t{0});
      epoch_ = 1;
    }
  }

  /// Records one agent at `key`; returns the occupancy of `key`
  /// *after* this insertion (1 for the first agent on the node).
  std::uint32_t add(std::uint64_t key) {
    std::uint64_t& slot = slots_[static_cast<std::size_t>(key)];
    const std::uint64_t tagged = static_cast<std::uint64_t>(epoch_) << 32;
    const std::uint64_t fresh =
        (slot >> 32) == epoch_ ? slot + 1 : tagged + 1;
    slot = fresh;
    return static_cast<std::uint32_t>(fresh);
  }

  /// Occupancy of `key` in the current round (0 if no agent there).
  std::uint32_t occupancy(std::uint64_t key) const {
    const std::uint64_t slot = slots_[static_cast<std::size_t>(key)];
    return (slot >> 32) == epoch_ ? static_cast<std::uint32_t>(slot) : 0;
  }

  /// Prefetch hint for the batched add/read loops.
  void prefetch(std::uint64_t key) const {
    __builtin_prefetch(&slots_[static_cast<std::size_t>(key)]);
  }

  std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<std::uint64_t> slots_;
  std::uint32_t epoch_ = 0;
};

/// Most nodes per agent at which a serial loop still counts densely.
/// Past it the dense slots (8 B per node) outgrow the hash table (at
/// least 64 B per agent) eight-fold, and allocating and zeroing them costs
/// more than the probes they save (see the sweep in docs/ARCHITECTURE.md
/// § Dense collision counting).
inline constexpr std::uint64_t kDenseNodesPerAgent = 64;

/// Policy for a serial loop's counter choice: direct addressing pays off
/// while the slot array stays near the population's size and under the
/// cap (2^24 nodes, 128 MiB of slots); past either, the hash counter's
/// O(agents) memory wins.
inline bool use_dense_counter(std::uint64_t num_nodes,
                              std::uint64_t num_agents) {
  return num_nodes >= 1 && num_nodes <= (std::uint64_t{1} << 24) &&
         num_nodes <= kDenseNodesPerAgent * num_agents;
}

namespace detail {

/// Adds every key to `counter`; the dense counter's loop prefetches
/// ahead, because the keys are random draws and each add is a dependent
/// random access the hardware prefetcher cannot predict.
template <typename Counter>
void fill_counter(Counter& counter, std::span<const std::uint64_t> keys) {
  constexpr std::size_t kAhead = 8;
  const std::size_t n = keys.size();
  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<Counter, DenseCollisionCounter>) {
      if (i + kAhead < n) {
        counter.prefetch(keys[i + kAhead]);
      }
    }
    counter.add(keys[i]);
  }
}

}  // namespace detail

/// Builds the occupancy counter a round loop over `num_agents` agents on
/// `num_nodes` nodes runs on, and calls fn(counter) with it: the
/// lock-free ConcurrentCollisionCounter when `threads` > 1 (a worker
/// pool fills it), else DenseCollisionCounter when use_dense_counter
/// holds, else the hash CollisionCounter.
template <typename Fn>
void with_occupancy_counter(std::uint64_t num_nodes, std::uint32_t num_agents,
                            unsigned threads, Fn&& fn) {
  if (threads > 1) {
    ConcurrentCollisionCounter counter(num_agents);
    fn(counter);
  } else if (use_dense_counter(num_nodes, num_agents)) {
    DenseCollisionCounter counter(num_nodes);
    fn(counter);
  } else {
    CollisionCounter counter(num_agents);
    fn(counter);
  }
}

}  // namespace antdense::sim
