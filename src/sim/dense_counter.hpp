// Direct-addressed per-round occupancy counter, and the one policy that
// picks every occupancy counter.  CollisionCounter (collision_counter.hpp)
// pays a mix + probe per touch; on substrates whose packed keys are dense
// in [0, num_nodes) — every explicit family guarantees this — a flat
// array answers add/occupancy with a single indexed load.
//
// Each node gets one byte, so the array stays cache-resident on the
// substrates the policy admits (torus2d 1000² is 1 MiB), and begin_round
// zeroes it.  A byte that reaches 255 sends its key's further adds to a
// spill table, so counts stay exact for any population; only a node
// holding more than 255 agents in one round ever touches the spill.
// Counts are exactly CollisionCounter's for any key sequence
// (tests/test_sharded_walk.cpp runs both through the shard loop), so
// which counter a walk used is unobservable in its results.
// make_occupancy_counter makes the choice for the round loop and for
// PropertyObserver's carrier count: the dense array while its
// O(num_nodes) bytes stay small next to the population
// (use_dense_counter), and the hash table, O(agents) memory, on sparse
// or huge substrates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <variant>
#include <vector>

#include "sim/collision_counter.hpp"
#include "util/check.hpp"

namespace antdense::sim {

class DenseCollisionCounter {
 public:
  /// `num_keys`: keys must lie in [0, num_keys).  Allocates one byte per
  /// key up front; see use_dense_counter for the size policy.
  explicit DenseCollisionCounter(std::uint64_t num_keys)
      : counts_(static_cast<std::size_t>(num_keys), 0) {
    ANTDENSE_CHECK(num_keys >= 1, "dense counter needs >= 1 key");
  }

  /// Starts a new round: every count returns to zero.
  void begin_round() {
    std::fill(counts_.begin(), counts_.end(), std::uint8_t{0});
    if (!spill_.empty()) {
      spill_.clear();
    }
  }

  /// Records one agent at `key`; returns the occupancy of `key`
  /// *after* this insertion (1 for the first agent on the node).
  std::uint32_t add(std::uint64_t key) {
    std::uint8_t& count = counts_[static_cast<std::size_t>(key)];
    if (count != kSaturated) [[likely]] {
      return ++count;
    }
    return kSaturated + ++spill_[key];
  }

  /// Occupancy of `key` in the current round (0 if no agent there).
  std::uint32_t occupancy(std::uint64_t key) const {
    const std::uint8_t count = counts_[static_cast<std::size_t>(key)];
    if (count != kSaturated) [[likely]] {
      return count;
    }
    const auto it = spill_.find(key);
    return kSaturated + (it == spill_.end() ? 0 : it->second);
  }

  /// Prefetch hint for the batched add/read loops.
  void prefetch(std::uint64_t key) const {
    __builtin_prefetch(&counts_[static_cast<std::size_t>(key)]);
  }

  std::size_t capacity() const { return counts_.size(); }

 private:
  /// A byte at kSaturated holds 255 agents; the spill holds the rest.
  static constexpr std::uint8_t kSaturated = 255;

  std::vector<std::uint8_t> counts_;
  std::unordered_map<std::uint64_t, std::uint32_t> spill_;
};

/// Most nodes per agent at which a round counts densely.  Past it,
/// zeroing the byte array each round costs more than the hash probes it
/// saves (see the sweep in docs/ARCHITECTURE.md § Dense collision
/// counting).
inline constexpr std::uint64_t kDenseNodesPerAgent = 192;

/// The counter policy: direct addressing pays off while the byte array
/// stays near the population's size and under the cap (2^24 nodes,
/// 16 MiB); past either, the hash counter's O(agents) memory wins.
inline bool use_dense_counter(std::uint64_t num_nodes,
                              std::uint64_t num_agents) {
  return num_nodes >= 1 && num_nodes <= (std::uint64_t{1} << 24) &&
         num_nodes <= kDenseNodesPerAgent * num_agents;
}

/// Either occupancy counter; both are exact.
using OccupancyCounter = std::variant<DenseCollisionCounter, CollisionCounter>;

/// The counter use_dense_counter picks for `num_agents` agents on
/// `num_nodes` nodes.
inline OccupancyCounter make_occupancy_counter(std::uint64_t num_nodes,
                                               std::uint32_t num_agents) {
  if (use_dense_counter(num_nodes, num_agents)) {
    return OccupancyCounter(std::in_place_type<DenseCollisionCounter>,
                            num_nodes);
  }
  return OccupancyCounter(std::in_place_type<CollisionCounter>, num_agents);
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

/// Builds the occupancy counter a round over `num_agents` agents on
/// `num_nodes` nodes counts in (make_occupancy_counter), and calls
/// fn(counter) with it.
template <typename Fn>
void with_occupancy_counter(std::uint64_t num_nodes, std::uint32_t num_agents,
                            Fn&& fn) {
  OccupancyCounter counter = make_occupancy_counter(num_nodes, num_agents);
  std::visit(fn, counter);
}

}  // namespace antdense::sim
