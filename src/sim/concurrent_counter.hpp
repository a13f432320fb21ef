// Thread-safe per-round node-occupancy counter: the sharded engine's
// counterpart of sim::CollisionCounter.
//
// Same design — open-addressing table keyed by the packed node key,
// epoch-stamped slots so begin_round() is O(1), capacity sized once for
// the agent population — but insertion is lock-free so all shards can
// count one round concurrently.  A slot is claimed with a CAS that
// briefly marks it busy, the key is written, and the claim is published
// with a release store; concurrent inserters of the same key then
// fetch_add the count.  Occupancy results are *exact and deterministic*
// for any interleaving (which physical slot a key lands in can vary,
// but linear probing finds it regardless, and counts are pure sums) —
// this is why the sharded engine's output does not depend on the thread
// count even though the table's memory layout does.
//
// Phase discipline (the engine's barriers enforce it):
//   begin_round()        — one thread, between rounds
//   add() / add_serial() — the fill phase; add() from any thread,
//                          add_serial() only when single-threaded (it
//                          uses plain load/store ops, so on x86 it costs
//                          the same as the non-atomic CollisionCounter)
//   occupancy()          — the observe phase; any thread, no writers
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "rng/splitmix64.hpp"
#include "util/check.hpp"

namespace antdense::sim {

class ConcurrentCollisionCounter {
 public:
  /// `max_occupancy`: the most distinct keys added in any single round
  /// (the number of agents).  Allocates 4x rounded to a power of two.
  explicit ConcurrentCollisionCounter(std::size_t max_occupancy);

  /// Starts a new round; all previous counts become invisible (O(1),
  /// except for one O(capacity) reset every 2^31 - 1 rounds when the
  /// epoch wraps).  Must not run concurrently with add()/occupancy().
  void begin_round();

  /// Records one agent at `key`.  Safe to call from any number of
  /// threads concurrently (but not concurrently with occupancy()).
  void add(std::uint64_t key);

  /// Single-threaded fast path: same effect as add(), plain-speed ops.
  void add_serial(std::uint64_t key);

  /// Occupancy of `key` in the current round (0 if no agent there).
  /// Must not run concurrently with add()/add_serial().
  std::uint32_t occupancy(std::uint64_t key) const;

  std::size_t capacity() const { return slots_.size(); }

 private:
  /// state holds the epoch that claimed the slot; kBusyBit is set only
  /// for the few instructions between claiming and publishing the key.
  static constexpr std::uint32_t kBusyBit = 0x80000000u;

  struct Slot {
    std::atomic<std::uint32_t> state{0};
    std::atomic<std::uint32_t> count{0};
    std::uint64_t key = 0;  // guarded by state's release/acquire pair
  };

  static std::uint64_t mix(std::uint64_t key) { return rng::mix64(key); }

  std::vector<Slot> slots_;
  std::uint64_t mask_;
  std::uint32_t epoch_ = 0;
  std::size_t max_occupancy_;
};

}  // namespace antdense::sim
