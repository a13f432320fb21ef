#include "sim/concurrent_counter.hpp"

#include <thread>

namespace antdense::sim {

namespace {

std::size_t table_capacity(std::size_t max_occupancy) {
  std::size_t cap = 4;
  while (cap < max_occupancy * 4) {
    cap *= 2;
  }
  return cap;
}

}  // namespace

ConcurrentCollisionCounter::ConcurrentCollisionCounter(
    std::size_t max_occupancy)
    : slots_(table_capacity(max_occupancy)),
      mask_(slots_.size() - 1),
      max_occupancy_(max_occupancy) {
  ANTDENSE_CHECK(max_occupancy >= 1, "counter needs room for one agent");
}

void ConcurrentCollisionCounter::begin_round() {
  if (epoch_ + 1 == kBusyBit) {
    // Epoch space exhausted (after 2^31 - 1 rounds): hard-reset every
    // slot so stale stamps cannot alias the restarted epochs.  No adds
    // or reads run concurrently with begin_round.
    for (Slot& slot : slots_) {
      slot.state.store(0, std::memory_order_relaxed);
    }
    epoch_ = 0;
  }
  ++epoch_;
}

void ConcurrentCollisionCounter::add(std::uint64_t key) {
  const std::uint32_t epoch = epoch_;
  std::uint64_t idx = mix(key) & mask_;
  while (true) {
    Slot& slot = slots_[idx];
    std::uint32_t state = slot.state.load(std::memory_order_acquire);
    if (state == epoch) {
      // Claimed this round; the acquire above makes the claimer's key
      // write visible.
      if (slot.key == key) {
        slot.count.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      idx = (idx + 1) & mask_;
      continue;
    }
    if (state == (epoch | kBusyBit)) {
      // Another thread is mid-claim (three stores away) — but it may be
      // descheduled on an oversubscribed host, so yield rather than
      // burn the rest of a timeslice spinning.
      std::this_thread::yield();
      continue;
    }
    // Stale slot: claim it.  Success order is acquire so the retry path
    // after a failed CAS re-reads a coherent state.
    if (slot.state.compare_exchange_weak(state, epoch | kBusyBit,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      slot.key = key;
      slot.count.store(1, std::memory_order_relaxed);
      slot.state.store(epoch, std::memory_order_release);
      return;
    }
    // CAS failed: someone else claimed (or is claiming) it; re-examine.
  }
}

void ConcurrentCollisionCounter::add_serial(std::uint64_t key) {
  const std::uint32_t epoch = epoch_;
  std::uint64_t idx = mix(key) & mask_;
  while (true) {
    Slot& slot = slots_[idx];
    if (slot.state.load(std::memory_order_relaxed) == epoch) {
      if (slot.key == key) {
        slot.count.store(slot.count.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
        return;
      }
      idx = (idx + 1) & mask_;
      continue;
    }
    slot.state.store(epoch, std::memory_order_relaxed);
    slot.key = key;
    slot.count.store(1, std::memory_order_relaxed);
    return;
  }
}

std::uint32_t ConcurrentCollisionCounter::occupancy(std::uint64_t key) const {
  const std::uint32_t epoch = epoch_;
  std::uint64_t idx = mix(key) & mask_;
  while (true) {
    const Slot& slot = slots_[idx];
    if (slot.state.load(std::memory_order_acquire) != epoch) {
      return 0;  // never claimed this round: key is unoccupied
    }
    if (slot.key == key) {
      return slot.count.load(std::memory_order_relaxed);
    }
    idx = (idx + 1) & mask_;
  }
}

}  // namespace antdense::sim
