// The vector walk engine — the third identity-bearing engine variant
// (engine=vector beside single and sharded).  It runs on the shard loop
// (sim/sharded_walk.hpp) exactly as engine=single does — one shard
// holding every agent, on the caller's thread, same phase layout,
// dynamics included — and differs only in its streams, which
// sim::run_walk (sim/density_sim.hpp) fixes from a VectorExec:
//   - The draw source is a rng::WideStream — kWideLanes xoshiro256++
//     streams emitted lane-interleaved (rng/xoshiro_wide.hpp) — so the
//     word sequence differs from the single engine's one scalar stream
//     by construction.  Like sharded's per-shard streams, this is an
//     *identity* choice: engine=vector has its own golden streams
//     (tests/test_vector_walk.cpp), and the single/sharded streams are
//     untouched.
//   - Stepping goes through graph::random_neighbors, as on every engine:
//     the word-step kernel ring/torus2d share (AVX2 on CPUs that have
//     it) over bulk stream fills, batched Lemire rejection for the pick
//     families (the stream's fill() selects it), the topology's own
//     bulk sampler otherwise.
//     All of it is sequential-equivalent over the WideStream, so the
//     vector stream is *defined* by "per-agent draws from the wide
//     stream" and every acceleration path is unobservable.  Placement
//     and the lazy walk's stay/step draws come from the same stream.
//   - Observer noise draws come from a dedicated scalar generator at a
//     domain-tagged seed (kVectorObserverTag), keeping the
//     Xoshiro256pp-typed view contract and the movement stream cleanly
//     separated.
// Occupancy counting is the shard loop's: whichever serial counter
// with_occupancy_counter (sim/dense_counter.hpp) picks, with identical
// counts either way.
#pragma once

#include <cstdint>

namespace antdense::sim {

/// Domain-separation tag ("VECOBSRV") for the vector engine's observer
/// noise generator, disjoint from the movement lanes (kVectorLaneTag).
inline constexpr std::uint64_t kVectorObserverTag = 0x5645434F42535256ULL;

/// The vector engine's entry in sim::Exec.  It has no knobs: nothing
/// but `engine` itself selects the vector stream.
struct VectorExec {};

}  // namespace antdense::sim
