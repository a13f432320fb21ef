// Vectorized stepping for the vector walk engine (sim/vector_walk.hpp):
// advances a position array one round, drawing from a rng::WideStream.
// The shard loop (sim/sharded_walk.hpp) steps through it whenever a
// shard's stream is a WideStream.
//
// The semantics are fully specified by the sequential contract:
//
//   vector_step(topo, pos, stream)  ==  for each i in order:
//       pos[i] = topo.random_neighbor(pos[i], stream)
//
// bit-for-bit, for every topology.  Everything else in this header is
// acceleration that preserves that contract:
//   - uniform-pick families (toruskd, hypercube, complete) batch the
//     Lemire rejection via rng::uniform_below_batch (same draws, same
//     order) and then apply the pure pick_step map;
//   - variable-pick families (explicit CSR graphs) batch per-node-bound
//     Lemire the same way;
//   - everything else steps through the topology's own bulk sampler
//     with the stream as an ordinary BitGenerator64: ring and torus2d
//     run the word-step kernel every engine shares over bulk stream
//     fills (graph::detail::step_word_blocks), and the implicit
//     families (rgg2d/gnp/ba), whose row enumeration dominates, batch
//     there too (gnp reads its rows from the caller's RowCache, so a
//     walk scans each distinct row once; ba sweeps its edge list once
//     per call).
//
// Because the contract is sequential-equivalent, which lane/kernel/batch
// path executed is unobservable in the results — pinned differentially
// in tests/test_vector_walk.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "graph/topology.hpp"
#include "rng/random.hpp"
#include "rng/xoshiro_wide.hpp"

namespace antdense::graph {

/// Advances every position in `pos` one walk step in place, drawing from
/// the wide stream; `rows` is the walk's row cache (RowCache).
/// Sequential-equivalent (see header comment): the result and the
/// stream state match per-agent random_neighbor calls.
template <Topology T>
inline void vector_step(const T& topo,
                        std::span<typename T::node_type> pos,
                        rng::WideStream& stream, RowCache& rows) {
  using node = typename T::node_type;
  if constexpr (requires { topo.step_nodes(pos, stream, rows); }) {
    // Type-erased handles (graph::AnyTopology) carry their own virtual
    // wide-stepping entry point: one dispatch per round.
    topo.step_nodes(pos, stream, rows);
  } else if constexpr (UniformPickTopology<T>) {
    constexpr std::size_t kBlock = 256;
    std::uint64_t picks[kBlock];
    const std::uint64_t bound = topo.pick_bound();
    for (std::size_t done = 0; done < pos.size();) {
      const std::size_t m = std::min(kBlock, pos.size() - done);
      rng::uniform_below_batch(stream, bound, {picks, m});
      for (std::size_t j = 0; j < m; ++j) {
        pos[done + j] = topo.pick_step(pos[done + j], picks[j]);
      }
      done += m;
    }
  } else if constexpr (VariablePickTopology<T>) {
    constexpr std::size_t kBlock = 256;
    std::uint64_t bounds[kBlock];
    std::uint64_t picks[kBlock];
    for (std::size_t done = 0; done < pos.size();) {
      const std::size_t m = std::min(kBlock, pos.size() - done);
      for (std::size_t j = 0; j < m; ++j) {
        bounds[j] = topo.pick_bound(pos[done + j]);
      }
      rng::uniform_below_batch(
          stream, std::span<const std::uint64_t>(bounds, m), {picks, m});
      for (std::size_t j = 0; j < m; ++j) {
        pos[done + j] = topo.pick_step(pos[done + j], picks[j]);
      }
      done += m;
    }
  } else {
    // Word-step families and implicit families: their own bulk samplers
    // fill words from the stream in bulk or amortise row enumeration
    // across the batch.
    graph::random_neighbors(topo, std::span<const node>(pos), pos, stream,
                            rows);
  }
}

}  // namespace antdense::graph
