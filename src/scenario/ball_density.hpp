// Topology-generic local density (Section 2.1.1), behind the
// local-density workload.  The ball
// around an agent is enumerated by breadth-first expansion through
// AnyTopology::append_neighbors, so "agents within graph distance r"
// works on every substrate the Registry can build; on the 2-D torus the
// graph-distance ball *is* the wrap-aware L1 ball, and this observer
// agrees exactly with the brute-force L1-ball oracle in
// tests/local_density_oracle.hpp (tests/test_scenario.cpp pins this).
//
// Cost: one BFS per agent per checkpoint (O(agents x ball size)) — the
// walk's hot loop is untouched; balls are only expanded at snapshots.
//
// Shard-safe: every density row is preallocated (checkpoints x agents)
// and after_round writes only the view's agent slice, so the sharded
// engine's one hook per shard fills disjoint slices; BFS scratch and
// the per-node memo are hook-local.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/any_topology.hpp"
#include "sim/walk_engine.hpp"
#include "util/check.hpp"

namespace antdense::scenario {

/// WalkEngine observer recording, at each checkpoint, every agent's
/// local density: (other agents within graph distance `radius`) /
/// (nodes within graph distance `radius`).
class BallDensityObserver {
 public:
  BallDensityObserver(const graph::AnyTopology& topo, std::uint32_t radius,
                      std::vector<std::uint32_t> checkpoints,
                      std::uint32_t num_agents);

  /// Fills densities_[checkpoint_of(round)] for the view's agents — a
  /// no-op for non-checkpoint rounds.
  template <typename View>
  void after_round(const View& v, std::span<const std::uint64_t> positions) {
    const auto it =
        std::lower_bound(checkpoints_.begin(), checkpoints_.end(), v.round);
    if (it == checkpoints_.end() || *it != v.round) {
      return;
    }
    std::vector<double>& row =
        densities_[static_cast<std::size_t>(it - checkpoints_.begin())];
    ANTDENSE_ASSERT(positions.size() == row.size(),
                    "observer sized for a different agent count");

    // Hook-local BFS scratch: nodes are deduplicated by key, which is
    // unique per node for every Topology.  Co-located agents see the
    // same ball, so density is memoized per occupied node (per hook
    // call — one shard's slice under the sharded engine).
    std::unordered_set<std::uint64_t> visited;
    std::vector<std::uint64_t> frontier;
    std::vector<std::uint64_t> next;
    std::unordered_map<std::uint64_t, double> by_start_key;
    for (std::uint32_t a = v.begin_agent; a < v.end_agent; ++a) {
      const std::uint64_t start = positions[a];
      const auto memo = by_start_key.find(topo_->key(start));
      if (memo != by_start_key.end()) {
        row[a] = memo->second;
        continue;
      }
      visited.clear();
      frontier.clear();
      frontier.push_back(start);
      visited.insert(topo_->key(start));
      std::uint64_t occupants = v.counter.occupancy(topo_->key(start));
      for (std::uint32_t depth = 0; depth < radius_; ++depth) {
        // Saturated: the ball already covers the graph (e.g. the
        // complete graph at radius >= 1), so further expansion finds
        // nothing new.
        if (frontier.empty() || visited.size() == topo_->num_nodes()) {
          break;
        }
        next.clear();
        for (const std::uint64_t u : frontier) {
          const std::size_t before = next.size();
          topo_->append_neighbors(u, next);
          // Keep only first-visited nodes in the next frontier.
          std::size_t kept = before;
          for (std::size_t i = before; i < next.size(); ++i) {
            const std::uint64_t k = topo_->key(next[i]);
            if (visited.insert(k).second) {
              occupants += v.counter.occupancy(k);
              next[kept++] = next[i];
            }
          }
          next.resize(kept);
        }
        frontier.swap(next);
      }
      // `occupants` counts the agent itself exactly once.
      const double density = static_cast<double>(occupants - 1) /
                             static_cast<double>(visited.size());
      by_start_key.emplace(topo_->key(start), density);
      row[a] = density;
    }
  }

  const std::vector<std::uint32_t>& checkpoints() const {
    return checkpoints_;
  }
  /// densities()[i][a] = agent a's local density at checkpoint i.
  const std::vector<std::vector<double>>& densities() const {
    return densities_;
  }
  std::vector<std::vector<double>> take_densities() {
    return std::move(densities_);
  }

 private:
  const graph::AnyTopology* topo_;
  std::uint32_t radius_;
  std::vector<std::uint32_t> checkpoints_;
  std::vector<std::vector<double>> densities_;
};

}  // namespace antdense::scenario
