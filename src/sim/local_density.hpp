// Local density measurement on the 2-D torus (Section 2.1.1).
//
// The paper distinguishes the *global* density d = n/A from the *local*
// density an agent actually experiences early in its walk.  These
// helpers compute the ground-truth local density inside an L1 ball so
// the non-uniform-placement experiments can show what short-horizon
// encounter rates really track.  Positions are passed as spans so the
// LocalDensityObserver can hand over its in-flight view without
// copying; std::vector arguments convert implicitly.
//
// run_local_density_profile is the engine-backed driver: it walks a
// population and records every agent's local density at checkpoints,
// tracing how a clustered placement relaxes toward the global density.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/torus2d.hpp"
#include "sim/walk_engine.hpp"
#include "util/check.hpp"

namespace antdense::sim {

/// Number of torus nodes within (wrap-aware) L1 distance `radius` of a
/// point — the ball volume 2r² + 2r + 1, clipped if the ball wraps.
std::uint64_t l1_ball_size(const graph::Torus2D& torus, std::uint32_t radius);

/// Agents (from `positions`) within L1 distance `radius` of `center`,
/// excluding an agent standing exactly at `center` at most once (so an
/// agent can ask for the local density *around itself*).
std::uint64_t agents_within(
    const graph::Torus2D& torus,
    std::span<const graph::Torus2D::node_type> positions,
    graph::Torus2D::node_type center, std::uint32_t radius,
    bool exclude_one_at_center);

/// Local density around `center`: (agents in ball, minus self if
/// requested) / ball size.
double local_density(const graph::Torus2D& torus,
                     std::span<const graph::Torus2D::node_type> positions,
                     graph::Torus2D::node_type center, std::uint32_t radius,
                     bool exclude_one_at_center = false);

/// Per-agent local densities: for each agent, the density of *other*
/// agents within `radius` of it.
std::vector<double> per_agent_local_density(
    const graph::Torus2D& torus,
    std::span<const graph::Torus2D::node_type> positions,
    std::uint32_t radius);

/// WalkEngine observer recording, at each checkpoint, every agent's
/// ground-truth local density (other agents in an L1 ball) on the 2-D
/// torus — showing what short-horizon encounter rates actually track
/// under non-uniform placement.  Lives here rather than in
/// walk_engine.hpp because it is Torus2D-specific; the engine itself
/// stays topology-agnostic.
class LocalDensityObserver {
 public:
  LocalDensityObserver(const graph::Torus2D& torus, std::uint32_t radius,
                       std::vector<std::uint32_t> checkpoints);

  /// Snapshots every agent, so the view must span the whole population
  /// (engine=single or engine=vector, or one shard).
  template <typename View>
  void after_round(const View& v,
                   std::span<const graph::Torus2D::node_type> positions) {
    ANTDENSE_CHECK(v.begin_agent == 0 && v.end_agent == v.num_agents,
                   "LocalDensityObserver needs the whole population in "
                   "one view");
    if (next_checkpoint_ >= checkpoints_.size() ||
        v.round != checkpoints_[next_checkpoint_]) {
      return;
    }
    densities_.push_back(per_agent_local_density(*torus_, positions, radius_));
    ++next_checkpoint_;
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
  const graph::Torus2D* torus_;
  std::uint32_t radius_;
  std::vector<std::uint32_t> checkpoints_;
  std::size_t next_checkpoint_ = 0;
  std::vector<std::vector<double>> densities_;
};

struct LocalDensityProfile {
  /// checkpoints[i] = round number of the i-th snapshot (1-based).
  std::vector<std::uint32_t> checkpoints;
  /// densities[i][a] = agent a's local density of *others* at checkpoint i.
  std::vector<std::vector<double>> densities;
  double global_density = 0.0;  // (N-1)/A
};

/// Runs the walk engine with a LocalDensityObserver: `num_agents` agents
/// walk to the last checkpoint, snapshotting every agent's L1-ball local
/// density along the way.  `initial_positions`, when non-null, seeds a
/// non-uniform placement (must hold num_agents nodes).  Checkpoints must
/// be strictly increasing, 1-based.  Deterministic in `seed`.
LocalDensityProfile run_local_density_profile(
    const graph::Torus2D& torus, std::uint32_t num_agents,
    std::uint32_t radius, const std::vector<std::uint32_t>& checkpoints,
    std::uint64_t seed,
    const std::vector<graph::Torus2D::node_type>* initial_positions =
        nullptr);

}  // namespace antdense::sim
