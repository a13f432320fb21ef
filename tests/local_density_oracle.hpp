// Test oracle for local density on the 2-D torus (Section 2.1.1): the
// ground-truth density of agents inside a wrap-aware L1 ball, counted by
// brute force over every agent.  scenario::BallDensityObserver, the
// topology-generic observer behind the local-density workload, is
// pinned against this one (tests/test_scenario.cpp); the L1-ball
// helpers are checked against enumeration (tests/test_local_density.cpp).
// Positions are passed as spans so the observer can hand over the
// engine's in-flight view without copying.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/torus2d.hpp"
#include "sim/walk_engine.hpp"
#include "util/check.hpp"

namespace antdense::testing {

/// Number of torus nodes within (wrap-aware) L1 distance `radius` of a
/// point — the ball volume 2r² + 2r + 1.  The ball must not wrap onto
/// itself, so the plane formula holds.
inline std::uint64_t l1_ball_size(const graph::Torus2D& torus,
                                  std::uint32_t radius) {
  ANTDENSE_CHECK(radius >= 1, "radius must be >= 1");
  ANTDENSE_CHECK(2 * radius < torus.width() && 2 * radius < torus.height(),
                 "ball diameter must be smaller than both torus sides");
  const std::uint64_t r = radius;
  return 2 * r * r + 2 * r + 1;
}

/// Agents (from `positions`) within L1 distance `radius` of `center`,
/// excluding an agent standing exactly at `center` at most once (so an
/// agent can ask for the local density *around itself*).
inline std::uint64_t agents_within(
    const graph::Torus2D& torus,
    std::span<const graph::Torus2D::node_type> positions,
    graph::Torus2D::node_type center, std::uint32_t radius,
    bool exclude_one_at_center) {
  std::uint64_t count = 0;
  bool excluded = false;
  for (const graph::Torus2D::node_type p : positions) {
    if (torus.l1_distance(p, center) <= radius) {
      if (exclude_one_at_center && !excluded &&
          torus.key(p) == torus.key(center)) {
        excluded = true;
        continue;
      }
      ++count;
    }
  }
  return count;
}

/// Local density around `center`: (agents in ball, minus self if
/// requested) / ball size.
inline double local_density(
    const graph::Torus2D& torus,
    std::span<const graph::Torus2D::node_type> positions,
    graph::Torus2D::node_type center, std::uint32_t radius,
    bool exclude_one_at_center = false) {
  return static_cast<double>(agents_within(torus, positions, center, radius,
                                           exclude_one_at_center)) /
         static_cast<double>(l1_ball_size(torus, radius));
}

/// Per-agent local densities: for each agent, the density of *other*
/// agents within `radius` of it.
inline std::vector<double> per_agent_local_density(
    const graph::Torus2D& torus,
    std::span<const graph::Torus2D::node_type> positions,
    std::uint32_t radius) {
  std::vector<double> out;
  out.reserve(positions.size());
  for (const graph::Torus2D::node_type p : positions) {
    out.push_back(local_density(torus, positions, p, radius,
                                /*exclude_one_at_center=*/true));
  }
  return out;
}

/// WalkEngine observer recording, at each checkpoint, every agent's
/// ground-truth local density (other agents in an L1 ball).
class LocalDensityObserver {
 public:
  LocalDensityObserver(const graph::Torus2D& torus, std::uint32_t radius,
                       std::vector<std::uint32_t> checkpoints)
      : torus_(&torus),
        radius_(radius),
        checkpoints_(std::move(checkpoints)) {
    l1_ball_size(torus, radius);  // radius preconditions
    sim::detail::validate_checkpoints(checkpoints_);
    densities_.reserve(checkpoints_.size());
  }

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

  /// densities()[i][a] = agent a's local density at checkpoint i.
  const std::vector<std::vector<double>>& densities() const {
    return densities_;
  }

 private:
  const graph::Torus2D* torus_;
  std::uint32_t radius_;
  std::vector<std::uint32_t> checkpoints_;
  std::size_t next_checkpoint_ = 0;
  std::vector<std::vector<double>> densities_;
};

}  // namespace antdense::testing
