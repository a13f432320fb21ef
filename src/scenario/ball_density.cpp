#include "scenario/ball_density.hpp"

#include <utility>

#include "util/check.hpp"

namespace antdense::scenario {

BallDensityObserver::BallDensityObserver(
    const graph::AnyTopology& topo, std::uint32_t radius,
    std::vector<std::uint32_t> checkpoints, std::uint32_t num_agents)
    : topo_(&topo), radius_(radius), checkpoints_(std::move(checkpoints)) {
  sim::detail::validate_checkpoints(checkpoints_);
  ANTDENSE_CHECK(num_agents >= 1, "need at least one agent");
  densities_.assign(checkpoints_.size(),
                    std::vector<double>(num_agents, 0.0));
}

}  // namespace antdense::scenario
