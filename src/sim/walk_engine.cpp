#include "sim/walk_engine.hpp"

#include <algorithm>
#include <utility>

namespace antdense::sim {

void WalkConfig::validate() const {
  ANTDENSE_CHECK(num_agents >= 1, "need at least one agent");
  ANTDENSE_CHECK(rounds >= 1, "need at least one round");
  ANTDENSE_CHECK(lazy_probability >= 0.0 && lazy_probability < 1.0,
                 "lazy probability must be in [0,1)");
}

CollisionObserver::CollisionObserver(std::uint32_t num_agents, Noise noise,
                                     const WorldDynamics* dynamics)
    : noise_(noise), dynamics_(dynamics), counts_(num_agents, 0) {
  ANTDENSE_CHECK(num_agents >= 1, "need at least one agent");
  if (dynamics != nullptr && dynamics->count_mask() != nullptr) {
    ANTDENSE_CHECK(dynamics->birth_rounds() != nullptr,
                   "a dynamics model with an alive mask must report birth "
                   "rounds");
    observed_rounds_.assign(num_agents, 0);
    seen_birth_.assign(num_agents, 1);
  }
  // Resolved once at construction (on the caller thread, where ambient
  // telemetry is installed); the striped counter is then safe to add to
  // from any shard worker.  Counting happens on deterministic
  // post-noise values, so totals are thread-count-invariant.
  if (obs::Telemetry* tel = obs::ambient_telemetry();
      tel != nullptr && tel->metrics != nullptr) {
    collisions_tap_ = &tel->metrics->counter(
        "antdense_collisions_observed_total", {},
        "Collisions recorded by CollisionObserver (post sensing noise)");
  }
  ANTDENSE_CHECK(noise.detection_miss >= 0.0 && noise.detection_miss <= 1.0,
                 "miss probability must be in [0,1]");
  ANTDENSE_CHECK(noise.spurious >= 0.0 && noise.spurious <= 1.0,
                 "spurious probability must be in [0,1]");
  ANTDENSE_CHECK(noise.dropout >= 0.0 && noise.dropout <= 1.0,
                 "dropout probability must be in [0,1]");
}

std::vector<double> CollisionObserver::estimates(std::uint32_t rounds) const {
  std::vector<double> out;
  out.reserve(counts_.size());
  if (observed_rounds_.empty()) {
    for (const std::uint64_t c : counts_) {
      out.push_back(static_cast<double>(c) / rounds);
    }
    return out;
  }
  // Dead slots carry stale counts and are left out.
  const std::uint8_t* const alive = dynamics_->count_mask();
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (alive[i] != 0 && observed_rounds_[i] > 0) {
      out.push_back(static_cast<double>(counts_[i]) /
                    static_cast<double>(observed_rounds_[i]));
    }
  }
  return out;
}

PropertyObserver::PropertyObserver(std::vector<bool> has_property,
                                   std::uint64_t num_nodes)
    : has_property_(std::move(has_property)),
      total_counts_(has_property_.size(), 0),
      property_counts_(has_property_.size(), 0),
      carriers_(make_occupancy_counter(
          num_nodes, static_cast<std::uint32_t>(
                         std::max<std::size_t>(has_property_.size(), 1)))) {
  ANTDENSE_CHECK(!has_property_.empty(),
                 "property flags must cover at least one agent");
}

void PropertyObserver::begin_round(std::uint32_t) {
  std::visit([](auto& carriers) { carriers.begin_round(); }, carriers_);
}

namespace detail {

void validate_checkpoints(const std::vector<std::uint32_t>& checkpoints) {
  ANTDENSE_CHECK(!checkpoints.empty(), "need at least one checkpoint");
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    ANTDENSE_CHECK(checkpoints[i] >= 1, "checkpoints are 1-based rounds");
    ANTDENSE_CHECK(i == 0 || checkpoints[i] > checkpoints[i - 1],
                   "checkpoints must be strictly increasing");
  }
}

}  // namespace detail

TrajectoryObserver::TrajectoryObserver(const CollisionObserver& source,
                                       std::uint32_t tracked_agents,
                                       std::vector<std::uint32_t> checkpoints)
    : source_(&source),
      tracked_(tracked_agents),
      checkpoints_(std::move(checkpoints)) {
  ANTDENSE_CHECK(tracked_agents >= 1 &&
                     tracked_agents <= source.counts().size(),
                 "tracked agent count out of range");
  detail::validate_checkpoints(checkpoints_);
  estimates_.assign(tracked_, {});
  for (auto& row : estimates_) {
    row.reserve(checkpoints_.size());
  }
}

void TrajectoryObserver::end_round(std::uint32_t round) {
  if (next_checkpoint_ >= checkpoints_.size() ||
      round != checkpoints_[next_checkpoint_]) {
    return;
  }
  const std::vector<std::uint64_t>& counts = source_->counts();
  for (std::uint32_t a = 0; a < tracked_; ++a) {
    estimates_[a].push_back(static_cast<double>(counts[a]) / round);
  }
  ++next_checkpoint_;
}

}  // namespace antdense::sim
