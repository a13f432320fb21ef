#include "sim/dynamic_world.hpp"

#include <algorithm>

#include "util/format.hpp"

namespace antdense::sim {

DynamicsInstruments::DynamicsInstruments(const char* model) {
  obs::Telemetry* tel = obs::ambient_telemetry();
  if (tel == nullptr || tel->metrics == nullptr) {
    return;
  }
  obs::MetricsRegistry& reg = *tel->metrics;
  const auto tap = [&](const char* event) -> obs::Counter* {
    return &reg.counter(
        "antdense_dynamics_events_total",
        obs::Labels{{"model", model}, {"event", event}},
        "World-mutation events applied by the dynamics layer");
  };
  node_fails = tap("node_fail");
  edge_drops = tap("edge_drop");
  recoveries = tap("recovery");
  deaths = tap("death");
  births = tap("birth");
}

ChurnDynamics::ChurnDynamics(const graph::AnyTopology& topo, double p_edge,
                             double p_fail, std::uint32_t mean_down,
                             std::uint64_t seed)
    : world_(topo),
      p_edge_(p_edge),
      p_fail_(p_fail),
      mean_down_(mean_down),
      seed_(seed),
      instruments_("churn") {
  ANTDENSE_CHECK(p_edge >= 0.0 && p_edge <= 1.0,
                 "churn p_edge must be in [0,1]");
  ANTDENSE_CHECK(p_fail >= 0.0 && p_fail <= 1.0,
                 "churn p_fail must be in [0,1]");
  ANTDENSE_CHECK(mean_down >= 1, "churn mean_down must be >= 1");
}

std::string ChurnDynamics::name() const {
  return "churn:p_edge=" + util::format_shortest(p_edge_) +
         ",p_fail=" + util::format_shortest(p_fail_) +
         ",mean_down=" + std::to_string(mean_down_) +
         ",seed=" + std::to_string(seed_);
}

void ChurnDynamics::mutate(std::uint32_t round, rng::Xoshiro256pp& mut_gen,
                           std::span<std::uint64_t> positions,
                           std::span<const std::uint64_t> keys) {
  (void)round;
  const graph::AnyTopology& base = world_.base();

  const std::size_t down_before =
      world_.num_failed_nodes() + world_.num_down_edges();
  world_.recover(1.0 / mean_down_, mut_gen);
  instruments_.add(instruments_.recoveries,
                   down_before -
                       (world_.num_failed_nodes() + world_.num_down_edges()));

  if (p_edge_ > 0.0) {
    const std::uint64_t churn_events =
        rng::binomial(mut_gen, base.num_nodes(), p_edge_);
    std::uint64_t dropped = 0;
    for (std::uint64_t j = 0; j < churn_events; ++j) {
      const std::uint64_t u = base.random_node(mut_gen);
      scratch_.clear();
      base.append_neighbors(u, scratch_);
      if (scratch_.empty()) {
        continue;
      }
      const std::uint64_t v =
          scratch_[rng::uniform_below(mut_gen, scratch_.size())];
      if (v == u) {
        continue;
      }
      dropped += world_.drop_edge(u, v) ? 1 : 0;
    }
    instruments_.add(instruments_.edge_drops, dropped);
  }

  if (p_fail_ > 0.0) {
    const std::uint64_t fail_events =
        rng::binomial(mut_gen, base.num_nodes(), p_fail_);
    std::uint64_t failed = 0;
    for (std::uint64_t j = 0; j < fail_events; ++j) {
      failed += world_.fail_node(base.random_node(mut_gen)) ? 1 : 0;
    }
    instruments_.add(instruments_.node_fails, failed);
  }

  // Evict walkers standing on failed nodes (including long-failed nodes
  // an earlier deflection could not escape), found by the engine's keys.
  // Deterministic: consumes no randomness.
  if (world_.num_failed_nodes() > 0) {
    ANTDENSE_ASSERT(keys.size() == positions.size(),
                    "churn eviction needs one key per agent");
    for (std::size_t i = 0; i < positions.size(); ++i) {
      if (world_.node_failed(keys[i])) {
        positions[i] = world_.deflect(positions[i], scratch_);
      }
    }
  }
}

void ChurnDynamics::rewrite_moves(std::span<const std::uint64_t> prev,
                                  std::span<std::uint64_t> pos,
                                  std::span<std::uint64_t> keys,
                                  std::uint32_t begin,
                                  std::uint32_t end) const {
  const graph::AnyTopology& base = world_.base();
  base.keys(pos.subspan(begin, end - begin),
            keys.subspan(begin, end - begin));
  if (world_.num_failed_nodes() == 0 && world_.num_down_edges() == 0) {
    return;
  }
  std::vector<std::uint64_t> scratch;  // per call: rewrites run per shard
  for (std::uint32_t i = begin; i < end; ++i) {
    // A destination the prefilter clears is up and touches no down
    // edge; a lazy stay is always allowed.
    const std::uint64_t to_key = keys[i];
    if (!world_.may_block(to_key) || pos[i] == prev[i]) {
      continue;
    }
    const std::uint64_t from_key = base.key(prev[i]);
    if (world_.edge_down(from_key, to_key)) {
      pos[i] = prev[i];  // the traversed edge is down: the move fails
      keys[i] = from_key;
    } else if (world_.node_failed(to_key)) {
      pos[i] = world_.deflect(prev[i], scratch);
      keys[i] = base.key(pos[i]);
    }
  }
}

DriftDynamics::DriftDynamics(const graph::AnyTopology& topo,
                             std::uint32_t num_agents, double p_death,
                             double p_birth, std::uint64_t seed)
    : topo_(&topo),
      p_death_(p_death),
      p_birth_(p_birth),
      seed_(seed),
      alive_(num_agents, 1),
      birth_round_(num_agents, 1),
      instruments_("drift") {
  ANTDENSE_CHECK(num_agents >= 1, "drift needs at least one agent slot");
  ANTDENSE_CHECK(p_death >= 0.0 && p_death <= 1.0,
                 "drift p_death must be in [0,1]");
  ANTDENSE_CHECK(p_birth >= 0.0 && p_birth <= 1.0,
                 "drift p_birth must be in [0,1]");
}

std::string DriftDynamics::name() const {
  return "drift:p_death=" + util::format_shortest(p_death_) +
         ",p_birth=" + util::format_shortest(p_birth_) +
         ",seed=" + std::to_string(seed_);
}

void DriftDynamics::mutate(std::uint32_t round, rng::Xoshiro256pp& mut_gen,
                           std::span<std::uint64_t> positions,
                           std::span<const std::uint64_t> keys) {
  (void)keys;
  if (p_death_ == 0.0 && p_birth_ == 0.0) {
    return;
  }
  ANTDENSE_ASSERT(positions.size() == alive_.size(),
                  "drift model sized for a different agent count");
  std::uint64_t deaths = 0;
  std::uint64_t births = 0;
  for (std::size_t slot = 0; slot < alive_.size(); ++slot) {
    if (alive_[slot] != 0) {
      if (rng::bernoulli(mut_gen, p_death_)) {
        alive_[slot] = 0;
        ++deaths;
      }
    } else if (rng::bernoulli(mut_gen, p_birth_)) {
      alive_[slot] = 1;
      birth_round_[slot] = round;
      positions[slot] = topo_->random_node(mut_gen);
      ++births;
    }
  }
  instruments_.add(instruments_.deaths, deaths);
  instruments_.add(instruments_.births, births);
}

FadeDynamics::FadeDynamics(std::uint32_t num_agents, double p0, double step,
                           std::uint64_t seed)
    : p0_(p0), step_(step), seed_(seed), miss_(num_agents, p0) {
  ANTDENSE_CHECK(num_agents >= 1, "fade needs at least one agent");
  ANTDENSE_CHECK(p0 >= 0.0 && p0 <= 1.0, "fade p0 must be in [0,1]");
  ANTDENSE_CHECK(step >= 0.0 && step <= 1.0, "fade step must be in [0,1]");
}

std::string FadeDynamics::name() const {
  return "fade:p0=" + util::format_shortest(p0_) +
         ",step=" + util::format_shortest(step_) +
         ",seed=" + std::to_string(seed_);
}

void FadeDynamics::mutate(std::uint32_t round, rng::Xoshiro256pp& mut_gen,
                          std::span<std::uint64_t> positions,
                          std::span<const std::uint64_t> keys) {
  (void)round;
  (void)positions;
  (void)keys;
  if (step_ == 0.0) {
    return;
  }
  for (double& p : miss_) {
    // Reflected +-step random walk on [0,1]: sensor quality drifts but
    // never saturates into an absorbing state.
    p += rng::bernoulli(mut_gen, 0.5) ? step_ : -step_;
    if (p < 0.0) {
      p = -p;
    }
    if (p > 1.0) {
      p = 2.0 - p;
    }
    p = std::clamp(p, 0.0, 1.0);
  }
}

}  // namespace antdense::sim
