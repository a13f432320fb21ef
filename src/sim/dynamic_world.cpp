#include "sim/dynamic_world.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "util/format.hpp"

namespace antdense::sim {

namespace {

/// Calls on_hit(i), in order, for every i in [begin, end) where
/// filter.may_contain(keys[i]).  The filter tests a block of keys before
/// any of its hits (KeyFilter::may_contain_block); on_hit may rewrite
/// keys[i], since no hit reads another agent's key.
template <class OnHit>
void for_each_may_contain(const graph::detail::KeyFilter& filter,
                          std::span<const std::uint64_t> keys,
                          std::size_t begin, std::size_t end,
                          OnHit&& on_hit) {
  constexpr std::size_t kBlock = graph::detail::KeyFilter::kBlock;
  std::array<std::uint16_t, kBlock> hits;
  for (std::size_t b = begin; b < end; b += kBlock) {
    const std::size_t n = filter.may_contain_block(
        keys.data() + b, std::min(kBlock, end - b), hits.data());
    for (std::size_t k = 0; k < n; ++k) {
      on_hit(b + hits[k]);
    }
  }
}

}  // namespace

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
      fresh_filter_(topo.num_nodes()),
      instruments_("churn") {
  ANTDENSE_CHECK(p_edge >= 0.0 && p_edge <= 1.0,
                 "churn p_edge must be in [0,1]");
  ANTDENSE_CHECK(p_fail >= 0.0 && p_fail <= 1.0,
                 "churn p_fail must be in [0,1]");
  ANTDENSE_CHECK(mean_down >= 1, "churn mean_down must be >= 1");
  edge_events_ = rng::Binomial(p_edge);
  fail_events_ = rng::Binomial(p_fail);
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
  const graph::AnyTopology& base = world_.base();

  const std::size_t down_before =
      world_.num_failed_nodes() + world_.num_down_edges();
  world_.recover(1.0 / mean_down_, mut_gen);
  instruments_.add(instruments_.recoveries,
                   down_before -
                       (world_.num_failed_nodes() + world_.num_down_edges()));

  if (p_edge_ > 0.0) {
    const std::uint64_t churn_events = edge_events_(mut_gen, base.num_nodes());
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

  fresh_.clear();
  if (p_fail_ > 0.0) {
    const std::uint64_t fail_events = fail_events_(mut_gen, base.num_nodes());
    for (std::uint64_t j = 0; j < fail_events; ++j) {
      const std::uint64_t u = base.random_node(mut_gen);
      if (world_.fail_node(u)) {
        fresh_.push_back(base.key(u));
      }
    }
    instruments_.add(instruments_.node_fails, fresh_.size());
  }

  // Evict walkers standing on failed nodes, found by the engine's keys.
  // Deterministic: consumes no randomness.  rewrite_moves never moves a
  // walker onto a failed node, so only walkers on this tick's fresh
  // failures need moving, unless the last scan left a walker stranded
  // (every neighbor blocked) or this tick does not follow the last one
  // (a walk's first tick: a reused model may carry failures over).
  // Then every failed node is scanned for.
  ANTDENSE_ASSERT(keys.size() == positions.size(),
                  "churn eviction needs one key per agent");
  const bool every_failure = stranded_ || round != last_round_ + 1;
  last_round_ = round;
  stranded_ = false;
  if (world_.num_failed_nodes() == 0 || (fresh_.empty() && !every_failure)) {
    return;
  }
  const auto evict = [&](std::size_t i) {
    if (world_.node_failed(keys[i])) {
      const std::uint64_t to = world_.deflect(positions[i], scratch_);
      stranded_ = stranded_ || to == positions[i];
      positions[i] = to;
    }
  };
  if (every_failure) {
    // The blocked prefilter holds every failed node; node_failed sorts
    // out the down-edge ends among its hits.
    for_each_may_contain(world_.blocked_filter(), keys, 0, keys.size(),
                         evict);
    return;
  }
  // A filter of the fresh keys alone; node_failed sorts out its false
  // positives.  It is emptied again key by key, not by a reset.
  if (fresh_filter_.outgrown_by(fresh_.size())) {
    fresh_filter_.reset(fresh_.size());
  }
  for (const std::uint64_t key : fresh_) {
    fresh_filter_.insert(key);
  }
  for_each_may_contain(fresh_filter_, keys, 0, keys.size(), evict);
  fresh_filter_.erase(fresh_);
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
  // Reused across calls without making the const model mutable; per
  // thread, because concurrent trials run their walks on different
  // threads.
  thread_local std::vector<std::uint64_t> scratch;
  // A destination the prefilter clears is up and touches no down edge;
  // a lazy stay is always allowed.
  for_each_may_contain(
      world_.blocked_filter(), keys, begin, end, [&](std::size_t i) {
        const std::uint64_t from = prev[i - begin];
        if (pos[i] == from) {
          return;
        }
        const std::uint64_t from_key = base.key(from);
        if (world_.edge_down(from_key, keys[i])) {
          pos[i] = from;  // the traversed edge is down: the move fails
          keys[i] = from_key;
        } else if (world_.node_failed(keys[i])) {
          pos[i] = world_.deflect(from, scratch);
          keys[i] = base.key(pos[i]);
        }
      });
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
