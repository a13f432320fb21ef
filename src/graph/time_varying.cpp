#include "graph/time_varying.hpp"

#include "rng/random.hpp"
#include "util/check.hpp"

namespace antdense::graph {

namespace {

/// One recovery sweep over an insertion-ordered set: one Bernoulli per
/// element in order, then swap-and-pop the recovered positions from the
/// back so earlier removals never move an element that is still pending
/// a decision.  Returns whether any element recovered.
template <class Key, class Index>
bool sweep(std::vector<Key>& items, Index& index, double p,
           rng::Xoshiro256pp& gen, std::vector<std::size_t>& recovered) {
  recovered.clear();
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (rng::bernoulli(gen, p)) {
      recovered.push_back(i);
    }
  }
  for (std::size_t r = recovered.size(); r-- > 0;) {
    const std::size_t i = recovered[r];
    index.erase(items[i], items);
    if (i + 1 != items.size()) {
      // The back key's slot is found through items.back() before the
      // pop, then pointed at its new position.
      items[i] = items.back();
      index.set(items[i], i, items);
    }
    items.pop_back();
  }
  return !recovered.empty();
}

}  // namespace

TimeVaryingWorld::TimeVaryingWorld(const AnyTopology& topo) : topo_(&topo) {}

void TimeVaryingWorld::rebuild_filters() {
  failed_filter_.reset(failed_.size());
  blocked_filter_.reset(failed_.size() + 2 * down_.size());
  for (const std::uint64_t key : failed_) {
    failed_filter_.insert(key);
    blocked_filter_.insert(key);
  }
  for (const EdgeKey& e : down_) {
    blocked_filter_.insert(e.first);
    blocked_filter_.insert(e.second);
  }
}

bool TimeVaryingWorld::filters_outgrown() const {
  return failed_filter_.outgrown_by(failed_.size()) ||
         blocked_filter_.outgrown_by(failed_.size() + 2 * down_.size());
}

bool TimeVaryingWorld::fail_node(node_type u) {
  const std::uint64_t key = topo_->key(u);
  if (node_failed(key)) {
    return false;
  }
  failed_.push_back(key);
  failed_index_.set(key, failed_.size() - 1, failed_);
  if (filters_outgrown()) {
    rebuild_filters();
  } else {
    failed_filter_.insert(key);
    blocked_filter_.insert(key);
  }
  return true;
}

bool TimeVaryingWorld::drop_edge(node_type u, node_type v) {
  ANTDENSE_CHECK(u != v, "an edge needs two distinct endpoints");
  const EdgeKey key = canonical_edge(topo_->key(u), topo_->key(v));
  if (down_index_.contains(key, down_)) {
    return false;
  }
  down_.push_back(key);
  down_index_.set(key, down_.size() - 1, down_);
  if (filters_outgrown()) {
    rebuild_filters();
  } else {
    blocked_filter_.insert(key.first);
    blocked_filter_.insert(key.second);
  }
  return true;
}

void TimeVaryingWorld::recover(double recover_probability,
                               rng::Xoshiro256pp& gen) {
  ANTDENSE_CHECK(recover_probability >= 0.0 && recover_probability <= 1.0,
                 "recovery probability must be in [0,1]");
  if (recover_probability == 0.0) {
    return;
  }
  const bool nodes_recovered =
      sweep(failed_, failed_index_, recover_probability, gen, recovered_);
  const bool edges_recovered =
      sweep(down_, down_index_, recover_probability, gen, recovered_);
  if (nodes_recovered || edges_recovered) {
    rebuild_filters();  // bits cannot be cleared one key at a time
  }
}

TimeVaryingWorld::node_type TimeVaryingWorld::deflect(
    node_type from, std::vector<node_type>& scratch) const {
  const std::uint64_t from_key = topo_->key(from);
  scratch.clear();
  topo_->append_neighbors(from, scratch);
  node_type best = from;
  std::uint64_t best_key = 0;
  bool found = false;
  for (const node_type w : scratch) {
    const std::uint64_t w_key = topo_->key(w);
    if (w_key == from_key || node_failed(w_key) ||
        edge_down(from_key, w_key)) {
      continue;
    }
    if (!found || w_key < best_key) {
      best = w;
      best_key = w_key;
      found = true;
    }
  }
  return best;
}

}  // namespace antdense::graph
