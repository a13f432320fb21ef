// Runtime topology selection: a value-semantic, type-erased handle over
// any Topology, so scenario specs can pick the substrate at runtime
// ("run the Section 6.1 noise sweep on a hypercube instead of the
// torus") without instantiating a new template binary per graph family.
//
// The paper states Algorithm 1 over *any* regular substrate (Musco, Su
// & Lynch, PODC 2016, arXiv:1603.02981, Section 4), so the erasure
// boundary sits exactly at the Topology concept.  The hot path stays
// fast because the walk engine drives topologies through the *batched*
// calls — graph::random_neighbors for stepping and keys for occupancy —
// so a type-erased round costs two virtual calls total, not one per
// agent step (see docs/ARCHITECTURE.md, "The scenario layer").
//
// The virtual interface is typed on concrete generators, so each
// stepping operation is one virtual overloaded on the two the engines
// draw from — rng::Xoshiro256pp (single, sharded) and rng::WideStream
// (vector) — with both overloads sharing one template body that calls
// the wrapped topology's own dispatch.
//
// AnyTopology satisfies Topology, so every templated driver
// (run_walk, run_density_walk, run_property_walk, run_trials) accepts
// it unchanged, and walks through the handle are bit-identical
// to walks through the wrapped concrete topology at a fixed seed
// (tests/test_any_topology.cpp pins this differentially).
//
// Node handles are widened to uint64 (every concrete node_type fits).
// Copies share the immutable wrapped topology; all calls are const and
// thread-safe, so one handle can serve parallel trial runners.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/topology.hpp"
#include "rng/xoshiro256pp.hpp"
#include "rng/xoshiro_wide.hpp"
#include "util/check.hpp"

namespace antdense::graph {

/// The generators an AnyTopology steps and places with: one virtual
/// overload each.
template <typename G>
concept StepGenerator = std::same_as<G, rng::Xoshiro256pp> ||
                        std::same_as<G, rng::WideStream>;

class AnyTopology {
 public:
  using node_type = std::uint64_t;

  /// Wraps a concrete topology by value.
  template <Topology T>
    requires(!std::same_as<std::remove_cvref_t<T>, AnyTopology>)
  explicit AnyTopology(T topo)
      : impl_(std::make_shared<const Model<T>>(std::move(topo), nullptr)) {}

  /// Wraps a topology that *borrows* external storage (e.g. an
  /// ExplicitTopology over a Graph): `payload` is kept alive for the
  /// lifetime of every copy of the handle.
  template <Topology T>
  static AnyTopology with_payload(T topo,
                                  std::shared_ptr<const void> payload) {
    AnyTopology any;
    any.impl_ =
        std::make_shared<const Model<T>>(std::move(topo), std::move(payload));
    return any;
  }

  std::uint64_t num_nodes() const { return impl_->num_nodes(); }
  std::uint64_t degree() const { return impl_->degree(); }

  template <StepGenerator G>
  node_type random_node(G& gen) const {
    return impl_->random_node(gen);
  }
  template <StepGenerator G>
  node_type random_neighbor(node_type u, G& gen) const {
    return impl_->random_neighbor(u, gen, nullptr);
  }
  /// One step through the walk's row cache (graph::random_neighbor on
  /// the wrapped topology): the lazy walk's per-agent step.
  template <StepGenerator G>
  node_type random_neighbor(node_type u, G& gen, RowCache& rows) const {
    return impl_->random_neighbor(u, gen, &rows);
  }

  /// Batched stepping — one virtual call for the whole round, forwarding
  /// to graph::random_neighbors on the wrapped topology with the walk's
  /// row cache (same generator stream as sequential random_neighbor
  /// calls).  `out[i]` replaces `in[i]`; the spans may alias elementwise.
  template <StepGenerator G>
  void random_neighbors(std::span<const node_type> in,
                        std::span<node_type> out, G& gen,
                        RowCache& rows) const {
    ANTDENSE_CHECK(in.size() == out.size(),
                   "bulk neighbor sampling needs equal-sized spans");
    impl_->random_neighbors(in, out, gen, rows);
  }

  std::uint64_t key(node_type u) const { return impl_->key(u); }

  /// Batched key computation — the occupancy-counting counterpart of
  /// random_neighbors, again one virtual call per round.
  void keys(std::span<const node_type> nodes,
            std::span<std::uint64_t> out) const {
    ANTDENSE_CHECK(nodes.size() == out.size(),
                   "key batching needs equal-sized spans");
    impl_->keys(nodes, out);
  }

  /// Appends u's neighbors to `out` (ball enumeration for the generic
  /// local-density workload).  Throws if the wrapped topology cannot
  /// enumerate neighbors.
  void append_neighbors(node_type u, std::vector<node_type>& out) const {
    impl_->append_neighbors(u, out);
  }

  std::string name() const { return impl_->name(); }

  /// The wrapped topology when it is exactly a T, else nullptr — for
  /// consumers needing substrate-specific extras (coordinates, distance).
  template <Topology T>
  const T* target() const {
    const auto* model = dynamic_cast<const Model<T>*>(impl_.get());
    return model == nullptr ? nullptr : &model->topo;
  }

 private:
  AnyTopology() = default;

  struct Concept {
    virtual ~Concept() = default;
    virtual std::uint64_t num_nodes() const = 0;
    virtual std::uint64_t degree() const = 0;
    virtual node_type random_node(rng::Xoshiro256pp& gen) const = 0;
    virtual node_type random_node(rng::WideStream& gen) const = 0;
    /// `rows` null: a plain step; else one through the row cache.
    virtual node_type random_neighbor(node_type u, rng::Xoshiro256pp& gen,
                                      RowCache* rows) const = 0;
    virtual node_type random_neighbor(node_type u, rng::WideStream& gen,
                                      RowCache* rows) const = 0;
    virtual void random_neighbors(std::span<const node_type> in,
                                  std::span<node_type> out,
                                  rng::Xoshiro256pp& gen,
                                  RowCache& rows) const = 0;
    virtual void random_neighbors(std::span<const node_type> in,
                                  std::span<node_type> out,
                                  rng::WideStream& gen,
                                  RowCache& rows) const = 0;
    virtual std::uint64_t key(node_type u) const = 0;
    virtual void keys(std::span<const node_type> nodes,
                      std::span<std::uint64_t> out) const = 0;
    virtual void append_neighbors(node_type u,
                                  std::vector<node_type>& out) const = 0;
    virtual std::string name() const = 0;
  };

  template <Topology T>
  struct Model final : Concept {
    using wrapped_node = typename T::node_type;

    Model(T t, std::shared_ptr<const void> keep)
        : topo(std::move(t)), payload(std::move(keep)) {}

    std::uint64_t num_nodes() const override { return topo.num_nodes(); }
    std::uint64_t degree() const override { return topo.degree(); }

    node_type random_node(rng::Xoshiro256pp& gen) const override {
      return static_cast<node_type>(topo.random_node(gen));
    }
    node_type random_node(rng::WideStream& gen) const override {
      return static_cast<node_type>(topo.random_node(gen));
    }
    node_type random_neighbor(node_type u, rng::Xoshiro256pp& gen,
                              RowCache* rows) const override {
      return step_one(u, gen, rows);
    }
    node_type random_neighbor(node_type u, rng::WideStream& gen,
                              RowCache* rows) const override {
      return step_one(u, gen, rows);
    }
    void random_neighbors(std::span<const node_type> in,
                          std::span<node_type> out, rng::Xoshiro256pp& gen,
                          RowCache& rows) const override {
      step_all(in, out, gen, rows);
    }
    void random_neighbors(std::span<const node_type> in,
                          std::span<node_type> out, rng::WideStream& gen,
                          RowCache& rows) const override {
      step_all(in, out, gen, rows);
    }

    template <typename G>
    node_type step_one(node_type u, G& gen, RowCache* rows) const {
      const auto w = static_cast<wrapped_node>(u);
      return static_cast<node_type>(
          rows != nullptr ? graph::random_neighbor(topo, w, gen, *rows)
                          : topo.random_neighbor(w, gen));
    }

    template <typename G>
    void step_all(std::span<const node_type> in, std::span<node_type> out,
                  G& gen, RowCache& rows) const {
      if constexpr (std::same_as<wrapped_node, node_type>) {
        graph::random_neighbors(topo, in, out, gen, rows);
      } else {
        // Narrower node handles (ExplicitTopology's uint32) cannot view
        // the uint64 spans; step elementwise, which consumes the
        // generator exactly as graph::random_neighbors would.
        for (std::size_t i = 0; i < in.size(); ++i) {
          out[i] = static_cast<node_type>(topo.random_neighbor(
              static_cast<wrapped_node>(in[i]), gen));
        }
      }
    }

    std::uint64_t key(node_type u) const override {
      return topo.key(static_cast<wrapped_node>(u));
    }
    void keys(std::span<const node_type> nodes,
              std::span<std::uint64_t> out) const override {
      if constexpr (std::same_as<wrapped_node, node_type>) {
        graph::node_keys(topo, nodes, out);
      } else {
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          out[i] = topo.key(static_cast<wrapped_node>(nodes[i]));
        }
      }
    }

    void append_neighbors(node_type u,
                          std::vector<node_type>& out) const override {
      if constexpr (requires(const T& t, wrapped_node n) {
                      t.for_each_neighbor(n, [](wrapped_node) {});
                    }) {
        topo.for_each_neighbor(static_cast<wrapped_node>(u),
                               [&out](wrapped_node v) {
                                 out.push_back(static_cast<node_type>(v));
                               });
      } else {
        ANTDENSE_CHECK(false, "topology '" + topo.name() +
                                  "' cannot enumerate neighbors");
      }
    }

    std::string name() const override { return topo.name(); }

    T topo;
    std::shared_ptr<const void> payload;
  };

  std::shared_ptr<const Concept> impl_;
};

static_assert(Topology<AnyTopology>);

}  // namespace antdense::graph
