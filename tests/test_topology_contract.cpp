// Property-based contract suite shared by all nine topology families —
// the invariants every substrate must honor regardless of how it stores
// (or refuses to store) its adjacency:
//
//   - neighbor indices stay in [0, num_nodes)
//   - repeated sampling from a node hits exactly its enumerated
//     neighbor set (support agreement between random_neighbor and
//     append_neighbors)
//   - a fixed seed fixes the walk (determinism)
//   - batched graph::random_neighbors equals sequential calls
//     draw-for-draw, leaving the generator in the identical state (the
//     bit-stream contract the engines rely on) — also in place, for
//     empty and one-node batches, and at the implicit families' edges:
//     isolated nodes, and batches past the scratch entry budget
//   - batched keys equals scalar keys
//   - the ring and torus2d word-step kernel, which every engine steps
//     through, equals per-agent random_neighbor calls on both the
//     scalar and the wide generator, also on tori past 2^31 per side
//   - pinned walk estimates for the regular families on every engine
//
// Families are built through the scenario Registry, so this suite also
// exercises every registered spec string end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "estimates_digest.hpp"
#include "graph/any_topology.hpp"
#include "graph/ring.hpp"
#include "graph/torus2d.hpp"
#include "rng/xoshiro256pp.hpp"
#include "rng/xoshiro_wide.hpp"
#include "scenario/registry.hpp"

namespace antdense {
namespace {

struct FamilyCase {
  const char* spec;
  bool regular;  // nominal degree() equals every node's true degree
};

const FamilyCase kFamilies[] = {
    {"torus2d:9x7", true},
    {"ring:101", true},
    {"hypercube:6", true},
    {"toruskd:3x4", true},
    {"complete:33", true},
    {"expander:d=4,n=60,seed=3", true},
    {"rgg2d:n=196,r=0.12,seed=4", false},
    {"gnp:n=120,p=0.07,seed=4", false},
    {"ba:n=120,d=3,seed=4", false},
};

/// Stream pins for the regular families (the implicit ones are pinned in
/// tests/test_implicit_golden.cpp): whole density walks through the
/// scenario API on every engine, as estimates_digest.  300 agents, so a
/// batched step spans one full 256-agent block and a partial one; the
/// lazy rows send every step through the single-step
/// random_neighbor(u, gen, rows) path instead.  Any change to a family's
/// draws, their order or the batched-step dispatch shifts these digests.
struct WalkPin {
  const char* topology;
  const char* engine;
  bool lazy;  // "lazy":0.3
  const char* digest;
};

const WalkPin kWalkPins[] = {
    {"ring:1009", "single", false, "300:2796cb930d981af8"},
    {"ring:1009", "sharded", false, "300:7b7bd8f4a7e406cf"},
    {"ring:1009", "vector", false, "300:3c78c536d665e590"},
    {"torus2d:32x32", "single", false, "300:99b729639aa037df"},
    {"torus2d:32x32", "sharded", false, "300:00aa0a1611637ed2"},
    {"torus2d:32x32", "vector", false, "300:33ac26e4630c8612"},
    {"toruskd:3x8", "single", false, "300:b76752e6d1fc80b3"},
    {"toruskd:3x8", "sharded", false, "300:9d3819bfc5fb2d28"},
    {"toruskd:3x8", "vector", false, "300:6fece5e1e609cafd"},
    {"hypercube:10", "single", false, "300:b28a4af686fc8b09"},
    {"hypercube:10", "sharded", false, "300:80bfe297f8b3fab0"},
    {"hypercube:10", "vector", false, "300:12540874266b7b24"},
    {"complete:512", "single", false, "300:6953b474928aab7b"},
    {"complete:512", "sharded", false, "300:fd6b582566fd8767"},
    {"complete:512", "vector", false, "300:f9b51eeb407862d9"},
    {"expander:d=4,n=512,seed=3", "single", false, "300:32945db8f9271ca0"},
    {"expander:d=4,n=512,seed=3", "sharded", false, "300:71ebe0c2bc393a73"},
    {"expander:d=4,n=512,seed=3", "vector", false, "300:62fe261767cc3315"},
    {"toruskd:3x8", "single", true, "300:7a93a1aa3cab17dd"},
    {"toruskd:3x8", "sharded", true, "300:a66e7cd95c4c5f98"},
    {"toruskd:3x8", "vector", true, "300:86a13ceeabd59c66"},
};

graph::AnyTopology build(const FamilyCase& c) {
  return scenario::Registry::built_in().make(c.spec);
}

TEST(TopologyContract, WalkEstimatesArePinned) {
  for (const WalkPin& p : kWalkPins) {
    // Every pin shares the walk; only the topology, engine and laziness
    // vary.
    const std::string json =
        std::string(R"({"workload":"density","agents":300,"rounds":12,)") +
        R"("seed":5,"threads":2,"topology":")" + p.topology +
        R"(","engine":")" + p.engine + '"' +
        (p.lazy ? R"(,"lazy":0.3})" : "}");
    EXPECT_EQ(testing::estimates_digest(json), p.digest) << json;
  }
}

TEST(TopologyContract, NeighborIndicesStayInRange) {
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.spec);
    const graph::AnyTopology topo = build(c);
    rng::Xoshiro256pp gen(11);
    for (int i = 0; i < 500; ++i) {
      // Node handles may be packed coordinates (Torus2D); key() maps
      // them to dense indices, which is what must stay in range.
      const std::uint64_t u = topo.random_node(gen);
      ASSERT_LT(topo.key(u), topo.num_nodes());
      const std::uint64_t v = topo.random_neighbor(u, gen);
      ASSERT_LT(topo.key(v), topo.num_nodes());
    }
  }
}

TEST(TopologyContract, SamplingSupportMatchesEnumeratedNeighbors) {
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.spec);
    const graph::AnyTopology topo = build(c);
    rng::Xoshiro256pp gen(12);
    // Sample probe nodes through random_node — raw indices are not
    // necessarily valid handles for coordinate-packed families.
    std::set<std::uint64_t> probes;
    while (probes.size() < 3) {
      probes.insert(topo.random_node(gen));
    }
    for (const std::uint64_t u : probes) {
      std::vector<std::uint64_t> listed;
      topo.append_neighbors(u, listed);
      const std::set<std::uint64_t> expected(listed.begin(), listed.end());
      if (c.regular) {
        // Simple regular families: the multiset is the set and its size
        // is the nominal degree.
        EXPECT_EQ(listed.size(), topo.degree());
        EXPECT_EQ(expected.size(), listed.size());
      }
      const int draws =
          std::max<int>(4000, 60 * static_cast<int>(listed.size()));
      std::set<std::uint64_t> support;
      for (int i = 0; i < draws; ++i) {
        const std::uint64_t v = topo.random_neighbor(u, gen);
        if (expected.empty()) {
          // Isolated node (possible under gnp): must self-loop.
          EXPECT_EQ(v, u);
        } else {
          ASSERT_TRUE(expected.count(v))
              << "sampled " << v << " not a listed neighbor of " << u;
        }
        support.insert(v);
      }
      if (!expected.empty()) {
        EXPECT_EQ(support, expected)
            << "after " << draws << " draws from node " << u;
      }
    }
  }
}

TEST(TopologyContract, FixedSeedFixesTheWalk) {
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.spec);
    const graph::AnyTopology topo = build(c);
    constexpr std::uint64_t kSeed = 0xC0117AC7;
    std::vector<std::uint64_t> first;
    std::vector<std::uint64_t> second;
    for (auto* out : {&first, &second}) {
      rng::Xoshiro256pp gen(kSeed);
      std::uint64_t u = topo.random_node(gen);
      for (int i = 0; i < 200; ++i) {
        u = topo.random_neighbor(u, gen);
        out->push_back(u);
      }
    }
    EXPECT_EQ(first, second);
  }
}

/// Steps `nodes` once through graph::random_neighbors, both into a
/// separate output and in place (in == out), and once through sequential
/// random_neighbor calls: all three must agree, leaving the generators
/// in the identical state.
void expect_batched_equals_sequential(const graph::AnyTopology& topo,
                                      const std::vector<std::uint64_t>& nodes) {
  rng::Xoshiro256pp batched_gen(0xBA7C4);
  rng::Xoshiro256pp in_place_gen(0xBA7C4);
  rng::Xoshiro256pp sequential_gen(0xBA7C4);
  std::vector<std::uint64_t> batched(nodes.size());
  graph::random_neighbors(topo, std::span<const std::uint64_t>(nodes),
                          std::span<std::uint64_t>(batched), batched_gen);
  std::vector<std::uint64_t> in_place = nodes;
  graph::random_neighbors(topo, std::span<const std::uint64_t>(in_place),
                          std::span<std::uint64_t>(in_place), in_place_gen);
  std::vector<std::uint64_t> sequential(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    sequential[i] = topo.random_neighbor(nodes[i], sequential_gen);
  }
  EXPECT_EQ(batched, sequential);
  EXPECT_EQ(in_place, sequential);
  // Identical stream position afterwards: the next raw draw agrees.
  const std::uint64_t next = sequential_gen();
  EXPECT_EQ(batched_gen(), next);
  EXPECT_EQ(in_place_gen(), next);
}

std::vector<std::uint64_t> random_nodes(const graph::AnyTopology& topo,
                                        std::size_t count) {
  rng::Xoshiro256pp seeder(77);
  std::vector<std::uint64_t> nodes(count);
  for (auto& u : nodes) {
    u = topo.random_node(seeder);
  }
  return nodes;
}

TEST(TopologyContract, BatchedEqualsSequentialDrawForDraw) {
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.spec);
    const graph::AnyTopology topo = build(c);
    expect_batched_equals_sequential(topo, random_nodes(topo, 137));
    // Degenerate batches: empty, and every agent on one node.
    expect_batched_equals_sequential(topo, {});
    expect_batched_equals_sequential(
        topo, std::vector<std::uint64_t>(50, random_nodes(topo, 1)[0]));
  }
}

TEST(TopologyContract, ImplicitBatchesMatchSequentialAtTheEdges) {
  const scenario::Registry& reg = scenario::Registry::built_in();
  // Isolated-heavy substrates (mean degree ~0.5): a degree-0 node takes
  // no draw and self-loops, batched or not.
  for (const char* spec : {"gnp:n=200,p=0.0025,seed=2",
                           "rgg2d:n=400,r=0.02,seed=2"}) {
    SCOPED_TRACE(spec);
    const graph::AnyTopology topo = reg.make(spec);
    const std::vector<std::uint64_t> nodes = random_nodes(topo, 300);
    std::size_t isolated = 0;
    for (const std::uint64_t u : nodes) {
      std::vector<std::uint64_t> row;
      topo.append_neighbors(u, row);
      isolated += row.empty() ? 1 : 0;
    }
    EXPECT_GT(isolated, nodes.size() / 4);
    expect_batched_equals_sequential(topo, nodes);
  }
  // Dense gnp (rows of ~1000): the batch's distinct rows overflow the
  // scratch entry budget, so the row store restarts mid-batch.
  {
    const graph::AnyTopology topo = reg.make("gnp:n=2000,p=0.5,seed=2");
    expect_batched_equals_sequential(topo, random_nodes(topo, 300));
  }
  // ba with m = 160000 edges: one 20000-agent batch gathers more in-edges
  // than the budget holds, so its chunk is halved and swept again.  Too
  // many agents for a per-agent reference; small batches (under budget,
  // pinned against sequential above) stand in for it.
  {
    const graph::AnyTopology topo = reg.make("ba:n=40000,d=4,seed=2");
    const std::vector<std::uint64_t> nodes = random_nodes(topo, 20000);
    rng::Xoshiro256pp whole_gen(0xBA7C4);
    rng::Xoshiro256pp split_gen(0xBA7C4);
    std::vector<std::uint64_t> whole(nodes.size());
    graph::random_neighbors(topo, std::span<const std::uint64_t>(nodes),
                            std::span<std::uint64_t>(whole), whole_gen);
    std::vector<std::uint64_t> split(nodes.size());
    for (std::size_t lo = 0; lo < nodes.size(); lo += 2000) {
      graph::random_neighbors(
          topo, std::span<const std::uint64_t>(nodes).subspan(lo, 2000),
          std::span<std::uint64_t>(split).subspan(lo, 2000), split_gen);
    }
    EXPECT_EQ(whole, split);
    EXPECT_EQ(whole_gen(), split_gen());
  }
}

TEST(TopologyContract, BatchedKeysEqualScalarKeys) {
  for (const FamilyCase& c : kFamilies) {
    SCOPED_TRACE(c.spec);
    const graph::AnyTopology topo = build(c);
    rng::Xoshiro256pp gen(5);
    std::vector<std::uint64_t> nodes(64);
    for (auto& u : nodes) {
      u = topo.random_node(gen);
    }
    std::vector<std::uint64_t> batched(nodes.size());
    topo.keys(std::span<const std::uint64_t>(nodes),
              std::span<std::uint64_t>(batched));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(batched[i], topo.key(nodes[i]));
    }
  }
}

/// Steps `nodes` three rounds three ways from equal G generators:
/// graph::random_neighbors into a separate output, the same in place,
/// and per-agent random_neighbor calls.  All must agree, draw for draw.
template <typename G, typename T>
void expect_word_steps_match_per_agent(const T& topo,
                                       std::vector<std::uint64_t> nodes) {
  G out_gen(0x5EB);
  G in_place_gen(0x5EB);
  G sequential_gen(0x5EB);
  std::vector<std::uint64_t> out(nodes.size());
  std::vector<std::uint64_t> in_place = nodes;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint64_t> sequential(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      sequential[i] = topo.random_neighbor(nodes[i], sequential_gen);
    }
    graph::random_neighbors(topo, std::span<const std::uint64_t>(nodes),
                            std::span<std::uint64_t>(out), out_gen);
    ASSERT_EQ(out, sequential) << "round " << round;
    graph::random_neighbors(topo, std::span<const std::uint64_t>(in_place),
                            std::span<std::uint64_t>(in_place),
                            in_place_gen);
    ASSERT_EQ(in_place, sequential) << "round " << round;
    nodes = sequential;
  }
  const std::uint64_t next = sequential_gen();
  EXPECT_EQ(out_gen(), next);
  EXPECT_EQ(in_place_gen(), next);
}

/// 300 nodes, so a step crosses the kernel's 256-word block boundary:
/// `ends` first (the wrap cases), then uniform draws.
template <typename T>
std::vector<std::uint64_t> word_step_nodes(
    const T& topo, std::initializer_list<std::uint64_t> ends) {
  std::vector<std::uint64_t> nodes(ends);
  rng::Xoshiro256pp seeder(41);
  while (nodes.size() < 300) {
    nodes.push_back(topo.random_node(seeder));
  }
  return nodes;
}

template <typename T>
void expect_word_kernel_matches_per_agent(
    const T& topo, std::initializer_list<std::uint64_t> ends) {
  SCOPED_TRACE(topo.name());
  const std::vector<std::uint64_t> nodes = word_step_nodes(topo, ends);
  const graph::AnyTopology any(topo);
  expect_word_steps_match_per_agent<rng::Xoshiro256pp>(topo, nodes);
  expect_word_steps_match_per_agent<rng::WideStream>(topo, nodes);
  expect_word_steps_match_per_agent<rng::Xoshiro256pp>(any, nodes);
  expect_word_steps_match_per_agent<rng::WideStream>(any, nodes);
}

TEST(TopologyContract, WordStepKernelMatchesPerAgentSteps) {
  // Ring(2) would be a multigraph; the constructor rejects it.
  EXPECT_THROW(graph::Ring(2), std::invalid_argument);
  for (const std::uint64_t n : {3ULL, 997ULL}) {
    expect_word_kernel_matches_per_agent(graph::Ring(n), {0, n - 1});
  }
  // Rings above 2^63 nodes: u + size-1 carries out of 64 bits.
  for (const std::uint64_t n : {(1ULL << 63) + 2, ~0ULL}) {
    expect_word_kernel_matches_per_agent(graph::Ring(n),
                                         {0, n - 1, 1ULL << 63});
  }
  // Tori wider or taller than 2^31: x + width-1 must not wrap in 32 bits.
  for (const auto& [w, h] :
       {std::pair<std::uint32_t, std::uint32_t>{2, 2}, {48, 32},
        {3000000000u, 2}, {2, 3000000000u}}) {
    expect_word_kernel_matches_per_agent(
        graph::Torus2D(w, h),
        {graph::Torus2D::pack(0, 0), graph::Torus2D::pack(w - 1, h - 1),
         graph::Torus2D::pack(0, h - 1), graph::Torus2D::pack(w - 1, 0)});
  }
}

}  // namespace
}  // namespace antdense
