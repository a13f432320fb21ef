// Golden pins for the implicit-generator randomness derivation
// (graph/implicit_hash.hpp) and for the end-to-end neighborhoods built
// on it.  Like test_rng_stream's derive_stream pins: these values must
// hold on every platform, compiler, and release — an implicit topology
// IS its (family, params, seed) triple, so changing any derivation here
// silently re-goldens every recorded walk on rgg2d/gnp/ba.  Treat a
// failure as a contract break, not a test to update.  The stability
// contract is documented in docs/ARCHITECTURE.md.
#include "graph/implicit_hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <string>

#include "graph/ba.hpp"
#include "graph/gnp.hpp"
#include "graph/rgg2d.hpp"
#include "estimates_digest.hpp"
#include "rng/stream.hpp"
#include "scenario/experiment.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace antdense::graph {
namespace {

using implicit_hash::ba_attach_seed;
using implicit_hash::gnp_edge_word;
using implicit_hash::rgg2d_jitter_word;

// The families hoist the constant (seed, tag) prefix of their derivations
// out of the per-node / per-edge loops.  That is exact only because a
// multi-index derive_seed is the fold of single-index steps.
static_assert(rng::derive_seed(42, implicit_hash::kRgg2DJitterTag, 7) ==
              rng::derive_seed(
                  rng::derive_seed(42, implicit_hash::kRgg2DJitterTag), 7));
static_assert(rng::derive_seed(7, implicit_hash::kGnpEdgeTag, 3, 9) ==
              rng::derive_seed(
                  rng::derive_seed(
                      rng::derive_seed(7, implicit_hash::kGnpEdgeTag), 3),
                  9));
static_assert(rng::derive_seed(0xDEADBEEFULL, implicit_hash::kBaAttachTag,
                               9) ==
              rng::derive_seed(
                  rng::derive_seed(0xDEADBEEFULL, implicit_hash::kBaAttachTag),
                  9));

TEST(ImplicitHash, PinnedRgg2DJitterWords) {
  EXPECT_EQ(rgg2d_jitter_word(0, 0), 0xdc313656b975a2b0ULL);
  EXPECT_EQ(rgg2d_jitter_word(0, 1), 0x3d5ac1f30738f373ULL);
  EXPECT_EQ(rgg2d_jitter_word(42, 7), 0x1dde39a60f92846bULL);
  EXPECT_EQ(rgg2d_jitter_word(0xDEADBEEFULL, 3), 0x4a0babb23111ce40ULL);
}

TEST(ImplicitHash, PinnedGnpEdgeWords) {
  EXPECT_EQ(gnp_edge_word(0, 0, 1), 0xad946db2ce9b4ad6ULL);
  EXPECT_EQ(gnp_edge_word(0, 1, 2), 0xc9d1ce33c2e710afULL);
  EXPECT_EQ(gnp_edge_word(7, 3, 9), 0xe5ad8647bf18f15aULL);
  EXPECT_EQ(gnp_edge_word(0xDEADBEEFULL, 5, 6), 0xd53be35d098be384ULL);
}

TEST(ImplicitHash, PinnedBaAttachSeeds) {
  EXPECT_EQ(ba_attach_seed(0, 0), 0xe8721fa02b22c7abULL);
  EXPECT_EQ(ba_attach_seed(0, 1), 0x1546e5598acb2e4bULL);
  EXPECT_EQ(ba_attach_seed(42, 100), 0xbbba333d63ed301aULL);
  EXPECT_EQ(ba_attach_seed(0xDEADBEEFULL, 9), 0x75293d735f1ad343ULL);
}

TEST(ImplicitHash, DerivationsAreConstexpr) {
  static_assert(rgg2d_jitter_word(1, 2) != rgg2d_jitter_word(2, 1),
                "jitter derivation must separate seed from node index");
  static_assert(gnp_edge_word(0, 1, 2) != gnp_edge_word(0, 2, 1),
                "callers canonicalize pair order; the hash itself is "
                "order-sensitive");
  static_assert(ba_attach_seed(5, 0) == ba_attach_seed(5, 0));
}

TEST(ImplicitHash, DomainsAreSeparated) {
  // The three family tags, the sharded engine's stream tag, and plain
  // derive_seed must never collide on the same (seed, index) inputs —
  // a node's RGG jitter re-used as a GNP edge word would correlate
  // substrates that share a user seed.
  for (std::uint64_t seed : {0ull, 1ull, 42ull}) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      std::set<std::uint64_t> words = {
          rgg2d_jitter_word(seed, i), gnp_edge_word(seed, i, i + 1),
          ba_attach_seed(seed, i), rng::derive_stream(seed, i),
          rng::derive_seed(seed, i)};
      EXPECT_EQ(words.size(), 5u) << "seed " << seed << " index " << i;
    }
  }
}

// ---------------------------------------------------------------------
// End-to-end pins: the full constructions (fixed-point geometry,
// threshold compares, attachment chains), not just the hash words.
// ---------------------------------------------------------------------

TEST(ImplicitGolden, Rgg2DGeometryIsPinned) {
  const Rgg2D rgg(10000, 0.03, 42);
  EXPECT_EQ(rgg.side(), 100u);
  EXPECT_EQ(rgg.reach(), 4u);
  const Rgg2D::Position p = rgg.position(1234);
  EXPECT_EQ(p.x, 146937632820ULL);
  EXPECT_EQ(p.y, 55248339318ULL);
  EXPECT_EQ(rgg.degree_of(0), 27u);
  EXPECT_EQ(rgg.degree_of(1234), 29u);
  EXPECT_EQ(rgg.degree_of(9999), 27u);
  std::vector<std::uint64_t> first;
  rgg.for_each_neighbor(1234, [&](std::uint64_t v) {
    if (first.size() < 3) {
      first.push_back(v);
    }
  });
  EXPECT_EQ(first, (std::vector<std::uint64_t>{1033, 1034, 1035}));
}

TEST(ImplicitGolden, GnpAdjacencyIsPinned) {
  const Gnp gnp(500, 0.02, 42);
  EXPECT_EQ(gnp.degree_of(0), 10u);
  EXPECT_EQ(gnp.degree_of(250), 11u);
  EXPECT_FALSE(gnp.connected(3, 77));
  EXPECT_FALSE(gnp.connected(0, 1));
  std::vector<std::uint64_t> first;
  gnp.for_each_neighbor(250, [&](std::uint64_t v) {
    if (first.size() < 3) {
      first.push_back(v);
    }
  });
  EXPECT_EQ(first, (std::vector<std::uint64_t>{51, 93, 132}));
}

TEST(ImplicitGolden, BaAttachmentChainsArePinned) {
  const Ba ba(1000, 3, 42);
  EXPECT_EQ(ba.target_of(0), 0u);  // edge 0 is the node-0 self-loop
  EXPECT_EQ(ba.target_of(5), 1u);
  EXPECT_EQ(ba.target_of(100), 9u);
  EXPECT_EQ(ba.target_of(2999), 849u);
  EXPECT_EQ(ba.degree_of(0), 52u);
  EXPECT_EQ(ba.degree_of(500), 4u);
}

// ---------------------------------------------------------------------
// Stream pins: whole walks on the implicit families, through the
// scenario API on every engine.  Each neighbor step consumes exactly one
// uniform_below(degree) draw (none at an isolated node) and picks by
// index in for_each_neighbor order; any change to either shifts these
// digests.  Covered: the batched step of all three engines, the
// per-agent step (lazy walks interleave stay/step draws), and the
// neighbor enumeration order (local density walks graph balls).
// ---------------------------------------------------------------------

using testing::estimates_digest;

TEST(ImplicitStreamPins, WalkEstimatesArePinned) {
  const struct {
    const char* json;
    const char* digest;
  } pins[] = {
      {R"({"topology":"rgg2d:n=400,r=0.1,seed=3","workload":"density",
           "agents":40,"rounds":12,"seed":5,"engine":"single"})",
       "40:9e6b248ff42797dd"},
      {R"({"topology":"rgg2d:n=400,r=0.1,seed=3","workload":"density",
           "agents":40,"rounds":12,"seed":5,"engine":"sharded","threads":2})",
       "40:ce6e178b0a0fb855"},
      {R"({"topology":"rgg2d:n=400,r=0.1,seed=3","workload":"density",
           "agents":40,"rounds":12,"seed":5,"engine":"vector"})",
       "40:07be08ae2000daa6"},
      {R"({"topology":"gnp:n=300,p=0.02,seed=3","workload":"density",
           "agents":40,"rounds":12,"seed":5,"engine":"single"})",
       "40:1f301469c6de38be"},
      {R"({"topology":"gnp:n=300,p=0.02,seed=3","workload":"density",
           "agents":40,"rounds":12,"seed":5,"engine":"sharded","threads":2})",
       "40:727bc5a4fc01ed68"},
      {R"({"topology":"gnp:n=300,p=0.02,seed=3","workload":"density",
           "agents":40,"rounds":12,"seed":5,"engine":"vector"})",
       "40:c9a86fc100f4fa64"},
      {R"({"topology":"ba:n=300,d=3,seed=3","workload":"density",
           "agents":40,"rounds":12,"seed":5,"engine":"single"})",
       "40:0df867ea52ea4d85"},
      {R"({"topology":"ba:n=300,d=3,seed=3","workload":"density",
           "agents":40,"rounds":12,"seed":5,"engine":"sharded","threads":2})",
       "40:40f54eb832c6308e"},
      {R"({"topology":"ba:n=300,d=3,seed=3","workload":"density",
           "agents":40,"rounds":12,"seed":5,"engine":"vector"})",
       "40:a3739337245bff8f"},
      {R"({"topology":"gnp:n=300,p=0.02,seed=3","workload":"density",
           "agents":40,"rounds":12,"seed":5,"lazy":0.3,"engine":"single"})",
       "40:06f68de2705b6c36"},
      {R"({"topology":"rgg2d:n=2500,r=0.04,seed=3","workload":"local-density",
           "agents":40,"rounds":12,"seed":5,"tracked":4,"radius":2,
           "engine":"single"})",
       "40:704c6c132b51f574"},
  };
  for (const auto& p : pins) {
    EXPECT_EQ(estimates_digest(p.json), p.digest) << p.json;
  }
}

struct DocumentPin {
  const char* json;
  const char* hash;
};

/// Runs each spec and checks the FNV-1a hash of its whole result
/// document (to_json() minus the wall-clock fields, dumped compact).
void expect_documents_pinned(std::span<const DocumentPin> pins) {
  for (const DocumentPin& pin : pins) {
    const scenario::ScenarioResult result =
        scenario::Experiment(
            scenario::ScenarioSpec::from_json(util::JsonValue::parse(pin.json)))
            .run();
    util::JsonValue doc = result.to_json();
    doc.erase("elapsed_seconds");
    doc.erase("elapsed_ns");
    EXPECT_EQ(util::hex64(util::fnv1a64(doc.dump(0))), pin.hash) << pin.json;
  }
}

TEST(ImplicitStreamPins, GnpResultDocumentsArePinned) {
  // Whole gnp result documents at the benchmark's gnp size: rows are
  // revisited round after round, by one shard (single, vector), by three
  // shards of one walk (9000 agents at the default 4096-agent grain) and
  // block by block under churn.  How a batched sampler stores rows
  // between calls must never show here.
  const DocumentPin pins[] = {
      {R"({"topology":"gnp:n=2000,p=0.004,seed=1","workload":"density",
           "agents":1000,"rounds":20,"seed":7,"engine":"single"})",
       "813a568c450cd474"},
      {R"({"topology":"gnp:n=2000,p=0.004,seed=1","workload":"density",
           "agents":1000,"rounds":20,"seed":7,"engine":"vector"})",
       "d0197589f718f65e"},
      {R"({"topology":"gnp:n=2000,p=0.004,seed=1","workload":"density",
           "agents":9000,"rounds":10,"seed":7,"engine":"sharded"})",
       "579c83c9e3644b4c"},
      {R"({"topology":"gnp:n=2000,p=0.004,seed=1","workload":"density",
           "agents":1000,"rounds":20,"seed":7,"engine":"single",
           "dynamics":"churn:p_edge=0.0005,p_fail=0.00025"})",
       "1ce341a0bda7d941"},
  };
  expect_documents_pinned(pins);
}

TEST(ImplicitStreamPins, BaResultDocumentsArePinned) {
  // Whole ba result documents at the benchmark's ba size: one round on
  // every engine (the benchmark's ops), 200 rounds on one shard, three
  // shards of one walk, a lazy walk (each agent steps alone) and a churn
  // walk.  How a sampler gathers ba's rows must never show here.
  const DocumentPin pins[] = {
      {R"({"topology":"ba:n=2000,d=4,seed=1","workload":"density",
           "agents":1000,"rounds":1,"seed":7,"engine":"single"})",
       "61dc8ef9a9f01671"},
      {R"({"topology":"ba:n=2000,d=4,seed=1","workload":"density",
           "agents":1000,"rounds":1,"seed":7,"engine":"sharded"})",
       "d5fc5f7851ae34c1"},
      {R"({"topology":"ba:n=2000,d=4,seed=1","workload":"density",
           "agents":1000,"rounds":1,"seed":7,"engine":"vector"})",
       "dd930407aa1a8f53"},
      {R"({"topology":"ba:n=2000,d=4,seed=1","workload":"density",
           "agents":1000,"rounds":200,"seed":7,"engine":"single"})",
       "b4f7c4f8aa224f1b"},
      {R"({"topology":"ba:n=2000,d=4,seed=1","workload":"density",
           "agents":9000,"rounds":10,"seed":7,"engine":"sharded"})",
       "63910796df6497e5"},
      {R"({"topology":"ba:n=2000,d=4,seed=1","workload":"density",
           "agents":200,"rounds":5,"seed":7,"lazy":0.3,"engine":"single"})",
       "e5c6f524875af194"},
      {R"({"topology":"ba:n=2000,d=4,seed=1","workload":"density",
           "agents":1000,"rounds":20,"seed":7,"engine":"single",
           "dynamics":"churn:p_edge=0.0005,p_fail=0.00025"})",
       "839e8bd4d89fe103"},
  };
  expect_documents_pinned(pins);
}

}  // namespace
}  // namespace antdense::graph
