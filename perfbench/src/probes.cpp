// The per-layer probes of the traced run.  Each probe times calls into
// one layer's public functions from this program (one span per timed
// call, median over repetitions) on fixed, seeded inputs shaped like the
// workloads' own — so every traced run reports every layer, and each
// number names the end-to-end metric it should move (perfbench/README.md).
#include <unistd.h>

#include <filesystem>

#include "bench.hpp"
#include "campaign/journal.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "graph/topology.hpp"
#include "obs/telemetry.hpp"
#include "rng/xoshiro256pp.hpp"
#include "scenario/dynamics_registry.hpp"
#include "scenario/registry.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/collision_counter.hpp"
#include "sim/dense_counter.hpp"
#include "sim/density_sim.hpp"
#include "sim/dynamic_world.hpp"
#include "sim/sharded_walk.hpp"
#include "sim/vector_walk.hpp"
#include "util/socket.hpp"

namespace perfbench {

namespace {

namespace graph = antdense::graph;
namespace sim = antdense::sim;
namespace scenario = antdense::scenario;
namespace campaign = antdense::campaign;
namespace serve = antdense::serve;
namespace obs = antdense::obs;
namespace util = antdense::util;
namespace fs = std::filesystem;

class Probes {
 public:
  Probes(const Options& options, Checks& checks, Tracer& tracer,
         std::vector<Metric>& out)
      : options_(options),
        checks_(checks),
        tracer_(tracer),
        out_(out),
        tiny_(options.tiny),
        dir_(fs::path(options.out_dir) /
             ("tmp-probes-" + std::to_string(getpid()))) {
    fs::create_directories(dir_);
  }

  ~Probes() {
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  void run_all() {
    graph_layer();
    sim_layer();
    scenario_layer();
    campaign_layer();
    serve_layer();
    util_layer();
  }

 private:
  /// Median seconds of `reps` calls of `fn`, each in its own span.
  template <typename Fn>
  double timed(const std::string& name, const char* layer, int reps, Fn&& fn) {
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
      Tracer::Scope span(&tracer_, name, layer);
      fn();
      samples.push_back(span.seconds());
    }
    return median(samples);
  }

  void emit(const std::string& name, double value, const std::string& unit) {
    out_.push_back({name, value, unit});
  }

  // --- graph: neighbour sampling, keys, topology construction ----------

  struct Family {
    std::string name, spec;
    std::uint32_t agents, rounds;
    int reps;
  };

  std::vector<Family> families() const {
    if (tiny_) {
      return {{"torus2d", "torus2d:200x200", 4000, 2, 3},
              {"rgg2d", "rgg2d:n=100000,r=0.005,seed=1", 1000, 2, 3},
              {"gnp", "gnp:n=600,p=0.013,seed=1", 200, 1, 3},
              {"ba", "ba:n=500,d=4,seed=1", 50, 1, 3}};
    }
    return {{"torus2d", "torus2d:1000x1000", 100000, 4, 9},
            {"rgg2d", "rgg2d:n=1000000,r=0.0016,seed=1", 10000, 4, 5},
            {"gnp", "gnp:n=2000,p=0.004,seed=1", 1000, 2, 5},
            {"ba", "ba:n=2000,d=4,seed=1", 250, 1, 3}};
  }

  void graph_layer() {
    const scenario::Registry& registry = scenario::Registry::built_in();
    for (const Family& f : families()) {
      const graph::AnyTopology topo = registry.make(f.spec);
      antdense::rng::Xoshiro256pp gen(options_.seed);
      std::vector<std::uint64_t> pos(f.agents);
      for (auto& p : pos) {
        p = topo.random_node(gen);
      }
      const double step = timed("graph::random_neighbors." + f.name, "graph",
                                f.reps, [&] {
                                  for (std::uint32_t r = 0; r < f.rounds; ++r) {
                                    graph::random_neighbors(
                                        topo,
                                        std::span<const std::uint64_t>(pos),
                                        std::span<std::uint64_t>(pos), gen);
                                  }
                                });
      emit("graph.step_ns." + f.name,
           step * 1e9 / (static_cast<double>(f.agents) * f.rounds), "ns");
      if (f.name == "torus2d" || f.name == "rgg2d") {
        std::vector<std::uint64_t> keys(f.agents);
        const double key = timed("graph::node_keys." + f.name, "graph", 9, [&] {
          graph::node_keys(topo, std::span<const std::uint64_t>(pos),
                           std::span<std::uint64_t>(keys));
        });
        emit("graph.key_ns." + f.name, key * 1e9 / f.agents, "ns");
      }
    }
    std::vector<std::pair<std::string, std::string>> builds;
    for (const Family& f : families()) {
      builds.emplace_back(f.name, f.spec);
    }
    builds.emplace_back("expander", "expander:d=8,n=512,seed=7");
    for (const auto& [name, spec] : builds) {
      const double build = timed("Registry::make." + name, "graph", 5, [&] {
        const graph::AnyTopology topo = registry.make(spec);
        checks_.record(topo.num_nodes() > 0, "Registry::make " + spec);
      });
      emit("graph.build_ms." + name, build * 1e3, "ms");
    }
  }

  // --- sim: the walk engines and the collision counters ----------------

  void sim_layer() {
    const std::string spec = tiny_ ? "torus2d:200x200" : "torus2d:1000x1000";
    const graph::AnyTopology topo = scenario::Registry::built_in().make(spec);
    sim::DensityConfig cfg;
    cfg.num_agents = tiny_ ? 4000 : 100000;
    cfg.rounds = tiny_ ? 4 : 16;
    const double agent_rounds = static_cast<double>(cfg.num_agents) * cfg.rounds;
    const int reps = 3;
    const std::uint64_t seed = options_.seed;
    const unsigned t = options_.threads();
    const auto& models = scenario::DynamicsRegistry::built_in();

    std::vector<std::uint64_t> t1_counts;
    std::vector<std::uint64_t> tn_counts;
    auto walk = [&](const std::string& engine) {
      if (engine == "single") {
        sim::run_density_walk(topo, cfg, seed);
      } else if (engine == "sharded_t1") {
        t1_counts = sim::run_density_walk_sharded(
                        topo, cfg, seed, sim::ShardExec{.threads = 1})
                        .collision_counts;
      } else if (engine == "sharded_t4") {
        tn_counts = sim::run_density_walk_sharded(
                        topo, cfg, seed, sim::ShardExec{.threads = t})
                        .collision_counts;
      } else if (engine == "vector") {
        sim::run_density_walk_vector(topo, cfg, seed);
      } else {
        const auto model = models.make(
            engine == "dyn0" ? "churn:p_edge=0,p_fail=0"
                             : "churn:p_edge=0.0005,p_fail=0.00025",
            topo, cfg.num_agents);
        sim::run_dynamic_density_walk(topo, cfg, *model, seed);
      }
    };
    for (const std::string engine :
         {"single", "sharded_t1", "sharded_t4", "vector", "dyn0", "churn"}) {
      const double s = timed("sim.walk." + engine, "sim", reps,
                             [&] { walk(engine); });
      walk_ns_[engine] = s * 1e9 / agent_rounds;
      emit("sim.walk_ns." + engine, walk_ns_[engine], "ns");
    }
    checks_.record(!t1_counts.empty() && t1_counts == tn_counts,
                   "sim: sharded threads=1 and threads=" + std::to_string(t) +
                       " counts differ");
    emit("sim.shard_speedup_t4",
         walk_ns_["sharded_t1"] / walk_ns_["sharded_t4"], "x");

    // Counting one round's keys into each counter.
    antdense::rng::Xoshiro256pp gen(seed);
    std::vector<std::uint64_t> pos(cfg.num_agents);
    for (auto& p : pos) {
      p = topo.random_node(gen);
    }
    std::vector<std::uint64_t> keys(cfg.num_agents);
    graph::node_keys(topo, std::span<const std::uint64_t>(pos),
                     std::span<std::uint64_t>(keys));
    sim::CollisionCounter hash(cfg.num_agents);
    sim::DenseCollisionCounter dense(topo.num_nodes());
    const double hash_s = timed("CollisionCounter::add", "sim", 9, [&] {
      hash.begin_round();
      for (std::uint64_t k : keys) {
        hash.add(k);
      }
    });
    const double dense_s = timed("DenseCollisionCounter::add", "sim", 9, [&] {
      dense.begin_round();
      for (std::uint64_t k : keys) {
        dense.add(k);
      }
    });
    checks_.record(hash.occupancy(keys[0]) == dense.occupancy(keys[0]),
                   "sim: hash and dense counters disagree");
    emit("sim.count_ns.hash", hash_s * 1e9 / keys.size(), "ns");
    emit("sim.count_ns.dense", dense_s * 1e9 / keys.size(), "ns");

    // Phase shares from the exact _sum of the engines' phase histograms
    // (the static walks have no mutate phase; churn reports only its own).
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        phases = {{"single", {"step", "count", "observe"}},
                  {"sharded_t4", {"step_count", "observe"}},
                  {"vector", {"step", "count", "observe"}},
                  {"churn", {"mutate"}}};
    for (const auto& [engine, names] : phases) {
      obs::MetricsRegistry registry;
      obs::Telemetry telemetry{&registry, nullptr};
      {
        const obs::ScopedTelemetry ambient(&telemetry);
        Tracer::Scope span(&tracer_, "sim.walk.phases." + engine, "sim");
        walk(engine);
      }
      const std::map<std::string, double> sums =
          phase_sums(registry.to_json());
      double total = 0.0;
      for (const auto& [key, s] : sums) {
        total += s;
      }
      const std::string label = engine == "sharded_t4" ? "sharded" : engine;
      const std::string tap = engine == "churn" ? "single" : label;
      for (const std::string& phase : names) {
        const auto it = sums.find(tap + "." + phase);
        const double s = it == sums.end() ? 0.0 : it->second;
        emit("sim.phase_share." + label + "." + phase,
             total > 0.0 ? s / total : 0.0, "fraction");
      }
    }
  }

  // --- scenario: construction, serialization, overhead over the walk ---

  void scenario_layer() {
    const scenario::ScenarioSpec planned =
        parse_spec(lattice_spec_json(options_, "single", 0, 1));
    const double construct = timed("Experiment::Experiment", "scenario", 9,
                                   [&] { scenario::Experiment e(planned); });
    emit("scenario.construct_ms", construct * 1e3, "ms");

    const std::uint32_t rounds = tiny_ ? 4 : 16;
    const double agent_rounds = (tiny_ ? 4000.0 : 100000.0) * rounds;
    scenario::ScenarioResult result;
    for (const std::string engine : {"single", "sharded", "vector"}) {
      const unsigned threads = engine == "sharded" ? options_.threads() : 1;
      const scenario::Experiment experiment(
          parse_spec(lattice_spec_json(options_, engine, rounds, threads)));
      const double run = timed("Experiment::run." + engine, "scenario", 3,
                               [&] { result = experiment.run(); });
      const std::string walk = engine == "sharded" ? "sharded_t4" : engine;
      emit("scenario.overhead_ratio." + engine,
           run / (walk_ns_[walk] * 1e-9 * agent_rounds), "x");
    }
    const double serialize =
        timed("ScenarioResult::to_json+dump", "scenario", 5,
              [&] { document_ = result.to_json().dump(0); });
    emit("scenario.serialize_ms", serialize * 1e3, "ms");
    emit("scenario.result_bytes", static_cast<double>(document_.size()),
         "bytes");
  }

  // --- campaign: expansion, journal appends, worker scaling -------------

  void campaign_layer() {
    const campaign::CampaignSpec spec =
        campaign::CampaignSpec::from_json(JsonValue::parse(
            campaign_grid_json(options_)));
    std::vector<campaign::PlannedExperiment> planned;
    const double expand = timed("CampaignSpec::expand", "campaign", 9,
                                [&] { planned = spec.expand(); });
    emit("campaign.expand_ms", expand * 1e3, "ms");

    const std::size_t n = std::min<std::size_t>(planned.size(), 24);
    std::vector<JsonValue> records;
    for (std::size_t i = 0; i < n; ++i) {
      records.push_back(campaign::make_record(
          planned[i], scenario::Experiment(planned[i].spec).run(), spec.name));
    }
    const std::string path = (dir_ / "append.jsonl").string();
    std::vector<double> appends;
    double bytes = 0.0;
    {
      campaign::Journal journal(path);
      for (const JsonValue& record : records) {
        Tracer::Scope span(&tracer_, "Journal::append", "campaign");
        bytes += static_cast<double>(journal.append(record));
        appends.push_back(span.seconds());
      }
    }
    checks_.record(campaign::Journal::load(path).size() == n,
                   "campaign: journal did not read back every append");
    emit("campaign.journal_append_us", median(appends) * 1e6, "us");
    emit("campaign.journal_bytes_per_exp", bytes / static_cast<double>(n),
         "bytes");

    std::map<unsigned, std::vector<double>> sweeps;
    for (int rep = 0; rep < 3; ++rep) {
      for (const unsigned workers : {1u, options_.threads()}) {
        const std::string journal = (dir_ / "sweep.jsonl").string();
        fs::remove(journal);
        campaign::RunOptions run;
        run.threads = workers;
        Tracer::Scope span(&tracer_, "run_campaign.w" + std::to_string(workers),
                           "campaign");
        campaign::run_campaign(spec, journal, run);
        sweeps[workers].push_back(span.seconds());
      }
    }
    emit("campaign.scale_w4",
         median(sweeps[1]) / median(sweeps[options_.threads()]), "x");
  }

  // --- serve: cache tiers, warm index, framing, daemon round trips -----

  void serve_layer() {
    SeedStream s(options_.seed, 0x5E7E);
    const std::size_t pool = tiny_ ? 8 : 32;
    std::vector<std::string> specs;
    std::vector<std::string> ids;
    std::vector<std::string> payloads;
    std::uint64_t pool_bytes = 0;
    const std::string journal = (dir_ / "cache.jsonl").string();
    {
      serve::ResultCache writer(journal, 1ULL << 30);
      for (std::size_t i = 0; i < pool; ++i) {
        specs.push_back(daemon_spec_json(s, 200, 400));
        ids.push_back(parse_spec(specs.back())
                          .identity_hash(scenario::Registry::built_in()));
        payloads.push_back(direct_payload(specs.back()));
        pool_bytes += payloads.back().size();
        writer.get_or_run(ids.back(), [&] { return payloads.back(); });
      }
    }
    const std::uint64_t budget = pool_bytes * 2 / 5;

    const double index = timed("ResultCache::ResultCache", "serve", 5, [&] {
      serve::ResultCache cache(journal, budget);
    });
    emit("serve.warm_index_ms", index * 1e3, "ms");

    // Tier lookups: a disk lookup promotes into memory, a repeat of the
    // same id is then a memory hit.
    serve::ResultCache cache(journal, budget);
    std::vector<double> memory;
    std::vector<double> disk;
    for (std::size_t round = 0; round < (tiny_ ? 2u : 8u); ++round) {
      for (std::size_t i = 0; i < pool; ++i) {
        std::string payload;
        const bool resident = cache.in_memory(ids[i]);
        Tracer::Scope span(&tracer_, "ResultCache::lookup", "serve");
        const bool found = cache.lookup(ids[i], &payload);
        (resident ? memory : disk).push_back(span.seconds());
        checks_.record(found && payload == payloads[i],
                       "serve: cache lookup returned other bytes");
        if (!resident) {
          Tracer::Scope again(&tracer_, "ResultCache::lookup", "serve");
          cache.lookup(ids[i], &payload);
          memory.push_back(again.seconds());
        }
      }
    }
    emit("serve.lookup_us.memory", median(memory) * 1e6, "us");
    emit("serve.lookup_us.disk", median(disk) * 1e6, "us");

    // One framed round trip of a result-sized payload over loopback.
    {
      util::ListenSocket listener(0);
      util::Socket a = util::Socket::connect_loopback(listener.port());
      util::Socket b = listener.accept_interruptible(-1);
      std::string echo;
      std::string back;
      bool ok = true;
      const double frame = timed("write_frame+read_frame", "serve", 201, [&] {
        ok = ok && serve::write_frame(a, payloads[0]) &&
             serve::read_frame(b, echo) == serve::FrameStatus::kOk &&
             serve::write_frame(b, echo) &&
             serve::read_frame(a, back) == serve::FrameStatus::kOk;
      });
      checks_.record(ok && back == payloads[0],
                     "serve: frame round trip changed the payload");
      emit("serve.frame_us", frame * 1e6, "us");
    }

    // A daemon over the same journal: warm requests give the tier hit
    // ratios (Client::cache_stats), cold ones the overhead over a direct
    // Experiment of the same spec.
    serve::ServerOptions opts;
    opts.journal_path = journal;
    opts.cache_bytes = budget;
    opts.threads = 1;
    serve::Server server(opts);
    server.start();
    {
      serve::Client client(server.port());
      const std::size_t warm = tiny_ ? 16 : 200;
      for (std::size_t i = 0; i < warm; ++i) {
        const std::size_t pick = s.in(0, pool - 1);
        Tracer::Scope span(&tracer_, "Client::run.warm", "serve");
        const JsonValue reply = client.run(JsonValue::parse(specs[pick]));
        const JsonValue* result = reply.find("result");
        checks_.record(result != nullptr && result->dump(0) == payloads[pick],
                       "serve: warm reply differs from the direct bytes");
      }
      const JsonValue stats = client.cache_stats();
      const JsonValue* doc = stats.find("stats");
      const auto count = [doc](const char* key) {
        const JsonValue* v = doc == nullptr ? nullptr : doc->find(key);
        return v == nullptr ? 0.0 : v->as_double();
      };
      const double hits = count("hits_memory") + count("hits_disk");
      emit("serve.hit_ratio.memory", hits > 0 ? count("hits_memory") / hits : 0,
           "fraction");
      emit("serve.hit_ratio.disk", hits > 0 ? count("hits_disk") / hits : 0,
           "fraction");

      // The direct run is timed before and after the cold request and
      // averaged, so drift between the two sides cancels.
      std::vector<double> overhead;
      for (int i = 0; i < (tiny_ ? 2 : 9); ++i) {
        const std::string text = daemon_spec_json(s, 800, 1600);
        std::string direct;
        const auto run_direct = [&] { direct = direct_payload(text); };
        const double before = timed("Experiment.direct", "scenario", 1,
                                    run_direct);
        JsonValue reply;
        const double remote = timed("Client::run.cold", "serve", 1, [&] {
          reply = client.run(JsonValue::parse(text));
        });
        const double after = timed("Experiment.direct", "scenario", 1,
                                   run_direct);
        const JsonValue* result = reply.find("result");
        checks_.record(result != nullptr && result->dump(0) == direct,
                       "serve: cold reply differs from the direct bytes");
        overhead.push_back(remote - (before + after) / 2);
      }
      emit("serve.cold_overhead_ms", median(overhead) * 1e3, "ms");
    }
    server.stop();
  }

  // --- util: JSON on the result payloads --------------------------------

  void util_layer() {
    JsonValue parsed;
    const double parse = timed("JsonValue::parse", "util", 5,
                               [&] { parsed = JsonValue::parse(document_); });
    std::string dumped;
    const double dump =
        timed("JsonValue::dump", "util", 5, [&] { dumped = parsed.dump(0); });
    checks_.record(dumped == document_, "util: JSON parse/dump round trip");
    const double mb = static_cast<double>(document_.size()) / 1e6;
    emit("util.json_parse_MBps", mb / parse, "MB/s");
    emit("util.json_dump_MBps", mb / dump, "MB/s");
  }

  const Options& options_;
  Checks& checks_;
  Tracer& tracer_;
  std::vector<Metric>& out_;
  bool tiny_;
  fs::path dir_;
  std::map<std::string, double> walk_ns_;
  std::string document_;  // the lattice result document
};

}  // namespace

void run_probes(const Options& options, Checks& checks, Tracer& tracer,
                std::vector<Metric>& out) {
  try {
    Probes(options, checks, tracer, out).run_all();
  } catch (const std::exception& e) {
    checks.record(false, std::string("probes threw: ") + e.what());
  }
}

}  // namespace perfbench
