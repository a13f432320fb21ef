// The daemon workload: an in-process serve::Server (port 0, journal in a
// temporary directory, threads=1 per experiment) driven in a closed loop
// by 2 serve::Client connections, so client plus connection threads fit
// 4 cores.  Each client's seeded stream per pass mixes 30 first-time
// specs (cold: torus2d:64x64 density/property runs of 10-30 ms) with 120
// repeats (warm) of specs a tier already holds: a pool pre-written to the
// journal before the server starts, and the client's own earlier cold
// specs.  Cold specs are disjoint per client, so cold/warm counts repeat
// exactly; the memory tier's byte budget sits below the pool's payload
// bytes, so part of the warm hits come from the disk tier.  Set-up is
// server construction (binding, warm-indexing the journal) plus start().
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "scenario/registry.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace scenario = antdense::scenario;

std::string daemon_spec_json(SeedStream& s, std::uint64_t min_rounds,
                             std::uint64_t max_rounds) {
  std::ostringstream out;
  out << R"({"topology":"torus2d:64x64","workload":")"
      << (s.in(0, 1) == 0 ? "density" : "property")
      << R"(","agents":)" << s.in(300, 500) << R"(,"rounds":)"
      << s.in(min_rounds, max_rounds) << R"(,"seed":)" << s.in(1, 1ULL << 50)
      << "}";
  return out.str();
}

std::string direct_payload(const std::string& spec_text) {
  scenario::ScenarioSpec spec = parse_spec(spec_text);
  spec.threads = 1;
  return canonical_payload(scenario::Experiment(spec).run());
}

namespace {

namespace serve = antdense::serve;
namespace fs = std::filesystem;

struct Reply {
  bool cold = false;
  std::string spec_text;
  std::string expect;  // payload a warm reply must equal ("" = own cold)
  std::string cold_key;  // for warm repeats of an own cold spec
  double seconds = 0.0;
  JsonValue response;
};

class DaemonWorkload final : public Workload {
 public:
  DaemonWorkload(const Options& options, Checks& checks)
      : options_(options), checks_(checks) {}

  ~DaemonWorkload() override {
    if (server_ != nullptr) {
      server_->stop();
      server_.reset();
    }
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  void prepare() override {
    dir_ = fs::path(options_.out_dir) /
           ("tmp-daemon-" + std::to_string(getpid()));
    fs::create_directories(dir_);
    journal_ = (dir_ / "cache.jsonl").string();

    // Pre-write the journal the server warm-indexes at start: the warm
    // pool, computed directly through Experiment (the reference bytes).
    SeedStream s(options_.seed, 0xDAE0);
    const std::size_t pool = options_.tiny ? 8 : 48;
    serve::ResultCache cache(journal_, 1ULL << 30);
    std::uint64_t pool_bytes = 0;
    for (std::size_t i = 0; i < pool; ++i) {
      const std::string text = daemon_spec_json(s, 200, 400);
      const std::string payload = direct_payload(text);
      const std::string id =
          parse_spec(text).identity_hash(scenario::Registry::built_in());
      cache.get_or_run(id, [&payload] { return payload; });
      pool_.push_back({text, payload});
      pool_bytes += payload.size();
    }
    cache_bytes_ = pool_bytes * 2 / 5;
  }

  double setup() override {
    if (server_ != nullptr) {
      server_->stop();
      server_.reset();
    }
    const double start = now_s();
    serve::ServerOptions opts;
    opts.port = 0;
    opts.journal_path = journal_;
    opts.cache_bytes = cache_bytes_;
    opts.threads = 1;
    auto server = std::make_unique<serve::Server>(opts);
    server->start();
    const double seconds = now_s() - start;
    server_ = std::move(server);
    return seconds;
  }

  double pass(Tracer* tracer, OpTimes& ops) override {
    ++passes_;
    const std::size_t colds = options_.tiny ? 4 : 30;
    const std::size_t warms = options_.tiny ? 16 : 120;
    constexpr int kClients = 2;

    // The seeded request streams of this pass (built before timing).
    std::vector<std::vector<Reply>> streams(kClients);
    for (int c = 0; c < kClients; ++c) {
      SeedStream s(options_.seed + 1000003ULL * passes_, 0xC11E + c);
      std::vector<char> is_cold(colds + warms, 0);
      std::fill(is_cold.begin(), is_cold.begin() + colds, 1);
      for (std::size_t i = is_cold.size() - 1; i > 0; --i) {
        std::swap(is_cold[i], is_cold[s.in(0, i)]);
      }
      std::vector<std::string> own;
      for (const char cold : is_cold) {
        Reply r;
        r.cold = cold != 0;
        if (cold) {
          r.spec_text = daemon_spec_json(s, 800, 1600);
          own.push_back(r.spec_text);
        } else {
          const std::size_t pick = s.in(0, pool_.size() + own.size() - 1);
          if (pick < pool_.size()) {
            r.spec_text = pool_[pick].first;
            r.expect = pool_[pick].second;
          } else {
            r.spec_text = own[pick - pool_.size()];
            r.cold_key = r.spec_text;
          }
        }
        streams[c].push_back(std::move(r));
      }
    }

    const std::map<std::string, double> phases_before =
        phase_sums(server_->metrics().to_json());
    const std::uint16_t port = server_->port();
    std::vector<std::string> errors(kClients);
    const double start = now_s();
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          serve::Client client(port);
          std::uint64_t i = 0;
          for (Reply& r : streams[c]) {
            const JsonValue spec = JsonValue::parse(r.spec_text);
            const std::uint64_t request =
                (passes_ << 24) | (static_cast<std::uint64_t>(c) << 20) | ++i;
            Tracer::Scope span(tracer, r.cold ? "Client::run.cold"
                                              : "Client::run.warm",
                               "serve", request);
            r.response = client.run(spec);
            r.seconds = span.seconds();
            if (tracer != nullptr && r.cold) {
              const std::lock_guard<std::mutex> lock(cold_mutex_);
              cold_spans_.push_back({span.id(), span.start_us(), r.seconds,
                                     span.request()});
            }
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    for (std::jthread& t : clients) {
      t.join();
    }
    const double wall = now_s() - start;
    if (tracer != nullptr) {
      attribute_cold(*tracer, phases_before,
                     phase_sums(server_->metrics().to_json()));
    }

    for (int c = 0; c < kClients; ++c) {
      if (!errors[c].empty()) {
        checks_.record(false, "client " + std::to_string(c) + ": " + errors[c]);
      }
      check_stream(streams[c], ops);
    }
    return wall;
  }

  JsonValue detail() const override {
    JsonValue doc = JsonValue::object();
    const auto percentile = [&doc](const std::string& name,
                                   const std::vector<double>& v, double q,
                                   double scale) {
      doc.set(name, quantile(v, q) * scale);
    };
    percentile("query_cold_ms.p50", cold_s_, 0.5, 1e3);
    percentile("query_cold_ms.p90", cold_s_, 0.9, 1e3);
    doc.set("query_cold_ms.n", static_cast<std::uint64_t>(cold_s_.size()));
    percentile("query_warm_us.p50", warm_s_, 0.5, 1e6);
    percentile("query_warm_us.p99", warm_s_, 0.99, 1e6);
    doc.set("query_warm_us.n", static_cast<std::uint64_t>(warm_s_.size()));
    if (server_ != nullptr) {
      const serve::CacheStats stats = server_->cache().stats();
      doc.set("hits_memory", stats.hits_memory);
      doc.set("hits_disk", stats.hits_disk);
      doc.set("misses", stats.misses);
      doc.set("warm_loaded", stats.warm_loaded);
    }
    doc.set("memory_budget_bytes", cache_bytes_);
    doc.set("passes", passes_);
    return doc;
  }

 private:
  struct ColdSpan {
    std::uint64_t id;
    double start_us;
    double seconds;
    std::uint64_t request;
  };

  /// Spreads the server-side walk phase time of this pass over the cold
  /// request spans in proportion to their duration (warm requests run no
  /// walk).
  void attribute_cold(Tracer& tracer,
                      const std::map<std::string, double>& before,
                      const std::map<std::string, double>& after) {
    const auto [graph, sim] = graph_sim_seconds(before, after);
    double total = 0.0;
    for (const ColdSpan& s : cold_spans_) {
      total += s.seconds;
    }
    for (const ColdSpan& s : cold_spans_) {
      const double share = total > 0.0 ? s.seconds / total : 0.0;
      tracer.add_synthetic(s.id, s.start_us, "walk.step", "graph",
                           graph * share, s.request);
      tracer.add_synthetic(s.id, s.start_us, "walk.phases", "sim", sim * share,
                           s.request);
    }
    cold_spans_.clear();
  }

  /// Checks, untimed: every reply is a result frame with the expected
  /// cache_hit; warm bytes equal the cold bytes of the same spec and, for
  /// the pre-written pool, the direct Experiment bytes; the first cold
  /// reply per client per pass is recomputed directly and compared.
  void check_stream(std::vector<Reply>& stream, OpTimes& ops) {
    std::map<std::string, std::string> cold_bytes;
    bool direct_checked = false;
    for (Reply& r : stream) {
      if (r.response.is_null()) {
        continue;  // never sent: the client failed (already counted)
      }
      const JsonValue* type = r.response.find("type");
      const JsonValue* hit = r.response.find("cache_hit");
      const JsonValue* result = r.response.find("result");
      if (type == nullptr || type->as_string() != "result" ||
          hit == nullptr || result == nullptr) {
        const JsonValue* message = r.response.find("message");
        checks_.record(false, "error frame: " + (message != nullptr
                                                     ? message->as_string()
                                                     : r.response.dump(0)));
        continue;
      }
      std::string bytes = result->dump(0);
      ops[r.cold ? "cold" : "warm"].push_back(r.seconds);
      (r.cold ? cold_s_ : warm_s_).push_back(r.seconds);
      bool ok = hit->as_bool() == !r.cold;
      if (r.cold) {
        cold_bytes[r.spec_text] = bytes;
        if (!direct_checked) {
          direct_checked = true;
          ok = ok && bytes == direct_payload(r.spec_text);
        }
      } else {
        if (options_.injects("warm") && !injected_) {
          injected_ = true;
          bytes += " ";
        }
        const std::string& expect =
            r.expect.empty() ? cold_bytes[r.cold_key] : r.expect;
        ok = ok && bytes == expect;
      }
      checks_.record(ok, std::string(r.cold ? "cold" : "warm") +
                             " reply mismatch for " + r.spec_text);
    }
  }

  const Options& options_;
  Checks& checks_;
  fs::path dir_;
  std::string journal_;
  std::vector<std::pair<std::string, std::string>> pool_;  // spec, payload
  std::uint64_t cache_bytes_ = 0;
  std::unique_ptr<serve::Server> server_;
  std::uint64_t passes_ = 0;
  std::vector<double> cold_s_;
  std::vector<double> warm_s_;
  bool injected_ = false;
  std::mutex cold_mutex_;
  std::vector<ColdSpan> cold_spans_;
};

}  // namespace

std::unique_ptr<Workload> make_daemon(const Options& options, Checks& checks) {
  return std::make_unique<DaemonWorkload>(options, checks);
}

}  // namespace perfbench
