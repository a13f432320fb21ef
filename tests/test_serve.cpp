// The serve layer: framing, the two-tier content-addressed cache
// (LRU eviction order, single-flight dedup, journal warm start), and
// the server/client round trip — including the acceptance contract that
// a daemon-served result is byte-identical to a direct Experiment run
// (modulo timing fields and the threads knob) cold, warm, and across a
// restart — and the accept loop's back-off when the fd table is full.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/scheduler.hpp"
#include "campaign/spec.hpp"
#include "scenario/experiment.hpp"
#include "scenario/spec.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace antdense::serve {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

util::JsonValue small_spec(std::uint64_t seed) {
  util::JsonValue spec = util::JsonValue::object();
  spec.set("topology", "ring:64");
  spec.set("workload", "density");
  spec.set("agents", std::uint64_t{12});
  spec.set("rounds", std::uint64_t{20});
  spec.set("trials", std::uint64_t{2});
  spec.set("seed", seed);
  return spec;
}

/// What the daemon caches: the direct result document minus the
/// per-invocation fields.  Mirrors the server's canonicalization, so
/// the end-to-end tests can pin byte identity against a direct run.
std::string direct_canonical(const util::JsonValue& spec_doc) {
  scenario::ScenarioSpec spec = scenario::ScenarioSpec::from_json(spec_doc);
  const scenario::ScenarioResult result =
      scenario::Experiment(spec).run();
  util::JsonValue doc = result.to_json();
  doc.erase("elapsed_seconds");
  doc.erase("elapsed_ns");
  util::JsonValue canon_spec = result.spec.to_json();
  canon_spec.erase("threads");
  doc.set("spec", std::move(canon_spec));
  return doc.dump(0);
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

TEST(ServeCache, EvictsInLruOrderUnderByteBudget) {
  // Budget fits two of the three ~40-byte entries (payload + id bytes).
  ResultCache cache("", /*capacity_bytes=*/100);
  const std::string payload(30, 'x');
  auto put = [&](const std::string& id) {
    cache.get_or_run(id, [&] { return payload; });
  };
  put("id-a");
  put("id-b");
  EXPECT_TRUE(cache.in_memory("id-a"));
  EXPECT_TRUE(cache.in_memory("id-b"));

  // Touch a so b is now the coldest; inserting c must evict b, not a.
  EXPECT_TRUE(cache.get_or_run("id-a", [&] { return payload; }).cache_hit);
  put("id-c");
  EXPECT_TRUE(cache.in_memory("id-a"));
  EXPECT_FALSE(cache.in_memory("id-b"));
  EXPECT_TRUE(cache.in_memory("id-c"));

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, 100u);

  // With no journal tier, the evicted id re-executes on demand.
  EXPECT_FALSE(cache.get_or_run("id-b", [&] { return payload; }).cache_hit);
}

TEST(ServeCache, OversizedPayloadIsServedButNotCached) {
  ResultCache cache("", /*capacity_bytes=*/16);
  const CacheOutcome out =
      cache.get_or_run("big", [] { return std::string(64, 'y'); });
  EXPECT_FALSE(out.cache_hit);
  EXPECT_FALSE(cache.in_memory("big"));
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ServeCache, SingleFlightCoalescesConcurrentIdenticalRequests) {
  ResultCache cache("", 1 << 20);
  std::atomic<int> executions{0};
  std::atomic<int> waiters_started{0};
  std::atomic<bool> release{false};

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<CacheOutcome> outcomes(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiters_started.fetch_add(1);
      outcomes[t] = cache.get_or_run("same-id", [&]() -> std::string {
        executions.fetch_add(1);
        // Hold the execution open until every thread has had a chance
        // to pile onto the in-flight entry.
        while (!release.load()) {
          std::this_thread::yield();
        }
        return "the-answer";
      });
    });
  }
  while (waiters_started.load() < kThreads) {
    std::this_thread::yield();
  }
  // Give the stragglers a moment to reach the cache before releasing.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.store(true);
  for (auto& t : threads) {
    t.join();
  }

  EXPECT_EQ(executions.load(), 1) << "single-flight must dedup to one run";
  int cold = 0;
  for (const CacheOutcome& out : outcomes) {
    EXPECT_EQ(out.payload, "the-answer");
    cold += out.cache_hit ? 0 : 1;
  }
  EXPECT_EQ(cold, 1) << "exactly the executing request reports a miss";
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.executions, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced + stats.hits_memory,
            static_cast<std::uint64_t>(kThreads - 1));
}

TEST(ServeCache, ExecutionErrorPropagatesAndLeavesIdUncached) {
  ResultCache cache("", 1 << 20);
  const auto boom = []() -> std::string {
    throw std::runtime_error("experiment failed");
  };
  EXPECT_THROW((void)cache.get_or_run("boom", boom), std::runtime_error);
  // The failure is not cached: the next request retries and succeeds.
  const CacheOutcome out = cache.get_or_run("boom", [] {
    return std::string("recovered");
  });
  EXPECT_FALSE(out.cache_hit);
  EXPECT_EQ(out.payload, "recovered");
}

TEST(ServeCache, JournalWarmStartServesWithoutExecuting) {
  const std::string path = temp_path("serve_cache_warm.jsonl");
  const std::string payload =
      util::JsonValue::object().set("answer", std::uint64_t{42}).dump(0);
  {
    ResultCache cache(path, 1 << 20);
    EXPECT_FALSE(cache.get_or_run("warm-id", [&] { return payload; })
                     .cache_hit);
  }
  ResultCache reborn(path, 1 << 20);
  EXPECT_EQ(reborn.stats().warm_loaded, 1u);
  EXPECT_FALSE(reborn.in_memory("warm-id")) << "tier 1 starts empty";
  const CacheOutcome out = reborn.get_or_run("warm-id", []() -> std::string {
    ADD_FAILURE() << "a journal-warm id must not re-execute";
    return "";
  });
  EXPECT_TRUE(out.cache_hit);
  EXPECT_EQ(out.payload, payload) << "disk round trip must be byte-exact";
  EXPECT_TRUE(reborn.in_memory("warm-id")) << "disk hits promote to memory";
  const CacheStats stats = reborn.stats();
  EXPECT_EQ(stats.hits_disk, 1u);
  EXPECT_EQ(stats.executions, 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// A connected loopback socket pair for protocol tests.
struct SocketPair {
  util::ListenSocket listener{0};
  util::Socket client;
  util::Socket server;

  SocketPair() {
    client = util::Socket::connect_loopback(listener.port());
    server = listener.accept_interruptible(-1);
    EXPECT_TRUE(server.valid());
  }
};

TEST(ServeProtocol, FrameRoundTrip) {
  SocketPair pair;
  const std::string payload = "{\"hello\":\"world\"}";
  ASSERT_TRUE(write_frame(pair.client, payload));
  std::string received;
  ASSERT_EQ(read_frame(pair.server, received), FrameStatus::kOk);
  EXPECT_EQ(received, payload);
  // Empty payloads frame fine too.
  ASSERT_TRUE(write_frame(pair.client, ""));
  ASSERT_EQ(read_frame(pair.server, received), FrameStatus::kOk);
  EXPECT_EQ(received, "");
}

TEST(ServeProtocol, DetectsBadMagic) {
  SocketPair pair;
  const char junk[8] = {'J', 'U', 'N', 'K', 1, 0, 0, 0};
  ASSERT_TRUE(pair.client.send_all(junk, sizeof junk));
  std::string payload;
  EXPECT_EQ(read_frame(pair.server, payload), FrameStatus::kBadMagic);
}

TEST(ServeProtocol, DetectsOversizedFrame) {
  SocketPair pair;
  unsigned char header[8] = {'A', 'N', 'T', 'D', 0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(pair.client.send_all(header, sizeof header));
  std::string payload;
  EXPECT_EQ(read_frame(pair.server, payload), FrameStatus::kOversized);
}

TEST(ServeProtocol, DetectsTruncatedFrame) {
  SocketPair pair;
  // Declares 100 bytes, delivers 3, hangs up.
  unsigned char header[8] = {'A', 'N', 'T', 'D', 100, 0, 0, 0};
  ASSERT_TRUE(pair.client.send_all(header, sizeof header));
  ASSERT_TRUE(pair.client.send_all("abc", 3));
  pair.client.close();
  std::string payload;
  EXPECT_EQ(read_frame(pair.server, payload), FrameStatus::kTruncated);
}

TEST(ServeProtocol, CleanEofIsClosedNotTruncated) {
  SocketPair pair;
  pair.client.close();
  std::string payload;
  EXPECT_EQ(read_frame(pair.server, payload), FrameStatus::kClosed);
}

TEST(ServeProtocol, EnvelopeValidation) {
  EXPECT_EQ(envelope_type(make_envelope("run")), "run");
  EXPECT_THROW(envelope_type(util::JsonValue("not an object")),
               std::invalid_argument);
  util::JsonValue wrong = util::JsonValue::object();
  wrong.set("schema", "antdense.serve.v999");
  wrong.set("type", "run");
  EXPECT_THROW(envelope_type(wrong), std::invalid_argument);
  util::JsonValue untyped = util::JsonValue::object();
  untyped.set("schema", kServeSchema);
  EXPECT_THROW(envelope_type(untyped), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Server end to end
// ---------------------------------------------------------------------------

ServerOptions test_options(const std::string& journal_path = "") {
  ServerOptions options;
  options.port = 0;
  options.journal_path = journal_path;
  options.threads = 1;
  return options;
}

TEST(ServeServer, ColdResponseMatchesDirectRunAndWarmIsByteIdentical) {
  const util::JsonValue spec = small_spec(404);
  const std::string expected = direct_canonical(spec);

  Server server(test_options());
  server.start();
  Client client(server.port());

  const util::JsonValue cold = client.run(spec);
  ASSERT_EQ(envelope_type(cold), "result");
  EXPECT_FALSE(cold.find("cache_hit")->as_bool());
  EXPECT_GT(cold.find("elapsed_ns")->as_uint(), 0u);
  EXPECT_EQ(cold.find("result")->dump(0), expected)
      << "daemon-served result must equal a direct Experiment run";

  const util::JsonValue warm = client.run(spec);
  EXPECT_TRUE(warm.find("cache_hit")->as_bool());
  EXPECT_EQ(warm.find("result")->dump(0), expected)
      << "warm response must be byte-identical to cold";
  EXPECT_EQ(cold.find("id")->as_string(), warm.find("id")->as_string());

  const util::JsonValue stats = client.cache_stats();
  ASSERT_EQ(envelope_type(stats), "cache_stats");
  EXPECT_GE(stats.find("stats")->find("hits_total")->as_uint(), 1u);
  EXPECT_EQ(stats.find("stats")->find("executions")->as_uint(), 1u);

  // A different spec is a different identity: misses again.
  const util::JsonValue other = client.run(small_spec(405));
  EXPECT_FALSE(other.find("cache_hit")->as_bool());
  EXPECT_NE(other.find("id")->as_string(), cold.find("id")->as_string());
  server.stop();
}

TEST(ServeServer, StreamsProgressFramesWhileExecuting) {
  Server server(test_options());
  server.start();
  Client client(server.port());

  std::vector<std::pair<std::uint64_t, std::uint64_t>> ticks;
  const util::JsonValue response = client.run(
      small_spec(406), /*want_progress=*/true,
      [&](std::uint64_t done, std::uint64_t total) {
        ticks.emplace_back(done, total);
      });
  ASSERT_EQ(envelope_type(response), "result");
  ASSERT_FALSE(ticks.empty()) << "an executing run must stream progress";
  for (const auto& [done, total] : ticks) {
    EXPECT_LE(done, total);
    EXPECT_GT(total, 0u);
  }
  EXPECT_EQ(ticks.back().first, ticks.back().second)
      << "the final progress frame reports completion";

  // A warm replay executes nothing, so no progress frames arrive.
  ticks.clear();
  client.run(small_spec(406), /*want_progress=*/true,
             [&](std::uint64_t done, std::uint64_t total) {
               ticks.emplace_back(done, total);
             });
  EXPECT_TRUE(ticks.empty());
  server.stop();
}

TEST(ServeServer, SurvivesMalformedAndHostileFrames) {
  Server server(test_options());
  server.start();

  {
    // Malformed JSON: one error response, connection stays usable.
    Client client(server.port());
    ASSERT_TRUE(write_frame(client.socket(), "{not json"));
    std::string payload;
    ASSERT_EQ(read_frame(client.socket(), payload), FrameStatus::kOk);
    EXPECT_EQ(envelope_type(util::JsonValue::parse(payload)), "error");
    EXPECT_EQ(envelope_type(client.server_info()), "server_info")
        << "connection must remain usable after a JSON error";
  }
  {
    // Valid JSON, wrong schema.
    Client client(server.port());
    ASSERT_TRUE(write_frame(client.socket(), "{\"schema\":\"nope\"}"));
    std::string payload;
    ASSERT_EQ(read_frame(client.socket(), payload), FrameStatus::kOk);
    EXPECT_EQ(envelope_type(util::JsonValue::parse(payload)), "error");
  }
  {
    // Valid envelope, invalid spec (unknown key): error, stays open.
    Client client(server.port());
    util::JsonValue bad_spec = util::JsonValue::object();
    bad_spec.set("no_such_key", std::uint64_t{1});
    const util::JsonValue response = client.run(bad_spec);
    EXPECT_EQ(envelope_type(response), "error");
    EXPECT_EQ(envelope_type(client.server_info()), "server_info");
  }
  {
    // Bad magic: one error frame, then the server hangs up.
    util::Socket raw = util::Socket::connect_loopback(server.port());
    ASSERT_TRUE(raw.send_all("GARBAGEGARBAGE", 14));
    std::string payload;
    ASSERT_EQ(read_frame(raw, payload), FrameStatus::kOk);
    EXPECT_EQ(envelope_type(util::JsonValue::parse(payload)), "error");
    EXPECT_EQ(read_frame(raw, payload), FrameStatus::kClosed)
        << "a framing violation must close the connection";
  }
  {
    // Oversized declared length: error + close, no allocation blowup.
    util::Socket raw = util::Socket::connect_loopback(server.port());
    unsigned char header[8] = {'A', 'N', 'T', 'D', 0xFF, 0xFF, 0xFF, 0x7F};
    ASSERT_TRUE(raw.send_all(header, sizeof header));
    std::string payload;
    ASSERT_EQ(read_frame(raw, payload), FrameStatus::kOk);
    EXPECT_EQ(envelope_type(util::JsonValue::parse(payload)), "error");
    EXPECT_EQ(read_frame(raw, payload), FrameStatus::kClosed);
  }
  {
    // Truncated frame (peer dies mid-payload): server just drops it.
    util::Socket raw = util::Socket::connect_loopback(server.port());
    unsigned char header[8] = {'A', 'N', 'T', 'D', 200, 0, 0, 0};
    ASSERT_TRUE(raw.send_all(header, sizeof header));
    ASSERT_TRUE(raw.send_all("partial", 7));
    raw.close();
  }
  // After the whole corpus, the server still answers.
  Client survivor(server.port());
  EXPECT_EQ(envelope_type(survivor.server_info()), "server_info");
  server.stop();
}

TEST(ServeServer, RestartWarmStartsFromJournal) {
  const std::string path = temp_path("serve_server_restart.jsonl");
  const util::JsonValue spec = small_spec(407);
  std::string cold_bytes;
  {
    Server server(test_options(path));
    server.start();
    Client client(server.port());
    const util::JsonValue cold = client.run(spec);
    ASSERT_EQ(envelope_type(cold), "result");
    EXPECT_FALSE(cold.find("cache_hit")->as_bool());
    cold_bytes = cold.find("result")->dump(0);
    server.stop();
  }
  {
    Server server(test_options(path));
    server.start();
    Client client(server.port());
    const util::JsonValue warm = client.run(spec);
    EXPECT_TRUE(warm.find("cache_hit")->as_bool())
        << "a restarted daemon must serve from its journal";
    EXPECT_EQ(warm.find("result")->dump(0), cold_bytes);
    const util::JsonValue stats = client.cache_stats();
    EXPECT_EQ(stats.find("stats")->find("executions")->as_uint(), 0u);
    EXPECT_EQ(stats.find("stats")->find("warm_loaded")->as_uint(), 1u);
    server.stop();
  }
  std::remove(path.c_str());
}

TEST(ServeServer, SweepJournalRecordsAreNotServedAsResults) {
  // An antdense_sweep record shares the serve cache's id vocabulary but
  // holds a summary computed under the campaign's derived seed, not a
  // result document; a daemon on that journal must rerun the spec.
  const std::string path = temp_path("serve_sweep_journal.jsonl");
  const campaign::CampaignSpec camp =
      campaign::CampaignSpec::from_json(util::JsonValue::parse(
          R"({"name": "one", "seed": 3,
              "base": {"workload": "density", "agents": 12, "rounds": 20,
                       "trials": 2, "seed": 42},
              "axes": [{"kind": "grid", "key": "topology",
                        "values": ["ring:64"]}]})"));
  campaign::RunOptions serial;
  serial.threads = 1;
  campaign::run_campaign(camp, path, serial);
  const std::vector<util::JsonValue> records = campaign::Journal::load(path);
  ASSERT_EQ(records.size(), 1u);
  const util::JsonValue declared = *records[0].find("spec");

  EXPECT_EQ(ResultCache(path, 1 << 20).stats().warm_loaded, 0u);
  Server server(test_options(path));
  server.start();
  Client client(server.port());
  const util::JsonValue reply = client.run(declared);
  ASSERT_EQ(envelope_type(reply), "result");
  EXPECT_EQ(reply.find("id")->as_string(), records[0].find("id")->as_string())
      << "the sweep record and the request share one identity";
  EXPECT_FALSE(reply.find("cache_hit")->as_bool());
  EXPECT_EQ(reply.find("result")->dump(0), direct_canonical(declared));
  server.stop();
  EXPECT_EQ(ResultCache(path, 1 << 20).stats().warm_loaded, 1u)
      << "the rerun is journalled in canonical form and indexed";
  std::remove(path.c_str());
}

TEST(ServeServer, SweepRunsThroughTheSharedCache) {
  Server server(test_options());
  server.start();
  Client client(server.port());

  util::JsonValue campaign = util::JsonValue::object();
  campaign.set("name", "serve-sweep");
  campaign.set("seed", std::uint64_t{9});
  util::JsonValue base = util::JsonValue::object();
  base.set("topology", "ring:64");
  base.set("workload", "density");
  base.set("agents", std::uint64_t{12});
  base.set("rounds", std::uint64_t{20});
  campaign.set("base", base);
  util::JsonValue axis = util::JsonValue::object();
  axis.set("kind", "grid");
  axis.set("key", "agents");
  util::JsonValue values = util::JsonValue::array();
  values.push_back(std::uint64_t{12});
  values.push_back(std::uint64_t{16});
  axis.set("values", values);
  util::JsonValue axes = util::JsonValue::array();
  axes.push_back(axis);
  campaign.set("axes", axes);

  const util::JsonValue first = client.sweep(campaign);
  ASSERT_EQ(envelope_type(first), "sweep_result");
  EXPECT_EQ(first.find("planned")->as_uint(), 2u);
  EXPECT_EQ(first.find("executed")->as_uint(), 2u);
  EXPECT_EQ(first.find("cache_hits")->as_uint(), 0u);

  const util::JsonValue again = client.sweep(campaign);
  EXPECT_EQ(again.find("executed")->as_uint(), 0u);
  EXPECT_EQ(again.find("cache_hits")->as_uint(), 2u);
  for (const util::JsonValue& entry : again.find("experiments")->items()) {
    EXPECT_TRUE(entry.find("cache_hit")->as_bool());
  }
  server.stop();
}

TEST(ServeServer, MetricsEndpointExportsBothFormats) {
  Server server(test_options());
  server.start();
  Client client(server.port());
  client.run(small_spec(410));

  const util::JsonValue response = client.metrics();
  ASSERT_EQ(envelope_type(response), "metrics");

  // The JSON snapshot carries the request counter and the engine taps
  // that fired inside the executed experiment.
  const util::JsonValue* metrics = response.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const util::JsonValue* runs =
      metrics->find("antdense_serve_requests_total{type=\"run\"}");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->find("value")->as_uint(), 1u);
  const util::JsonValue* rounds =
      metrics->find("antdense_engine_rounds_total{engine=\"single\"}");
  ASSERT_NE(rounds, nullptr) << "engine taps must fire inside the daemon";
  EXPECT_GT(rounds->find("value")->as_uint(), 0u);

  // The Prometheus text is exposed alongside, same registry.
  const util::JsonValue* prom = response.find("prometheus");
  ASSERT_NE(prom, nullptr);
  EXPECT_NE(prom->as_string().find(
                "antdense_serve_requests_total{type=\"run\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom->as_string().find("# TYPE antdense_cache_hits_total counter"),
            std::string::npos);

  // Unknown request types are capped onto one label value.
  util::JsonValue bogus = make_envelope("no_such_request");
  const util::JsonValue err = client.request(bogus);
  EXPECT_EQ(envelope_type(err), "error");
  const util::JsonValue after = client.metrics();
  const util::JsonValue* unknown = after.find("metrics")->find(
      "antdense_serve_requests_total{type=\"unknown\"}");
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(unknown->find("value")->as_uint(), 1u);
  server.stop();
}

TEST(ServeServer, CacheStatsReportJournalBytesThatGrow) {
  const std::string path = temp_path("serve_journal_bytes.jsonl");
  Server server(test_options(path));
  server.start();
  Client client(server.port());

  client.run(small_spec(411));
  const std::uint64_t after_one = client.cache_stats()
                                      .find("stats")
                                      ->find("journal_bytes")
                                      ->as_uint();
  EXPECT_GT(after_one, 0u) << "an executed result must hit the journal";

  // A warm hit appends nothing; a new identity grows the journal.
  client.run(small_spec(411));
  EXPECT_EQ(client.cache_stats()
                .find("stats")
                ->find("journal_bytes")
                ->as_uint(),
            after_one);
  client.run(small_spec(412));
  EXPECT_GT(client.cache_stats()
                .find("stats")
                ->find("journal_bytes")
                ->as_uint(),
            after_one);
  server.stop();
  std::remove(path.c_str());
}

TEST(ServeServer, ProgressThrottleStillDeliversTheFinalFrame) {
  // An hour-long interval suppresses every intermediate frame, but the
  // done == total frame is pinned unconditional — clients block on it.
  ServerOptions options = test_options();
  options.progress_interval_ms = 3'600'000;
  Server server(options);
  server.start();
  Client client(server.port());

  std::vector<std::pair<std::uint64_t, std::uint64_t>> ticks;
  const util::JsonValue response = client.run(
      small_spec(413), /*want_progress=*/true,
      [&](std::uint64_t done, std::uint64_t total) {
        ticks.emplace_back(done, total);
      });
  ASSERT_EQ(envelope_type(response), "result");
  ASSERT_FALSE(ticks.empty());
  EXPECT_EQ(ticks.back().first, ticks.back().second)
      << "the completion frame must survive any throttle interval";
  // Everything else was throttled away (the first frame may slip
  // through before the interval starts counting).
  EXPECT_LE(ticks.size(), 2u);
  server.stop();
}

/// Open file descriptors of this process, or 0 where /proc/self/fd is
/// not available.
std::size_t open_fd_count() {
  std::error_code error;
  std::filesystem::directory_iterator it("/proc/self/fd", error);
  if (error) {
    return 0;
  }
  return static_cast<std::size_t>(
      std::distance(it, std::filesystem::directory_iterator()));
}

TEST(ServeServer, FinishedConnectionsReleaseTheirDescriptors) {
  // Clients connect, make one request and hang up, one after another.
  // The daemon must join each finished connection and close its
  // socket; otherwise every client keeps one fd and one thread until
  // stop(), and enough clients exhaust the fd limit.
  Server server(test_options());
  server.start();
  const std::size_t before = open_fd_count();
  if (before == 0) {
    GTEST_SKIP() << "no /proc/self/fd to count descriptors";
  }
  for (int i = 0; i < 200; ++i) {
    Client client(server.port());
    ASSERT_EQ(envelope_type(client.server_info()), "server_info");
  }
  // Finished connections are reaped on the next accept, so the last
  // client or two may still hold a descriptor.
  EXPECT_LE(open_fd_count(), before + 4);
  server.stop();
}

/// The forked child of FullFdTableBacksOffInsteadOfSpinning: serves on
/// a lowered fd limit (its own only), fills its fd table once the parent
/// holds connection A, and times its own CPU against wall time while
/// the parent's connection B waits in the backlog.  Talks to the parent
/// over two pipes; returns the child's exit code.
int full_fd_table_child(int to_parent, int from_parent) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) {
    return 10;
  }
  limit.rlim_cur = std::min<rlim_t>(limit.rlim_cur, 64);
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) {
    return 11;
  }
  char go = 0;
  try {
    Server server(test_options());
    server.start();
    const std::uint16_t port = server.port();
    if (::write(to_parent, &port, sizeof port) != sizeof port ||
        ::read(from_parent, &go, 1) != 1) {  // A is connected and served
      return 12;
    }
    std::vector<int> filler;
    for (int fd = ::dup(from_parent); fd >= 0; fd = ::dup(from_parent)) {
      filler.push_back(fd);
    }
    if (errno != EMFILE) {
      return 13;
    }
    if (::write(to_parent, "f", 1) != 1 ||
        ::read(from_parent, &go, 1) != 1) {  // B waits in the backlog
      return 14;
    }
    const auto cpu_seconds = [] {
      rusage usage{};
      ::getrusage(RUSAGE_SELF, &usage);
      return static_cast<double>(usage.ru_utime.tv_sec +
                                 usage.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                        usage.ru_stime.tv_usec);
    };
    const double cpu_before = cpu_seconds();
    const auto wall_before = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const double times[2] = {
        cpu_seconds() - cpu_before,
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_before)
            .count()};
    if (::write(to_parent, times, sizeof times) != sizeof times ||
        ::read(from_parent, &go, 1) != 1) {  // B was served
      return 15;
    }
    for (const int fd : filler) {
      ::close(fd);
    }
    server.stop();
  } catch (const std::exception&) {
    return 16;
  }
  return 0;
}

TEST(ServeServer, FullFdTableBacksOffInsteadOfSpinning) {
  // With no fd left, accept fails (EMFILE) and the connection stays
  // queued, so poll reports it again at once.  The accept loop must wait
  // instead of spinning a core, then serve the queued client as soon as
  // another connection closes and its fd is reaped.  The limit is
  // lowered in a forked child so this process keeps its own.
  int to_parent[2];
  int to_child[2];
  ASSERT_EQ(::pipe(to_parent), 0);
  ASSERT_EQ(::pipe(to_child), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(to_parent[0]);
    ::close(to_child[1]);
    ::_exit(full_fd_table_child(to_parent[1], to_child[0]));
  }
  ::close(to_parent[1]);
  ::close(to_child[0]);
  const auto finish = [&](bool kill_child) {
    if (kill_child) {
      ::kill(pid, SIGKILL);
    }
    ::close(to_parent[0]);
    ::close(to_child[1]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
  };
  // A read that fails (the child died) or a stuck child fails the test
  // instead of hanging it.
  const auto read_child = [&](void* data, std::size_t size) {
    pollfd ready{to_parent[0], POLLIN, 0};
    return ::poll(&ready, 1, 20000) == 1 &&
           ::read(to_parent[0], data, size) == static_cast<ssize_t>(size);
  };
  const timeval timeout{20, 0};
  std::uint16_t port = 0;
  if (!read_child(&port, sizeof port)) {
    ADD_FAILURE() << "child exited with status " << finish(true);
    return;
  }
  double times[2] = {0.0, 0.0};
  std::string failure;
  try {
    auto a = std::make_unique<Client>(port);
    char filled = 0;
    if (envelope_type(a->server_info()) != "server_info" ||
        ::write(to_child[1], "a", 1) != 1 || !read_child(&filled, 1)) {
      failure = "the child did not fill its fd table";
    } else {
      Client b(port);  // completes in the kernel; accept cannot take it
      ::setsockopt(b.socket().fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof timeout);
      if (::write(to_child[1], "b", 1) != 1 ||
          !read_child(times, sizeof times)) {
        failure = "the child did not time the wait";
      } else {
        a.reset();  // frees A's fd in the child once A's thread is reaped
        if (envelope_type(b.server_info()) != "server_info" ||
            ::write(to_child[1], "d", 1) != 1) {
          failure = "the queued client was never served";
        }
      }
    }
  } catch (const std::exception& e) {
    failure = e.what();
  }
  const int status = finish(!failure.empty());
  ASSERT_TRUE(failure.empty()) << failure << " (child status " << status
                               << ")";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child status " << status;
  EXPECT_GT(times[1], 0.4);
  EXPECT_LT(times[0], 0.2 * times[1])
      << "the accept loop burned " << times[0] << " s of CPU in "
      << times[1] << " s of wall time with the fd table full";
}

TEST(ServeServer, ShutdownRequestStopsWait) {
  Server server(test_options());
  server.start();
  std::thread waiter([&] { server.wait(); });
  Client client(server.port());
  const util::JsonValue ack = client.shutdown();
  EXPECT_EQ(envelope_type(ack), "shutdown_ack");
  waiter.join();  // wait() must return once shutdown is acknowledged
  server.stop();
}


// ---------------------------------------------------------------------------
// Byte pins: the exact bytes the serve path puts on the wire and in its
// journal.  A change to how payloads travel (parsed trees or verbatim
// bytes) must leave every one of them unchanged.
// ---------------------------------------------------------------------------

/// Sends a run request on the client's socket and returns the response
/// frame's payload exactly as received, with the wall-clock
/// "elapsed_ns" digits replaced by 0.
std::string raw_run_frame(Client& client, const util::JsonValue& spec) {
  util::JsonValue envelope = make_envelope("run");
  envelope.set("spec", spec);
  EXPECT_TRUE(write_frame_json(client.socket(), envelope));
  std::string payload;
  EXPECT_EQ(read_frame(client.socket(), payload), FrameStatus::kOk);
  const std::string key = "\"elapsed_ns\":";
  const std::size_t at = payload.find(key);
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) {
    const std::size_t digits = at + key.size();
    std::size_t end = digits;
    while (end < payload.size() && payload[end] >= '0' && payload[end] <= '9') {
      ++end;
    }
    payload.replace(digits, end - digits, "0");
  }
  return payload;
}

/// small_spec(408), run on a one-thread daemon.
constexpr const char* kPinnedSpecId = "6b9738a4948c8a4c";
constexpr const char* kPinnedPayload =
    R"pin({"schema":"antdense.scenario.v1","spec":{"topology":"ring:64",)pin"
    R"pin("workload":"density","agents":12,"rounds":20,)pin"
    R"pin("eps":0.20000000000000001,"delta":0.10000000000000001,"lazy":0,)pin"
    R"pin("miss":0,"spurious":0,"trials":2,"seed":408,"engine":"single",)pin"
    R"pin("property-fraction":0.25,"tracked":4,"checkpoints":8,)pin"
    R"pin("radius":2},"topology":"ring(64)","num_nodes":64,)pin"
    R"pin("workload":"density","rounds":20,"true_value":0.171875,)pin"
    R"pin("summary":{"count":24,"mean":0.14166666666666672,)pin"
    R"pin("stddev":0.17424786610050555,)pin"
    R"pin("standard_error":0.035568196726253755,"min":0,)pin"
    R"pin("max":0.59999999999999998,"within_eps":0.125},"estimates":[0,0,)pin"
    R"pin(0,0.59999999999999998,0.20000000000000001,0.050000000000000003,)pin"
    R"pin(0.55000000000000004,0.14999999999999999,0,0,0,0.25,)pin"
    R"pin(0.10000000000000001,0,0,0.25,0,0.29999999999999999,0.25,0,0,)pin"
    R"pin(0.20000000000000001,0.25,0.25],"checkpoints":[],"series":[]})pin";

std::string pinned_frame(bool cache_hit) {
  return std::string(
             "{\"schema\":\"antdense.serve.v1\",\"type\":\"result\",\"id\":\"") +
         kPinnedSpecId + "\",\"cache_hit\":" + (cache_hit ? "true" : "false") +
         ",\"elapsed_ns\":0,\"result\":" + kPinnedPayload + "}";
}

std::string pinned_journal_line() {
  return std::string(
             "{\"schema\":\"antdense.campaign.v1\",\"campaign\":"
             "\"antdense_serve\",\"id\":\"") +
         kPinnedSpecId + "\",\"result\":" + kPinnedPayload + "}";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(ServeBytePins, ColdMemoryAndDiskFramesAndTheJournalLine) {
  const std::string path = temp_path("serve_byte_pins.jsonl");
  const util::JsonValue spec = small_spec(408);
  {
    Server server(test_options(path));
    server.start();
    Client client(server.port());
    EXPECT_EQ(raw_run_frame(client, spec), pinned_frame(false)) << "cold";
    EXPECT_EQ(raw_run_frame(client, spec), pinned_frame(true))
        << "memory-warm";
    server.stop();
  }
  EXPECT_EQ(read_file(path), pinned_journal_line() + "\n");
  {
    Server server(test_options(path));
    server.start();
    Client client(server.port());
    EXPECT_EQ(raw_run_frame(client, spec), pinned_frame(true)) << "disk-warm";
    EXPECT_EQ(client.cache_stats().find("stats")->find("hits_disk")->as_uint(),
              1u);
    server.stop();
  }
  std::remove(path.c_str());
}

TEST(ServeBytePins, PinnedJournalIsServedByteIdenticallyFromDisk) {
  // The journal line above was written by the cache before result
  // payloads travelled as bytes; a cache opened on it must serve the
  // same payload without executing.
  const std::string path = temp_path("serve_byte_pins_fixture.jsonl");
  std::ofstream(path, std::ios::binary) << pinned_journal_line() << "\n";
  ResultCache cache(path, 1 << 20);
  EXPECT_EQ(cache.stats().warm_loaded, 1u);
  const CacheOutcome out =
      cache.get_or_run(kPinnedSpecId, []() -> std::string {
        ADD_FAILURE() << "a pinned journal id must not re-execute";
        return "";
      });
  EXPECT_TRUE(out.cache_hit);
  EXPECT_EQ(out.payload, kPinnedPayload);
  EXPECT_EQ(cache.stats().hits_disk, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace antdense::serve
