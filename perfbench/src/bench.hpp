// Shared plumbing of the antdense benchmark: seeded input generation,
// order statistics, output checks, the in-memory span tracer, and the
// Workload interface the four workloads implement.
//
// Measurement model (see perfbench/README.md):
//   * an untraced run repeats the workload's set-up several times, then
//     repeats fixed "passes" of user-facing operations for --seconds and
//     reports medians — these are the end-to-end metrics;
//   * a traced run (--trace=1) alternates untraced and traced passes
//     (spans recorded from this program's own calls into each layer) and
//     then runs the per-layer probes — these are the per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "scenario/experiment.hpp"
#include "util/json.hpp"

namespace perfbench {

using antdense::util::JsonValue;

// --- time and statistics ----------------------------------------------

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

// --- seeded inputs -------------------------------------------------------

/// splitmix64 stream: every generated input derives from the workload
/// seed through one of these, so a seed fixes the inputs exactly.
class SeedStream {
 public:
  /// `tag` separates the streams of different inputs drawn from one seed.
  SeedStream(std::uint64_t seed, std::uint64_t tag);

  std::uint64_t next();
  /// Uniform in [lo, hi] (inclusive).
  std::uint64_t in(std::uint64_t lo, std::uint64_t hi);

 private:
  std::uint64_t state_;
};

// --- options, checks, metrics -------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs for the benchmark's own tests (seconds, not minutes).
  bool tiny = false;
  /// Comma list of deliberate faults for the negative self-test:
  /// "digest" corrupts one pinned digest, "warm" one warm daemon payload.
  std::string inject;
  std::string out_dir = ".";
  std::string pinned_path;

  bool injects(const std::string& fault) const;
  unsigned threads() const;  // engine=sharded / sweep width: min(4, cores)
};

/// Output checks.  Every user-facing operation and every standalone
/// contract check counts one attempt; a broken check or an exception
/// counts it failed.
class Checks {
 public:
  void record(bool ok, const std::string& what);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  std::vector<std::string> failures() const;  // first few, for stderr

 private:
  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// --- tracing ------------------------------------------------------------

/// In-memory span recorder.  Spans carry a name, a layer, start/end,
/// their parent (the enclosing span on the same thread) and a request id
/// shared by all spans of one request.  Nothing inside the library is
/// instrumented: spans wrap this program's calls into each layer, and
/// the walk phases inside a call are added as synthetic child spans
/// from the engines' exact phase-time sums (obs phase histograms).
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::string name;
    std::string layer;
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint64_t thread = 0;
  };

  class Scope {
   public:
    /// A null tracer makes the scope a plain stopwatch.
    Scope(Tracer* tracer, std::string name, std::string layer,
          std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint64_t id() const { return id_; }
    std::uint64_t request() const { return request_; }
    double start_us() const { return start_us_; }
    double seconds() const;  // elapsed so far

   private:
    Tracer* tracer_;
    std::string name_;
    std::string layer_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t request_ = 0;
    double start_us_;
  };

  /// A span of `seconds` under `parent`, laid out after the parent's
  /// previous synthetic children.  Returns {id, start_us} of the new span
  /// (id 0 when `seconds` <= 0 and nothing was recorded).
  std::pair<std::uint64_t, double> add_synthetic(std::uint64_t parent,
                                                 double parent_start_us,
                                                 const std::string& name,
                                                 const std::string& layer,
                                                 double seconds,
                                                 std::uint64_t request = 0);

  /// Self time per layer: each span's duration minus the part its
  /// children cover, summed per layer, in seconds.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Chrome trace-event JSON ("X" events; parent/request in args).
  JsonValue chrome_trace(int pid) const;
  std::size_t size() const;

 private:
  std::uint64_t next_id();
  void record(Span span);

  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::map<std::uint64_t, double> synthetic_cursor_us_;
};

/// Phase-time sums (seconds) of the engines' antdense_engine_phase_seconds
/// histograms in a registry snapshot, keyed "engine.phase".
std::map<std::string, double> phase_sums(const JsonValue& metrics_json);

/// Splits the phase time in `after - before` between layers: the "step"
/// phase (topology neighbour sampling) is the graph layer's, every other
/// phase (count, observe, mutate, sharded step_count) the sim layer's.
/// Returns {graph seconds, sim seconds}.
std::pair<double, double> graph_sim_seconds(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after);

/// Adds graph_sim_seconds(before, after) as synthetic children of
/// `parent`.  `scale` shrinks concurrent worker time to fit the parent's
/// wall time.
void add_phase_children(Tracer& tracer, const Tracer::Scope& parent,
                        const std::map<std::string, double>& before,
                        const std::map<std::string, double>& after,
                        double scale = 1.0);

// --- scenario helpers -----------------------------------------------------

/// The cacheable form of a result document — `to_json()` minus the
/// elapsed_* timings and the spec's `threads` knob, dumped compactly.
/// Byte-identical to what the daemon caches and serves.
std::string canonical_payload(const antdense::scenario::ScenarioResult& result);
/// 16-hex FNV-1a digest of `bytes`.
std::string digest(const std::string& bytes);
/// Parses a spec the way a user hands one in (JSON text).
antdense::scenario::ScenarioSpec parse_spec(const std::string& json_text);

/// Pinned canonical digests of a fixed canary set (one per engine and
/// family kind); checked in every run.  Returns the canaries run.
std::size_t check_pinned_canaries(const Options& options, Checks& checks);
/// Recomputes the canary digests and writes them to options.pinned_path.
void write_pinned_canaries(const Options& options);

/// nproc, hardware_concurrency, AVX2 (compiled / CPU), build type,
/// compiler.
JsonValue provenance();

// --- workloads -------------------------------------------------------------

/// Latencies (seconds) of user-facing operations, by kind of operation.
using OpTimes = std::map<std::string, std::vector<double>>;

/// One benchmark workload.  prepare() makes the seeded inputs (untimed),
/// setup() is the timed set-up a user pays before the first operation,
/// pass() runs the fixed batch of user-facing operations once.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void prepare() = 0;
  /// Performs the set-up once; returns its wall seconds.
  virtual double setup() = 0;
  /// Runs one pass (checks included, outside the timed spans) and
  /// returns the pass's timed wall seconds.  Appends each user-facing
  /// operation's latency under its kind to `ops`.
  virtual double pass(Tracer* tracer, OpTimes& ops) = 0;
  /// Contract checks that need no timing (thread invariance, ...).
  virtual void final_checks() {}
  /// Per-surface figures of the workload, with their sample counts.
  virtual JsonValue detail() const = 0;
  /// Passes that run at least once whatever --seconds says.
  virtual int min_passes() const { return 1; }
};

std::unique_ptr<Workload> make_lattice(const Options& options, Checks& checks);
std::unique_ptr<Workload> make_implicit(const Options& options,
                                        Checks& checks);
std::unique_ptr<Workload> make_campaign(const Options& options,
                                        Checks& checks);
std::unique_ptr<Workload> make_daemon(const Options& options, Checks& checks);

/// The lattice workload's spec (JSON text) for `engine`; rounds 0 plans
/// them by Theorem 1.  `extra` is appended inside the object.
std::string lattice_spec_json(const Options& options, const std::string& engine,
                              std::uint32_t rounds, unsigned threads,
                              const std::string& extra = "");
/// The campaign workload's seeded grid (CampaignSpec JSON text).
std::string campaign_grid_json(const Options& options);
/// One daemon-traffic spec: torus2d:64x64, density or property, 300-500
/// agents, rounds in [min_rounds, max_rounds], all drawn from `s`.
std::string daemon_spec_json(SeedStream& s, std::uint64_t min_rounds,
                             std::uint64_t max_rounds);
/// canonical_payload of running the spec directly (threads=1): the bytes
/// the daemon must serve for it.
std::string direct_payload(const std::string& spec_text);

/// The per-layer probes: time single calls into each layer's public
/// functions on fixed, seeded inputs.  Appends one Metric per probe.
void run_probes(const Options& options, Checks& checks, Tracer& tracer,
                std::vector<Metric>& out);

}  // namespace perfbench
