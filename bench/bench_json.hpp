// Machine-readable bench output: a flat list of timing records
// serialized as a JSON array, so CI can archive per-commit perf
// artifacts (BENCH_*.json) and trend them.
//
// Schema (one object per record):
//   { "name": str,                 // which stepping path, e.g. "engine"
//     "topology": str,             // Topology::name()
//     "agents": int,
//     "rounds": int,
//     "ns_per_agent_round": float,
//     "threads": int,              // optional: worker threads used
//     "hardware_threads": int,     // optional: cores on the bench host
//     "peak_rss_bytes": int,       // optional: process high-water RSS
//     "avx2": bool }               // walk kernels ran their AVX2 bodies
//
// The optional fields (emitted only when a bench sets them nonzero)
// let multi-threaded benches like bench_shard record how wide they ran
// and how wide the host was — a "sharded/t8" row on a 4-core CI runner
// or a 1-core container is meaningless without them — and let benches
// over implicit topologies record the resident-set high-water mark, the
// number that proves an O(agents)-memory substrate stayed that way.
// peak_rss_bytes is the getrusage high-water mark at the time the cell
// finished, so within one process it is monotone across records.
// "avx2" is on every record: whether the walk kernels ran their AVX2
// bodies (util/simd.hpp: chosen at run time from the CPU), which decides
// the step, key and prefilter timings.
//
// Serialization rides on the shared in-repo writer (util/json.hpp) — no
// external JSON dependency — which escapes strings and rejects
// non-finite numbers so the output always parses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace antdense::bench {

struct BenchRecord {
  std::string name;
  std::string topology;
  std::uint64_t agents = 0;
  std::uint64_t rounds = 0;
  double ns_per_agent_round = 0.0;
  std::uint64_t threads = 0;           // 0 = not recorded
  std::uint64_t hardware_threads = 0;  // 0 = not recorded
  std::uint64_t peak_rss_bytes = 0;    // 0 = not recorded
};

/// Process peak resident set in bytes via getrusage, or 0 when the
/// platform cannot report it.  Monotone over the process lifetime.
std::uint64_t peak_rss_bytes();

/// Serializes the records as a pretty-printed JSON array.  Throws
/// std::invalid_argument on non-finite timings (never emits NaN/Inf).
std::string to_json(const std::vector<BenchRecord>& records);

/// Writes to_json(records) to `path`, throwing std::runtime_error if the
/// file cannot be written.
void write_json(const std::string& path,
                const std::vector<BenchRecord>& records);

}  // namespace antdense::bench
