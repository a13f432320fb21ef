#include "bench_json.hpp"

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace antdense::bench {

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

std::string to_json(const std::vector<BenchRecord>& records) {
  util::JsonValue doc = util::JsonValue::array();
  for (const BenchRecord& r : records) {
    ANTDENSE_CHECK(std::isfinite(r.ns_per_agent_round),
                   "bench timing must be finite");
    util::JsonValue rec = util::JsonValue::object();
    rec.set("name", r.name);
    rec.set("topology", r.topology);
    rec.set("agents", r.agents);
    rec.set("rounds", r.rounds);
    rec.set("ns_per_agent_round", r.ns_per_agent_round);
    if (r.threads != 0) {
      rec.set("threads", r.threads);
    }
    if (r.hardware_threads != 0) {
      rec.set("hardware_threads", r.hardware_threads);
    }
    if (r.peak_rss_bytes != 0) {
      rec.set("peak_rss_bytes", r.peak_rss_bytes);
    }
    rec.set("avx2", util::cpu_has_avx2());
    doc.push_back(std::move(rec));
  }
  return doc.dump() + "\n";
}

void write_json(const std::string& path,
                const std::vector<BenchRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("bench_json: cannot open " + path +
                             " for writing");
  }
  out << to_json(records);
  if (!out.good()) {
    throw std::runtime_error("bench_json: write to " + path + " failed");
  }
}

}  // namespace antdense::bench
