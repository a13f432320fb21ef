#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/hash.hpp"

namespace perfbench {

namespace scenario = antdense::scenario;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- SeedStream -------------------------------------------------------------

SeedStream::SeedStream(std::uint64_t seed, std::uint64_t tag)
    : state_(seed ^ (tag * 0x9E3779B97F4A7C15ULL)) {
  next();
}

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t SeedStream::in(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

// --- Options / Checks ---------------------------------------------------------

bool Options::injects(const std::string& fault) const {
  std::stringstream list(inject);
  std::string item;
  while (std::getline(list, item, ',')) {
    if (item == fault) {
      return true;
    }
  }
  return false;
}

unsigned Options::threads() const {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, cores);
}

void Checks::record(bool ok, const std::string& what) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) {
      failures_.push_back(what);
    }
  }
}

std::uint64_t Checks::attempted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::uint64_t Checks::failed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

std::vector<std::string> Checks::failures() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

// --- Tracer -------------------------------------------------------------------

namespace {

struct OpenSpan {
  std::uint64_t id;
  std::uint64_t request;
};

std::vector<OpenSpan>& open_spans() {
  thread_local std::vector<OpenSpan> stack;
  return stack;
}

double now_us() { return now_s() * 1e6; }

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xFFFF;
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::string layer,
                     std::uint64_t request)
    : tracer_(tracer), start_us_(now_us()) {
  if (tracer_ == nullptr) {
    return;
  }
  name_ = std::move(name);
  layer_ = std::move(layer);
  auto& stack = open_spans();
  if (!stack.empty()) {
    parent_ = stack.back().id;
    request_ = request != 0 ? request : stack.back().request;
  } else {
    request_ = request;
  }
  id_ = tracer_->next_id();
  if (request_ == 0) {
    request_ = id_;  // a root span starts its own request
  }
  stack.push_back({id_, request_});
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  open_spans().pop_back();
  tracer_->record({id_, parent_, request_, std::move(name_), std::move(layer_),
                   start_us_, now_us(), thread_tag()});
}

double Tracer::Scope::seconds() const { return (now_us() - start_us_) * 1e-6; }

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::pair<std::uint64_t, double> Tracer::add_synthetic(
    std::uint64_t parent, double parent_start_us, const std::string& name,
    const std::string& layer, double seconds, std::uint64_t request) {
  if (seconds <= 0.0) {
    return {0, parent_start_us};
  }
  std::uint64_t id;
  double start;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    double& cursor = synthetic_cursor_us_[parent];
    if (cursor < parent_start_us) {
      cursor = parent_start_us;
    }
    start = cursor;
    cursor += seconds * 1e6;
  }
  record({id, parent, request, name, layer, start, start + seconds * 1e6,
          thread_tag()});
  return {id, start};
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, double> child_us;
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_us[s.parent] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const auto it = child_us.find(s.id);
    const double covered = it == child_us.end() ? 0.0 : it->second;
    out[s.layer] += std::max(0.0, s.end_us - s.start_us - covered) * 1e-6;
  }
  return out;
}

JsonValue Tracer::chrome_trace(int pid) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  JsonValue events = JsonValue::array();
  for (const Span& s : spans_) {
    JsonValue e = JsonValue::object();
    e.set("name", s.name);
    e.set("cat", s.layer);
    e.set("ph", "X");
    e.set("ts", s.start_us);
    e.set("dur", s.end_us - s.start_us);
    e.set("pid", static_cast<std::int64_t>(pid));
    e.set("tid", s.thread);
    JsonValue args = JsonValue::object();
    args.set("id", s.id);
    args.set("parent", s.parent);
    args.set("request", s.request);
    e.set("args", args);
    events.push_back(std::move(e));
  }
  return events;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> phase_sums(const JsonValue& metrics_json) {
  static const std::string kName = "antdense_engine_phase_seconds{";
  std::map<std::string, double> out;
  if (!metrics_json.is_object()) {
    return out;
  }
  const auto label = [](const std::string& key, const std::string& name) {
    const std::string open = name + "=\"";
    const std::size_t at = key.find(open);
    if (at == std::string::npos) {
      return std::string();
    }
    const std::size_t begin = at + open.size();
    return key.substr(begin, key.find('"', begin) - begin);
  };
  for (const auto& [key, value] : metrics_json.entries()) {
    if (key.rfind(kName, 0) != 0) {
      continue;
    }
    const JsonValue* sum = value.find("sum");
    if (sum != nullptr && sum->is_number()) {
      out[label(key, "engine") + "." + label(key, "phase")] += sum->as_double();
    }
  }
  return out;
}

std::pair<double, double> graph_sim_seconds(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after) {
  double graph = 0.0;
  double sim = 0.0;
  for (const auto& [key, total] : after) {
    const auto it = before.find(key);
    const double delta = total - (it == before.end() ? 0.0 : it->second);
    const std::string phase = key.substr(key.find('.') + 1);
    (phase == "step" ? graph : sim) += delta;
  }
  return {graph, sim};
}

void add_phase_children(Tracer& tracer, const Tracer::Scope& parent,
                        const std::map<std::string, double>& before,
                        const std::map<std::string, double>& after,
                        double scale) {
  const auto [graph, sim] = graph_sim_seconds(before, after);
  tracer.add_synthetic(parent.id(), parent.start_us(), "walk.step", "graph",
                       graph * scale, parent.request());
  tracer.add_synthetic(parent.id(), parent.start_us(), "walk.phases", "sim",
                       sim * scale, parent.request());
}

// --- scenario helpers ---------------------------------------------------------

std::string canonical_payload(const scenario::ScenarioResult& result) {
  JsonValue doc = result.to_json();
  doc.erase("elapsed_seconds");
  doc.erase("elapsed_ns");
  JsonValue spec_doc = result.spec.to_json();
  spec_doc.erase("threads");
  doc.set("spec", std::move(spec_doc));
  return doc.dump(0);
}

std::string digest(const std::string& bytes) {
  return antdense::util::hex64(antdense::util::fnv1a64(bytes));
}

scenario::ScenarioSpec parse_spec(const std::string& json_text) {
  return scenario::ScenarioSpec::from_json(JsonValue::parse(json_text));
}

namespace {

/// The canary set: small fixed specs covering every engine, the lattice,
/// implicit and explicit families, all four scenario workloads and a
/// dynamic world.  Their canonical digests are pinned in
/// perfbench/pinned_digests.json (the byte-identity contract).
const std::vector<std::pair<std::string, std::string>>& canaries() {
  static const std::vector<std::pair<std::string, std::string>> kCanaries = {
      {"torus2d.density.single",
       R"({"topology":"torus2d:48x48","workload":"density","agents":230,"rounds":64,"seed":11,"engine":"single"})"},
      {"torus2d.density.sharded",
       R"({"topology":"torus2d:300x300","workload":"density","agents":9000,"rounds":16,"seed":12,"engine":"sharded"})"},
      {"torus2d.density.vector",
       R"({"topology":"torus2d:48x48","workload":"density","agents":230,"rounds":64,"seed":13,"engine":"vector"})"},
      {"rgg2d.density.vector",
       R"({"topology":"rgg2d:n=100000,r=0.005,seed=1","workload":"density","agents":500,"rounds":8,"seed":14,"engine":"vector"})"},
      {"gnp.property.single",
       R"({"topology":"gnp:n=600,p=0.013,seed=7","workload":"property","agents":60,"rounds":16,"seed":15,"engine":"single"})"},
      {"ba.density.sharded",
       R"({"topology":"ba:n=500,d=4,seed=1","workload":"density","agents":100,"rounds":2,"seed":16,"engine":"sharded"})"},
      {"torus2d.churn.single",
       R"({"topology":"torus2d:24x24","workload":"density","agents":60,"rounds":100,"seed":17,"engine":"single","dynamics":"churn:p_edge=0.001,p_fail=0.0005"})"},
      {"expander.local-density.sharded",
       R"({"topology":"expander:d=8,n=512,seed=7","workload":"local-density","agents":60,"rounds":40,"seed":18,"engine":"sharded"})"},
      {"ring.trajectory.vector",
       R"({"topology":"ring:1024","workload":"trajectory","agents":50,"rounds":64,"seed":19,"engine":"vector"})"},
  };
  return kCanaries;
}

std::string canary_digest(const std::string& spec_text, unsigned threads) {
  scenario::ScenarioSpec spec = parse_spec(spec_text);
  spec.threads = threads;
  return digest(canonical_payload(scenario::Experiment(spec).run()));
}

}  // namespace

std::size_t check_pinned_canaries(const Options& options, Checks& checks) {
  std::map<std::string, std::string> pinned;
  try {
    std::ifstream in(options.pinned_path);
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue doc = JsonValue::parse(text.str());
    const JsonValue* digests = doc.find("digests");
    if (digests == nullptr) {
      throw std::invalid_argument("no \"digests\" object");
    }
    for (const auto& [label, value] : digests->entries()) {
      pinned[label] = value.as_string();
    }
  } catch (const std::exception& e) {
    checks.record(false, "pinned digests unreadable: " + std::string(e.what()));
    return 0;
  }
  if (options.injects("digest") && !pinned.empty()) {
    std::string& first = pinned.begin()->second;
    first[0] = first[0] == '0' ? '1' : '0';
  }
  for (const auto& [label, spec_text] : canaries()) {
    const auto it = pinned.find(label);
    const std::string got = canary_digest(spec_text, options.threads());
    checks.record(it != pinned.end() && it->second == got,
                  "canary " + label + " digest " + got + " != pinned " +
                      (it == pinned.end() ? "<none>" : it->second));
  }
  return canaries().size();
}

void write_pinned_canaries(const Options& options) {
  JsonValue digests = JsonValue::object();
  for (const auto& [label, spec_text] : canaries()) {
    digests.set(label, canary_digest(spec_text, 1));
  }
  JsonValue doc = JsonValue::object();
  doc.set("schema", "antdense.perfbench.pinned.v1");
  doc.set("note",
          "canonical result-document digests (FNV-1a of the document minus "
          "elapsed_* and spec.threads); regenerate with --write-pinned only "
          "when a result format change is intended");
  doc.set("digests", digests);
  std::ofstream out(options.pinned_path);
  out << doc.dump(2) << "\n";
}

JsonValue provenance() {
  JsonValue doc = JsonValue::object();
  doc.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  doc.set("hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  doc.set("antdense_avx2_compiled", PERFBENCH_ANTDENSE_AVX2 != 0);
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  doc.set("cpu_avx2", __builtin_cpu_supports("avx2") != 0);
#else
  doc.set("cpu_avx2", false);
#endif
  doc.set("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  doc.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  doc.set("compiler", std::string("gcc ") + __VERSION__);
#else
  doc.set("compiler", "unknown");
#endif
  return doc;
}

}  // namespace perfbench
