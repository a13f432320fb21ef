#include "scenario/dynamics_registry.hpp"

#include <limits>
#include <utility>

#include "scenario/kv_params.hpp"
#include "sim/dynamic_world.hpp"
#include "util/check.hpp"
#include "util/format.hpp"

namespace antdense::scenario {

namespace {

using detail::f64_field;
using detail::KvField;
using detail::KvValues;
using detail::u64_field;

constexpr detail::SpecParser kSpec("dynamics spec");

/// churn grammar.  mean_down defaults to 10 rounds; the canonical
/// spelling makes both optional parameters explicit so parameter order
/// and omitted defaults never split the identity hash.
const std::vector<KvField>& churn_fields() {
  static const std::vector<KvField> fields = {
      f64_field("p_edge", /*required=*/true),
      f64_field("p_fail", /*required=*/true),
      u64_field("mean_down", /*required=*/false, 10),
      u64_field("seed", /*required=*/false, 0)};
  return fields;
}

struct ChurnParams {
  double p_edge = 0.0;
  double p_fail = 0.0;
  std::uint32_t mean_down = 10;
  std::uint64_t seed = 0;
};

ChurnParams parse_churn(const std::string& params) {
  const KvValues v = kSpec.parse_kv("churn", params, churn_fields());
  ChurnParams out;
  out.p_edge = v.f64s[0];
  out.p_fail = v.f64s[1];
  kSpec.check_range(out.p_edge >= 0.0 && out.p_edge <= 1.0, "churn",
                    "p_edge", util::format_shortest(out.p_edge),
                    "must be in [0,1]");
  kSpec.check_range(out.p_fail >= 0.0 && out.p_fail <= 1.0, "churn",
                    "p_fail", util::format_shortest(out.p_fail),
                    "must be in [0,1]");
  kSpec.check_range(v.u64s[2] >= 1 &&
                        v.u64s[2] <= std::numeric_limits<std::uint32_t>::max(),
                    "churn", "mean_down", std::to_string(v.u64s[2]),
                    "must be in [1, 2^32)");
  out.mean_down = static_cast<std::uint32_t>(v.u64s[2]);
  out.seed = v.u64s[3];
  return out;
}

const std::vector<KvField>& drift_fields() {
  static const std::vector<KvField> fields = {
      f64_field("p_death", /*required=*/true),
      f64_field("p_birth", /*required=*/true),
      u64_field("seed", /*required=*/false, 0)};
  return fields;
}

struct DriftParams {
  double p_death = 0.0;
  double p_birth = 0.0;
  std::uint64_t seed = 0;
};

DriftParams parse_drift(const std::string& params) {
  const KvValues v = kSpec.parse_kv("drift", params, drift_fields());
  DriftParams out{.p_death = v.f64s[0], .p_birth = v.f64s[1],
                  .seed = v.u64s[2]};
  kSpec.check_range(out.p_death >= 0.0 && out.p_death <= 1.0, "drift",
                    "p_death", util::format_shortest(out.p_death),
                    "must be in [0,1]");
  kSpec.check_range(out.p_birth >= 0.0 && out.p_birth <= 1.0, "drift",
                    "p_birth", util::format_shortest(out.p_birth),
                    "must be in [0,1]");
  return out;
}

const std::vector<KvField>& fade_fields() {
  static const std::vector<KvField> fields = {
      f64_field("p0", /*required=*/true),
      f64_field("step", /*required=*/true),
      u64_field("seed", /*required=*/false, 0)};
  return fields;
}

struct FadeParams {
  double p0 = 0.0;
  double step = 0.0;
  std::uint64_t seed = 0;
};

FadeParams parse_fade(const std::string& params) {
  const KvValues v = kSpec.parse_kv("fade", params, fade_fields());
  FadeParams out{.p0 = v.f64s[0], .step = v.f64s[1], .seed = v.u64s[2]};
  kSpec.check_range(out.p0 >= 0.0 && out.p0 <= 1.0, "fade", "p0",
                    util::format_shortest(out.p0), "must be in [0,1]");
  kSpec.check_range(out.step >= 0.0 && out.step <= 1.0, "fade", "step",
                    util::format_shortest(out.step), "must be in [0,1]");
  return out;
}

DynamicsRegistry make_built_in() {
  DynamicsRegistry reg;
  reg.register_family(
      "churn",
      {.make =
           [](const std::string& params, const graph::AnyTopology& topo,
              std::uint32_t /*agents*/)
               -> std::unique_ptr<sim::WorldDynamics> {
             const ChurnParams p = parse_churn(params);
             return std::make_unique<sim::ChurnDynamics>(
                 topo, p.p_edge, p.p_fail, p.mean_down, p.seed);
           },
       .canonical =
           [](const std::string& params) {
             const ChurnParams p = parse_churn(params);
             // Matches ChurnDynamics::name() byte for byte.
             return "churn:p_edge=" + util::format_shortest(p.p_edge) +
                    ",p_fail=" + util::format_shortest(p.p_fail) +
                    ",mean_down=" + std::to_string(p.mean_down) +
                    ",seed=" + std::to_string(p.seed);
           },
       .grammar = "churn:p_edge=P,p_fail=P[,mean_down=R][,seed=S] — edge "
                  "churn + node failure "
                  "(e.g. churn:p_edge=0.001,p_fail=0.0005)"});

  reg.register_family(
      "drift",
      {.make =
           [](const std::string& params, const graph::AnyTopology& topo,
              std::uint32_t agents) -> std::unique_ptr<sim::WorldDynamics> {
             const DriftParams p = parse_drift(params);
             return std::make_unique<sim::DriftDynamics>(
                 topo, agents, p.p_death, p.p_birth, p.seed);
           },
       .canonical =
           [](const std::string& params) {
             const DriftParams p = parse_drift(params);
             return "drift:p_death=" + util::format_shortest(p.p_death) +
                    ",p_birth=" + util::format_shortest(p.p_birth) +
                    ",seed=" + std::to_string(p.seed);
           },
       .grammar = "drift:p_death=P,p_birth=P[,seed=S] — agent birth/death "
                  "under population drift "
                  "(e.g. drift:p_death=0.01,p_birth=0.01)"});

  reg.register_family(
      "fade",
      {.make =
           [](const std::string& params, const graph::AnyTopology& /*topo*/,
              std::uint32_t agents) -> std::unique_ptr<sim::WorldDynamics> {
             const FadeParams p = parse_fade(params);
             return std::make_unique<sim::FadeDynamics>(agents, p.p0, p.step,
                                                        p.seed);
           },
       .canonical =
           [](const std::string& params) {
             const FadeParams p = parse_fade(params);
             return "fade:p0=" + util::format_shortest(p.p0) +
                    ",step=" + util::format_shortest(p.step) +
                    ",seed=" + std::to_string(p.seed);
           },
       .grammar = "fade:p0=P,step=P[,seed=S] — per-agent time-varying "
                  "detection-miss probability "
                  "(e.g. fade:p0=0.1,step=0.02)"});
  return reg;
}

}  // namespace

const DynamicsRegistry& DynamicsRegistry::built_in() {
  static const DynamicsRegistry reg = make_built_in();
  return reg;
}

void DynamicsRegistry::register_family(const std::string& name,
                                       Family family) {
  ANTDENSE_CHECK(!name.empty() && name.find(':') == std::string::npos,
                 "model name must be non-empty and colon-free");
  ANTDENSE_CHECK(family.make != nullptr && family.canonical != nullptr,
                 "model family needs both make and canonical");
  families_[name] = std::move(family);
}

bool DynamicsRegistry::has_family(const std::string& name) const {
  return families_.count(name) > 0;
}

const std::string& DynamicsRegistry::grammar(const std::string& name) const {
  const auto it = families_.find(name);
  ANTDENSE_CHECK(it != families_.end(),
                 "unknown dynamics model '" + name + "'");
  return it->second.grammar;
}

std::vector<std::string> DynamicsRegistry::family_names() const {
  std::vector<std::string> out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    out.push_back(name);
  }
  return out;
}

const DynamicsRegistry::Family& DynamicsRegistry::family_for(
    const std::string& spec, std::string* params) const {
  const std::size_t colon = spec.find(':');
  ANTDENSE_CHECK(colon != std::string::npos && colon > 0,
                 "dynamics spec '" + spec +
                     "' must look like model:params "
                     "(e.g. churn:p_edge=0.001,p_fail=0.0005)");
  const std::string model = spec.substr(0, colon);
  const auto it = families_.find(model);
  if (it == families_.end()) {
    std::string known;
    for (const auto& [name, f] : families_) {
      known += (known.empty() ? "" : ", ") + name;
    }
    throw std::invalid_argument("unknown dynamics model '" + model +
                                "' (known: " + known + ")");
  }
  *params = spec.substr(colon + 1);
  return it->second;
}

std::unique_ptr<sim::WorldDynamics> DynamicsRegistry::make(
    const std::string& spec, const graph::AnyTopology& topo,
    std::uint32_t agents) const {
  std::string params;
  const Family& family = family_for(spec, &params);
  return family.make(params, topo, agents);
}

std::string DynamicsRegistry::canonical(const std::string& spec) const {
  std::string params;
  const Family& family = family_for(spec, &params);
  return family.canonical(params);
}

}  // namespace antdense::scenario
