// Stream-pin helper shared by the walk pin tables
// (tests/test_implicit_golden.cpp, tests/test_topology_contract.cpp).
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "scenario/experiment.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace antdense::testing {

/// FNV-1a over the hex bit patterns of a scenario's pooled estimates:
/// exact to the last bit and independent of float formatting.
inline std::string estimates_digest(const std::string& json) {
  const scenario::ScenarioResult result =
      scenario::Experiment(
          scenario::ScenarioSpec::from_json(util::JsonValue::parse(json)))
          .run();
  std::string bits;
  for (const double e : result.estimates) {
    bits += util::hex64(std::bit_cast<std::uint64_t>(e));
  }
  return std::to_string(result.estimates.size()) + ":" +
         util::hex64(util::fnv1a64(bits));
}

}  // namespace antdense::testing
