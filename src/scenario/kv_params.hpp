// Strict parameter parsing shared by the spec registries
// (scenario/registry.cpp for topologies, scenario/dynamics_registry.cpp
// for dynamics models).  Internal to src/scenario.
//
// Diagnostics contract (see tests/test_scenario.cpp and
// tests/test_dynamics.cpp): every parse error names the spec kind, the
// family AND the offending key=value, so a failed sweep axis is
// attributable from the message alone.
#pragma once

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace antdense::scenario::detail {

/// One typed field of a "k=v,k=v" parameter list.
struct KvField {
  enum class Kind { kU64, kF64 };
  std::string key;
  Kind kind = Kind::kU64;
  bool required = false;
  std::uint64_t u64_default = 0;
  double f64_default = 0.0;
};

struct KvValues {
  std::vector<std::uint64_t> u64s;  // indexed like the field schema
  std::vector<double> f64s;
};

inline KvField u64_field(std::string key, bool required,
                         std::uint64_t fallback = 0) {
  return {.key = std::move(key), .kind = KvField::Kind::kU64,
          .required = required, .u64_default = fallback};
}

inline KvField f64_field(std::string key, bool required,
                         double fallback = 0.0) {
  return {.key = std::move(key), .kind = KvField::Kind::kF64,
          .required = required, .f64_default = fallback};
}

/// The parsers of one spec grammar.  Every error is an
/// std::invalid_argument reading "<kind> '<family>': <detail>", with
/// `kind` "topology spec" or "dynamics spec".
class SpecParser {
 public:
  explicit constexpr SpecParser(const char* kind) : kind_(kind) {}

  [[noreturn]] void fail(const std::string& family,
                         const std::string& detail) const {
    throw std::invalid_argument(std::string(kind_) + " '" + family +
                                "': " + detail);
  }

  /// Strict uint parse: the whole token must be digits (no sign, no
  /// trailing garbage) so "64x64x3" or "1e4" fail loudly.
  std::uint64_t parse_u64(const std::string& family, const std::string& key,
                          const std::string& token) const {
    std::uint64_t value = 0;
    const char* begin = token.data();
    const char* end = begin + token.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (token.empty() || ec != std::errc{} || ptr != end) {
      fail(family, "parameter '" + key + "=" + token +
                       "': expected an unsigned integer");
    }
    return value;
  }

  /// Strict double parse for real-valued parameters.
  double parse_f64(const std::string& family, const std::string& key,
                   const std::string& token) const {
    double value = 0.0;
    const char* begin = token.data();
    const char* end = begin + token.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (token.empty() || ec != std::errc{} || ptr != end) {
      fail(family, "parameter '" + key + "=" + token +
                       "': expected a real number");
    }
    return value;
  }

  /// Parses "k=v,k=v" against a typed schema (later duplicates win).
  /// Every diagnostic carries the family and the offending key=value.
  KvValues parse_kv(const std::string& family, const std::string& params,
                    const std::vector<KvField>& fields) const {
    KvValues values;
    values.u64s.resize(fields.size());
    values.f64s.resize(fields.size());
    std::vector<bool> seen(fields.size(), false);
    for (std::size_t i = 0; i < fields.size(); ++i) {
      values.u64s[i] = fields[i].u64_default;
      values.f64s[i] = fields[i].f64_default;
    }
    std::size_t start = 0;
    while (start <= params.size()) {
      const std::size_t comma = params.find(',', start);
      const std::string item =
          params.substr(start, comma == std::string::npos ? std::string::npos
                                                          : comma - start);
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos) {
        fail(family, "expected key=value, got '" + item + "'");
      }
      const std::string key = item.substr(0, eq);
      const std::string token = item.substr(eq + 1);
      bool matched = false;
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (fields[i].key == key) {
          if (fields[i].kind == KvField::Kind::kU64) {
            values.u64s[i] = parse_u64(family, key, token);
          } else {
            values.f64s[i] = parse_f64(family, key, token);
          }
          seen[i] = true;
          matched = true;
          break;
        }
      }
      if (!matched) {
        std::string known;
        for (const auto& f : fields) {
          known += (known.empty() ? "" : ", ") + f.key;
        }
        fail(family, "unknown parameter '" + key + "=" + token +
                         "' (expected: " + known + ")");
      }
      if (comma == std::string::npos) {
        break;
      }
      start = comma + 1;
    }
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (fields[i].required && !seen[i]) {
        fail(family, "missing required parameter '" + fields[i].key + "'");
      }
    }
    return values;
  }

  /// Range guard whose message carries family, key, and value.
  void check_range(bool ok, const std::string& family, const std::string& key,
                   const std::string& value,
                   const std::string& expectation) const {
    if (!ok) {
      fail(family, "parameter '" + key + "=" + value + "': " + expectation);
    }
  }

 private:
  const char* kind_;
};

}  // namespace antdense::scenario::detail
