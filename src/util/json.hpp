// Minimal JSON value tree — writer and strict parser — shared by the
// bench artifact writer (bench/bench_json) and the scenario layer's
// ScenarioResult serialization / --spec file loading.  No external
// dependency: the repo bakes its own tiny implementation so CI artifacts
// and spec files round-trip through one code path.
//
// Scope (deliberate): UTF-8 text, doubles for all numbers (integral
// values in |v| < 2^53 print without a fractional part, which covers
// every agent/round/node count the repo emits), ordered objects so
// emitted documents are stable and diffable.  parse() accepts strict
// JSON (RFC 8259) minus surrogate-pair escapes and throws
// std::invalid_argument with position info on malformed input;
// containers may nest at most 64 deep (pathological nesting raises the
// same exception instead of overflowing the parser's recursion) and a
// truncated document says so rather than failing cryptically.
//
// Numbers: the writer spells them with std::to_chars (printf's "%.0f" /
// "%.17g" bytes), and the parser checks the RFC 8259 grammar inline and
// reads the token with std::from_chars straight from the text — the
// same correctly rounded double strtod gives.  A token out of double
// range keeps strtod's answer: ±inf above it, ±0 below it.  Because
// both directions are exact, dump(0) of a parsed dump(0) reproduces the
// input byte for byte.
//
// Raw values: JsonValue::raw(bytes) holds an already serialized value
// that dump() copies verbatim, so a cached result can be embedded in a
// response or journal record without a parse/dump round trip.  The
// bytes must be dump(0) output of some value (the caller's promise; not
// checked), and they stay compact inside a pretty-printed dump.  A raw
// value is opaque: every is_*() is false and the typed accessors throw.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace antdense::util {

/// Escapes a string for embedding in a JSON document (quotes excluded).
std::string json_escape(const std::string& s);

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(double v) : kind_(Kind::kNumber), num_(v) {}
  JsonValue(std::int64_t v)
      : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  JsonValue(std::uint64_t v)
      : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  JsonValue(std::uint32_t v)
      : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  JsonValue(std::int32_t v)
      : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  JsonValue(const char* s) : kind_(Kind::kString), str_(s) {}

  /// An empty array with room for `capacity` elements.
  static JsonValue array(std::size_t capacity = 0) {
    JsonValue v;
    v.kind_ = Kind::kArray;
    v.array_.reserve(capacity);
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }
  /// A value whose serialization is `bytes`, copied verbatim by dump().
  /// Precondition: `bytes` is dump(0) output (see the header comment).
  static JsonValue raw(std::string bytes) {
    JsonValue v;
    v.kind_ = Kind::kRaw;
    v.str_ = std::move(bytes);
    return v;
  }

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::invalid_argument on kind mismatch.
  bool as_bool() const;
  double as_double() const;
  /// Requires a non-negative integral number below 2^53 (the
  /// double-exact range); throws otherwise.
  std::uint64_t as_uint() const;
  const std::string& as_string() const;
  const Array& items() const;      // array elements
  const Object& entries() const;   // object key/value pairs, in order

  /// Appends to an array (converts a null to an empty array first).
  JsonValue& push_back(JsonValue v);
  /// Sets a key on an object (converts a null to an empty object first);
  /// an existing key is overwritten in place.
  JsonValue& set(const std::string& key, JsonValue v);
  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Removes a key from an object (order of the others is preserved);
  /// returns whether it was present.  No-op false on non-objects — the
  /// serve layer strips optional keys (timings) without caring whether a
  /// given document carried them.
  bool erase(const std::string& key);

  /// Serializes the value.  indent > 0 pretty-prints with that many
  /// spaces per level; indent == 0 emits compact single-line JSON.  Raw
  /// values are copied as they are at any indent.
  /// Throws std::invalid_argument on non-finite numbers (never emits
  /// NaN/Inf).
  std::string dump(int indent = 2) const;

  /// Strict parse of a complete JSON document (trailing garbage is an
  /// error).  Throws std::invalid_argument with a byte offset.
  static JsonValue parse(const std::string& text);

 private:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject, kRaw };

  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array array_;
  Object object_;
};

}  // namespace antdense::util
