#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace antdense::util {

namespace {

[[noreturn]] void fail(const std::string& what, std::size_t pos) {
  throw std::invalid_argument("json: " + what + " at offset " +
                              std::to_string(pos));
}

/// Containers may nest at most this deep.  The parser recurses once per
/// level, so a pathological document like ten thousand '[' would
/// otherwise turn into a stack overflow instead of an exception; no
/// artifact this repo emits comes anywhere near 64 levels.
constexpr int kMaxNestingDepth = 64;

/// Appends v's spelling to `out`.  Integral values inside the
/// double-exact range print as integers so counts stay counts; everything
/// else gets 17 significant digits, enough to round-trip.  std::to_chars
/// with a precision is defined to give printf's bytes ("%.0f", "%.17g"),
/// so documents and the identity hashes taken over them keep the bytes
/// an snprintf formatter wrote (tests/test_util_json.cpp pins it).
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument("json: cannot serialize non-finite number");
  }
  constexpr double kExact = 9007199254740992.0;  // 2^53
  // The longest spelling: sign, 17 digits, '.', "e-308".
  char buf[32];
  const std::to_chars_result r =
      v == std::floor(v) && std::fabs(v) < kExact
          ? std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed,
                          0)
          : std::to_chars(buf, buf + sizeof(buf), v,
                          std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

/// Appends `s` escaped for a JSON string body: quote, backslash, \n and
/// \t get their short escapes, other control bytes \u00xx, and the runs
/// between them are copied in one append each.
void append_escaped(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s, run, s.size() - run);
}

/// Recursive-descent parser over the raw text.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue run() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document", pos_);
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input (truncated document?)", pos_);
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'", pos_);
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal", pos_);
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal", pos_);
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal", pos_);
        return JsonValue();
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    const NestingGuard guard(this);
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  JsonValue parse_array() {
    expect('[');
    const NestingGuard guard(this);
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote, backslash or control byte in
      // one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (pos_ >= text_.size()) {
        fail("unterminated string", pos_);
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        fail("raw control character in string", pos_ - 1);
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape", pos_);
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out += e;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u':
          append_unicode_escape(out);
          break;
        default:
          fail("unknown escape", pos_ - 1);
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape", pos_);
    }
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') {
        cp |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        cp |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        cp |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape", pos_ - 1);
      }
    }
    if (cp >= 0xD800 && cp <= 0xDFFF) {
      fail("surrogate-pair escapes are not supported", pos_ - 6);
    }
    // Encode the BMP code point as UTF-8.
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool digit_at(std::size_t i) const {
    return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
  }

  /// The bytes a number token may contain; a malformed token is reported
  /// as the whole run of them.
  bool number_byte_at(std::size_t i) const {
    return digit_at(i) || (i < text_.size() &&
                           (text_[i] == '.' || text_[i] == 'e' ||
                            text_[i] == 'E' || text_[i] == '+' ||
                            text_[i] == '-'));
  }

  [[noreturn]] void fail_number(std::size_t start) {
    std::size_t end = start;
    while (number_byte_at(end)) {
      ++end;
    }
    fail("malformed number '" + text_.substr(start, end - start) + "'",
         start);
  }

  /// RFC 8259 number grammar, checked in place before from_chars reads
  /// the token: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, and the
  /// token must end the run of number bytes ("01" and "1e5e5" are
  /// malformed, not a number followed by garbage).
  JsonValue parse_number() {
    const std::size_t start = pos_;
    std::size_t i = pos_;
    if (i < text_.size() && text_[i] == '-') {
      ++i;
    }
    if (!digit_at(i)) {
      fail_number(start);
    }
    if (text_[i] == '0') {
      ++i;  // a leading zero must stand alone
    } else {
      while (digit_at(i)) {
        ++i;
      }
    }
    if (i < text_.size() && text_[i] == '.') {
      ++i;
      if (!digit_at(i)) {
        fail_number(start);
      }
      while (digit_at(i)) {
        ++i;
      }
    }
    if (i < text_.size() && (text_[i] == 'e' || text_[i] == 'E')) {
      ++i;
      if (i < text_.size() && (text_[i] == '+' || text_[i] == '-')) {
        ++i;
      }
      if (!digit_at(i)) {
        fail_number(start);
      }
      while (digit_at(i)) {
        ++i;
      }
    }
    if (number_byte_at(i)) {
      fail_number(start);
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + i;
    double v = 0.0;
    const std::from_chars_result r = std::from_chars(first, last, v);
    if (r.ec == std::errc::result_out_of_range) {
      v = out_of_range_value(first, last);
    } else if (r.ec != std::errc() || r.ptr != last) {
      fail_number(start);
    }
    pos_ = i;
    return JsonValue(v);
  }

  /// strtod's answer for a grammatical token outside double range:
  /// ±inf when its magnitude overflows, ±0 when it underflows.  The two
  /// cases lie hundreds of decades either side of 1, so the sign of the
  /// first significant digit's decimal exponent tells them apart (a
  /// zero mantissa is never out of range).
  static double out_of_range_value(const char* p, const char* last) {
    const bool negative = *p == '-';
    p += negative ? 1 : 0;
    const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
    long lead = std::find_if_not(p, last, is_digit) - p - 1;
    for (; p != last && (*p == '0' || *p == '.'); ++p) {
      lead -= *p == '0' ? 1 : 0;
    }
    p = std::find_if(p, last, [](char c) { return c == 'e' || c == 'E'; });
    long exponent = 0;
    if (p != last) {
      ++p;
      const bool exp_negative = *p == '-';
      p += (*p == '-' || *p == '+') ? 1 : 0;
      for (; p != last; ++p) {
        // Saturate: past a million decades every exponent is the same.
        exponent = std::min(exponent * 10 + (*p - '0'), 1'000'000L);
      }
      exponent = exp_negative ? -exponent : exponent;
    }
    const double magnitude =
        lead + exponent > 0 ? std::numeric_limits<double>::infinity() : 0.0;
    return negative ? -magnitude : magnitude;
  }

  /// Counts open containers; parse_object/parse_array hold one for
  /// their whole body so the limit bounds the recursion depth itself.
  struct NestingGuard {
    explicit NestingGuard(Parser* parser) : parser(parser) {
      if (++parser->depth_ > kMaxNestingDepth) {
        fail("nesting depth exceeds the limit of " +
                 std::to_string(kMaxNestingDepth),
             parser->pos_ - 1);
      }
    }
    ~NestingGuard() { --parser->depth_; }
    Parser* parser;
  };

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_escaped(out, s);
  return out;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) {
    throw std::invalid_argument("json: value is not a bool");
  }
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) {
    throw std::invalid_argument("json: value is not a number");
  }
  return num_;
}

std::uint64_t JsonValue::as_uint() const {
  const double v = as_double();
  // Doubles represent integers exactly only below 2^53; anything larger
  // (or non-finite) would silently round or invoke UB in the cast.
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (!std::isfinite(v) || v < 0.0 || v != std::floor(v) || v >= kExact) {
    throw std::invalid_argument(
        "json: value is not an exactly-representable non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) {
    throw std::invalid_argument("json: value is not a string");
  }
  return str_;
}

const JsonValue::Array& JsonValue::items() const {
  if (kind_ != Kind::kArray) {
    throw std::invalid_argument("json: value is not an array");
  }
  return array_;
}

const JsonValue::Object& JsonValue::entries() const {
  if (kind_ != Kind::kObject) {
    throw std::invalid_argument("json: value is not an object");
  }
  return object_;
}

JsonValue& JsonValue::push_back(JsonValue v) {
  if (kind_ == Kind::kNull) {
    kind_ = Kind::kArray;
  }
  if (kind_ != Kind::kArray) {
    throw std::invalid_argument("json: push_back on a non-array");
  }
  array_.push_back(std::move(v));
  return *this;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue v) {
  if (kind_ == Kind::kNull) {
    kind_ = Kind::kObject;
  }
  if (kind_ != Kind::kObject) {
    throw std::invalid_argument("json: set on a non-object");
  }
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(v));
  return *this;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

bool JsonValue::erase(const std::string& key) {
  if (kind_ != Kind::kObject) {
    return false;
  }
  for (auto it = object_.begin(); it != object_.end(); ++it) {
    if (it->first == key) {
      object_.erase(it);
      return true;
    }
  }
  return false;
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  // Pretty-printing puts each member on its own line, indented one level
  // deeper than the container's closing bracket.
  const std::size_t close_pad =
      indent > 0 ? static_cast<std::size_t>(indent) *
                       static_cast<std::size_t>(depth)
                 : 0;
  const std::size_t pad =
      indent > 0 ? close_pad + static_cast<std::size_t>(indent) : 0;
  const auto newline_pad = [&](std::size_t n) {
    if (indent > 0) {
      out += '\n';
      out.append(n, ' ');
    }
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      append_number(out, num_);
      break;
    case Kind::kString:
      out += '"';
      append_escaped(out, str_);
      out += '"';
      break;
    case Kind::kRaw:
      out += str_;
      break;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        newline_pad(pad);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(close_pad);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        newline_pad(pad);
        out += '"';
        append_escaped(out, object_[i].first);
        out += indent > 0 ? "\": " : "\":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(close_pad);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).run();
}

}  // namespace antdense::util
