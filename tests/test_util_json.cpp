#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "rng/xoshiro256pp.hpp"

namespace antdense::util {
namespace {

TEST(JsonValue, DumpsScalars) {
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(std::uint64_t{42}).dump(), "42");
  EXPECT_EQ(JsonValue(-7.0).dump(), "-7");
  EXPECT_EQ(JsonValue(0.5).dump(), "0.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

/// The spelling an snprintf formatter gives `v`: "%.0f" for integral
/// values below 2^53 in magnitude, "%.17g" otherwise.
std::string printf_spelling(double v) {
  char buf[64];
  const bool integral =
      v == std::floor(v) && std::fabs(v) < 9007199254740992.0;
  std::snprintf(buf, sizeof(buf), integral ? "%.0f" : "%.17g", v);
  return buf;
}

TEST(JsonValue, NumbersKeepPrintfBytes) {
  // Result documents and the identity hashes taken over them were
  // written with snprintf; the formatter must keep every byte.
  constexpr double kTwo53 = 9007199254740992.0;
  std::vector<double> values = {
      0.0, -0.0, 0.5, -7.0, 0.1, 1.0 / 3.0, 1e-5, 123456789.125,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      kTwo53 - 1.0, kTwo53, std::nextafter(kTwo53, 1e300), -(kTwo53 - 1.0),
      -kTwo53, std::nextafter(kTwo53, 0.0) + 0.5, 1e300, -1e300, 1e-300,
      -1e-300, 1e15, 1e16, 1e17, 1e21, 1e22};
  rng::Xoshiro256pp gen(0x4A50u);
  while (values.size() < 3'000'000) {
    const std::uint64_t bits = gen();
    double v = 0.0;
    switch (values.size() % 5) {
      case 0:  // any bit pattern (non-finite ones skipped)
        v = std::bit_cast<double>(bits);
        break;
      case 1:  // uniform in [0, 1), either sign
        v = static_cast<double>(bits >> 11) * 0x1.0p-53;
        v = (bits & 1) != 0 ? -v : v;
        break;
      case 2:  // integral, at every magnitude up to 2^64
        v = static_cast<double>(static_cast<std::int64_t>(bits) >>
                                (gen() % 64));
        break;
      case 3:  // exponents 2^-150 .. 2^150
        v = std::ldexp(static_cast<double>(bits >> 11) * 0x1.0p-53,
                       static_cast<int>(gen() % 301) - 150);
        break;
      default:  // subnormal
        v = std::bit_cast<double>(bits & 0x800FFFFFFFFFFFFFULL);
        break;
    }
    if (std::isfinite(v)) {
      values.push_back(v);
    }
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string got = JsonValue(v).dump();
    const std::string want = printf_spelling(v);
    if (got != want && mismatches++ < 5) {
      ADD_FAILURE() << "bits " << std::hex << std::bit_cast<std::uint64_t>(v)
                    << ": dumped " << got << ", printf spells " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " numbers";
}

TEST(JsonValue, EscapesStrings) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonValue(std::string("\x01")).dump(), "\"\\u0001\"");
}

TEST(JsonValue, ObjectsKeepInsertionOrderAndOverwrite) {
  JsonValue doc = JsonValue::object();
  doc.set("b", 1.0);
  doc.set("a", 2.0);
  doc.set("b", 3.0);  // overwrite in place, order preserved
  EXPECT_EQ(doc.dump(0), "{\"b\":3,\"a\":2}");
  ASSERT_NE(doc.find("b"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("b")->as_double(), 3.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonValue, PrettyPrintsNestedStructures) {
  JsonValue doc = JsonValue::object();
  doc.set("xs", JsonValue::array().push_back(1.0).push_back(2.0));
  EXPECT_EQ(doc.dump(2), "{\n  \"xs\": [\n    1,\n    2\n  ]\n}");
}

TEST(JsonValue, RejectsNonFiniteNumbers) {
  EXPECT_THROW(JsonValue(1.0 / 0.0).dump(), std::invalid_argument);
}

TEST(JsonValue, ParsesRoundTrip) {
  const std::string text =
      R"js({"name": "torus2d(8x8)", "agents": 100, "ratio": -0.25,)js"
      R"js( "ok": true, "none": null, "xs": [1, 2.5, "three"]})js";
  const JsonValue doc = JsonValue::parse(text);
  EXPECT_EQ(doc.find("name")->as_string(), "torus2d(8x8)");
  EXPECT_EQ(doc.find("agents")->as_uint(), 100u);
  EXPECT_DOUBLE_EQ(doc.find("ratio")->as_double(), -0.25);
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_TRUE(doc.find("none")->is_null());
  ASSERT_EQ(doc.find("xs")->items().size(), 3u);
  EXPECT_EQ(doc.find("xs")->items()[2].as_string(), "three");
  // dump -> parse -> dump is a fixed point.
  EXPECT_EQ(JsonValue::parse(doc.dump()).dump(), doc.dump());
}

TEST(JsonValue, ParsesEscapes) {
  const JsonValue doc = JsonValue::parse(R"(["a\"b", "\u0041", "\n"])");
  EXPECT_EQ(doc.items()[0].as_string(), "a\"b");
  EXPECT_EQ(doc.items()[1].as_string(), "A");
  EXPECT_EQ(doc.items()[2].as_string(), "\n");
}

TEST(JsonValue, ParseRejectsMalformedInput) {
  const char* bad[] = {
      "",            // empty
      "{",           // unterminated object
      "[1, 2",       // unterminated array
      "\"abc",       // unterminated string
      "{\"a\" 1}",   // missing colon
      "[1 2]",       // missing comma
      "tru",         // bad literal
      "01a",         // trailing garbage in number context
      "[1] []",      // trailing document
      "{\"a\": 1,}", // trailing comma (strict)
      "nan",         // not JSON
      "01",          // leading zero (RFC 8259 number grammar)
      "-.5",         // missing integer part
      "1.",          // missing fraction digits
      "1e",          // missing exponent digits
      "+5",          // explicit plus sign
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    EXPECT_THROW(JsonValue::parse(text), std::invalid_argument);
  }
}

TEST(JsonParse, NestingWithinTheLimitParses) {
  // 64 containers deep is allowed; the document below nests 60.
  std::string text;
  for (int i = 0; i < 60; ++i) {
    text += '[';
  }
  for (int i = 0; i < 60; ++i) {
    text += ']';
  }
  EXPECT_NO_THROW(JsonValue::parse(text));
}

TEST(JsonParse, PathologicalNestingThrowsInsteadOfOverflowing) {
  // 100k open containers would recurse the parser off the stack without
  // the depth limit; it must surface as an ordinary parse error.
  std::string objects;
  for (int i = 0; i < 100000; ++i) {
    objects += "{\"a\":";
  }
  for (const std::string& text : {std::string(100000, '['), objects}) {
    try {
      JsonValue::parse(text);
      FAIL() << "expected a nesting-depth error";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("nesting depth"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(JsonParse, TruncatedDocumentsNameTheProblem) {
  const char* truncated[] = {
      "",
      "{\"a\": 1",
      "[1, 2",
      "{\"a\":",
      "{",
  };
  for (const char* text : truncated) {
    SCOPED_TRACE(text);
    try {
      JsonValue::parse(text);
      FAIL() << "expected a truncation error";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
  }
  // Truncations inside string tokens keep their specific messages.
  EXPECT_THROW(JsonValue::parse("\"abc"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("\"abc\\"), std::invalid_argument);
}

TEST(JsonValue, TypedAccessorsRejectMismatches) {
  EXPECT_THROW(JsonValue("x").as_double(), std::invalid_argument);
  EXPECT_THROW(JsonValue(1.5).as_uint(), std::invalid_argument);
  EXPECT_THROW(JsonValue(-1.0).as_uint(), std::invalid_argument);
  EXPECT_THROW(JsonValue(1.0).as_string(), std::invalid_argument);
  EXPECT_THROW(JsonValue().items(), std::invalid_argument);
  EXPECT_THROW(JsonValue("x").entries(), std::invalid_argument);
}

}  // namespace
}  // namespace antdense::util
