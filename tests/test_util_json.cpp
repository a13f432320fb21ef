#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
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


TEST(JsonParse, RawValuesDumpVerbatim) {
  const std::string bytes = R"({"b":[1,0.10000000000000001],"a":"x"})";
  JsonValue doc = JsonValue::object();
  doc.set("id", "p");
  doc.set("result", JsonValue::raw(bytes));
  EXPECT_EQ(doc.dump(0), R"({"id":"p","result":)" + bytes + "}");
  EXPECT_EQ(doc.dump(0), JsonValue::parse(doc.dump(0)).dump(0))
      << "a raw dump(0) splices in exactly what its parse would dump";
  EXPECT_EQ(JsonValue::raw(bytes).dump(2), bytes) << "raw stays compact";
  EXPECT_FALSE(JsonValue::raw(bytes).is_object());
  EXPECT_THROW(JsonValue::raw("1").as_double(), std::invalid_argument);
}

TEST(JsonParse, NumbersMatchStrtodBitForBit) {
  // Every number a document can hold, spelled the way the writer spells
  // it (%.17g) and in its shortest round-trip form, must parse to the
  // double strtod gives for the same text.
  rng::Xoshiro256pp gen(0x5354524Fu);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  char buf[64];
  const auto check = [&](const char* text) {
    ++checked;
    const double want = std::strtod(text, nullptr);
    const double got = JsonValue::parse(text).as_double();
    if (std::bit_cast<std::uint64_t>(got) !=
            std::bit_cast<std::uint64_t>(want) &&
        mismatches++ < 5) {
      ADD_FAILURE() << text << ": parsed " << got << ", strtod " << want;
    }
  };
  for (int i = 0; i < 500'000; ++i) {
    const std::uint64_t bits = gen();
    double v = 0.0;
    switch (i % 4) {
      case 0:
        v = std::bit_cast<double>(bits);
        break;
      case 1:
        v = static_cast<double>(bits >> 11) * 0x1.0p-53;
        break;
      case 2:
        v = std::ldexp(static_cast<double>(bits >> 11) * 0x1.0p-53,
                       static_cast<int>(gen() % 301) - 150);
        break;
      default:
        v = std::bit_cast<double>(bits & 0x800FFFFFFFFFFFFFULL);
        break;
    }
    if (!std::isfinite(v)) {
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    check(buf);
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
    *r.ptr = '\0';
    check(buf);
  }
  EXPECT_GT(checked, 950'000u);
  EXPECT_EQ(mismatches, 0u) << "of " << checked << " spellings";
}

TEST(JsonParse, OutOfRangeNumbersKeepStrtodsValues) {
  // from_chars reports these as out of range; the parser answers what
  // strtod does: ±inf past the largest double, ±0 below the smallest
  // subnormal.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, double> cases[] = {
      {"1e400", kInf},
      {"-1e400", -kInf},
      {"1e-400", 0.0},
      {"-1e-400", -0.0},
      {"2.4e-324", 0.0},
      {"1.7976931348623159e308", kInf},
      {"1e99999999999999999999", kInf},
      {"-123456789e-340", -0.0},
      {"0.000000000000000000001e-310", 0.0},
      {"100000000000000000000e300", kInf},
  };
  for (const auto& [text, want] : cases) {
    SCOPED_TRACE(text);
    const double got = JsonValue::parse(text).as_double();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(std::strtod(text, nullptr)));
  }
  // The smallest subnormal and the largest double stay in range.
  EXPECT_EQ(JsonValue::parse("4.9e-324").as_double(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(JsonValue::parse("1.7976931348623157e308").as_double(),
            std::numeric_limits<double>::max());
}

TEST(JsonParse, MalformedInputMessagesAndOffsets) {
  const std::pair<const char*, const char*> cases[] = {
      {"01", "json: malformed number '01' at offset 0"},
      {"01a", "json: malformed number '01' at offset 0"},
      {"-.5", "json: malformed number '-.5' at offset 0"},
      {"1.", "json: malformed number '1.' at offset 0"},
      {"1e", "json: malformed number '1e' at offset 0"},
      {"+5", "json: malformed number '+5' at offset 0"},
      {"-", "json: malformed number '-' at offset 0"},
      {"1-2", "json: malformed number '1-2' at offset 0"},
      {"0-", "json: malformed number '0-' at offset 0"},
      {"[1.5e+]", "json: malformed number '1.5e+' at offset 1"},
      {"{\"a\":-}", "json: malformed number '-' at offset 5"},
      {"[0.1.2]", "json: malformed number '0.1.2' at offset 1"},
      {"[1e5e5]", "json: malformed number '1e5e5' at offset 1"},
      {"1E+-3", "json: malformed number '1E+-3' at offset 0"},
      {"x", "json: malformed number '' at offset 0"},
      {"[1,]", "json: malformed number '' at offset 3"},
      {"[-0x1]", "json: expected ']' at offset 3"},
      {"\"ab\\q\"", "json: unknown escape at offset 4"},
      {"\"\\u12G4\"", "json: bad hex digit in \\u escape at offset 5"},
      {"\"\\uD800\"",
       "json: surrogate-pair escapes are not supported at offset 1"},
      {"\"a\x01\"", "json: raw control character in string at offset 2"},
      {"1 2", "json: trailing characters after document at offset 2"},
      {"{\"k\"}", "json: expected ':' at offset 4"},
  };
  for (const auto& [text, message] : cases) {
    SCOPED_TRACE(text);
    try {
      JsonValue::parse(text);
      ADD_FAILURE() << "parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), message);
    }
  }
}

/// Seed documents for the fuzz test: the shapes the repo parses — spec
/// and campaign files, a result payload and a cache journal line.
std::vector<std::string> fuzz_corpus() {
  const std::string payload =
      R"({"schema":"antdense.scenario.v1","spec":{"topology":"ring:64",)"
      R"("workload":"density","agents":12,"eps":0.20000000000000001},)"
      R"("num_nodes":64,"true_value":0.171875,"summary":{"count":24,)"
      R"("mean":0.14166666666666672,"min":0,"max":0.59999999999999998},)"
      R"("estimates":[0,0.050000000000000003,1e-05,-2.5e+300],)"
      R"("checkpoints":[],"series":[]})";
  return {
      R"js({"name": "torus2d(8x8)", "agents": 100, "ratio": -0.25,)js"
      R"js( "ok": true, "none": null, "xs": [1, 2.5, "three"]})js",
      R"(["a\"b", "\u0041", "\n", "\u00e9\u4e2d", "tab\there"])",
      R"({"name":"v","base":{"agents":40,"rounds":30},"axes":[{"kind":)"
      R"("grid","key":"topology","values":["ring:256","complete:128"]}]})",
      payload,
      R"({"schema":"antdense.campaign.v1","campaign":"antdense_serve",)"
      R"("id":"6b9738a4948c8a4c","result":)" +
          payload + "}",
      "[[[[{}]]],[],{\"\":[true,false,null]}]",
  };
}

TEST(JsonParse, MutationalFuzzRoundTripsOrThrows) {
  // Deterministic: a fixed seed and a fixed number of inputs.  Every
  // mutated input either throws std::invalid_argument, or parses to a
  // value whose dump(0) parses back to the same bytes (or, when the
  // mutation produced a number out of double range, refuses to dump it).
  const std::vector<std::string> corpus = fuzz_corpus();
  static constexpr char kAlphabet[] = "{}[]\",:\\0123456789.eE+-tfnul \x01\x7f";
  rng::Xoshiro256pp gen(0xF022u);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 60'000; ++iter) {
    std::string text = corpus[gen() % corpus.size()];
    const int mutations = 1 + static_cast<int>(gen() % 4);
    for (int m = 0; m < mutations; ++m) {
      const std::size_t at = text.empty() ? 0 : gen() % text.size();
      switch (gen() % 6) {
        case 0:  // flip one bit
          if (!text.empty()) {
            text[at] = static_cast<char>(text[at] ^ (1u << (gen() % 8)));
          }
          break;
        case 1:  // insert a JSON-significant or arbitrary byte
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                      (gen() & 1) != 0
                          ? kAlphabet[gen() % (sizeof(kAlphabet) - 1)]
                          : static_cast<char>(gen()));
          break;
        case 2:  // delete a run
          text.erase(at, 1 + gen() % 8);
          break;
        case 3:  // truncate
          text.resize(at);
          break;
        case 4:  // overwrite with a JSON-significant byte
          if (!text.empty()) {
            text[at] = kAlphabet[gen() % (sizeof(kAlphabet) - 1)];
          }
          break;
        default: {  // splice: this prefix, another input's suffix
          const std::string& other = corpus[gen() % corpus.size()];
          text = text.substr(0, at) + other.substr(gen() % other.size());
          break;
        }
      }
    }
    JsonValue value;
    try {
      value = JsonValue::parse(text);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    ++parsed;
    std::string dumped;
    try {
      dumped = value.dump(0);
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "json: cannot serialize non-finite number")
          << text;
      continue;
    }
    std::string again;
    try {
      again = JsonValue::parse(dumped).dump(0);
    } catch (const std::invalid_argument& e) {
      ADD_FAILURE() << "dump(0) of a parsed input does not parse: "
                    << e.what() << "\n input: " << text
                    << "\n dump: " << dumped;
      break;
    }
    if (again != dumped) {
      ADD_FAILURE() << "dump(0) does not round-trip\n input: " << text
                    << "\n dump: " << dumped << "\n again: " << again;
      break;
    }
  }
  EXPECT_GT(parsed, 1000u) << "the mutations must leave some inputs valid";
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace antdense::util
