// Tests for the streaming JSON writer used by the sweep engine.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/json.hpp"

namespace gnoc {
namespace {

/// Minimal JSON string unescaper (the inverse of JsonEscape) so the tests
/// can assert round-tripping without a full parser.
std::string Unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        const unsigned code = static_cast<unsigned>(
            std::strtoul(s.substr(i + 1, 4).c_str(), nullptr, 16));
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: ADD_FAILURE() << "unexpected escape \\" << s[i];
    }
  }
  return out;
}

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("XY (Baseline)"), "XY (Baseline)");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonEscapeTest, EscapesRoundTrip) {
  const std::string nasty = "quote\" back\\slash\nnewline\ttab\r\b\f";
  EXPECT_EQ(Unescape(JsonEscape(nasty)), nasty);
  // Control characters below 0x20 become \u00XX.
  const std::string ctl("\x01\x1f", 2);
  EXPECT_EQ(JsonEscape(ctl), "\\u0001\\u001f");
  EXPECT_EQ(Unescape(JsonEscape(ctl)), ctl);
}

TEST(JsonNumberTest, RoundTripsThroughStrtod) {
  for (double v : {0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 1e-300, 123456.789,
                   2.2250738585072014e-308}) {
    const std::string text = JsonNumber(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    // JSON numbers must not carry a leading '+' or be "nan"/"inf".
    EXPECT_NE(text.front(), '+');
  }
  EXPECT_EQ(JsonNumber(1.0), "1");
  EXPECT_EQ(JsonNumber(0.25), "0.25");
}

TEST(JsonNumberTest, NonFiniteBecomesNull) {
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriterTest, CompactObjectAndArray) {
  std::ostringstream out;
  JsonWriter w(out, /*indent=*/0);
  w.BeginObject();
  w.Key("name").Value("BFS");
  w.Key("ipc").Value(1.5);
  w.Key("cycles").Value(std::uint64_t{12000});
  w.Key("deadlocked").Value(false);
  w.Key("tags").BeginArray().Value("a").Value("b").EndArray();
  w.Key("empty").BeginObject().EndObject();
  w.Key("nothing").Null();
  w.EndObject();
  EXPECT_EQ(out.str(),
            "{\"name\":\"BFS\",\"ipc\":1.5,\"cycles\":12000,"
            "\"deadlocked\":false,\"tags\":[\"a\",\"b\"],\"empty\":{},"
            "\"nothing\":null}");
}

TEST(JsonWriterTest, IndentedOutputNestsAndTerminates) {
  std::ostringstream out;
  JsonWriter w(out, 2);
  w.BeginObject();
  w.Key("rows").BeginArray();
  w.BeginObject().Key("x").Value(1).EndObject();
  w.BeginObject().Key("x").Value(2).EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"x\": 1\n"
            "    },\n"
            "    {\n"
            "      \"x\": 2\n"
            "    }\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriterTest, EscapesKeysAndValues) {
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.BeginObject().Key("we\"ird").Value("line\nbreak").EndObject();
  EXPECT_EQ(out.str(), "{\"we\\\"ird\":\"line\\nbreak\"}");
}

TEST(JsonValueTest, AsObjectIteratesMembersInDocumentOrder) {
  const JsonValue doc =
      JsonValue::Parse("{\"z\": 1, \"a\": \"two\", \"m\": true}");
  const auto& members = doc.AsObject();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_DOUBLE_EQ(members[0].second.AsNumber(), 1.0);
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[1].second.AsString(), "two");
  EXPECT_EQ(members[2].first, "m");
  EXPECT_TRUE(members[2].second.AsBool());
}

TEST(JsonValueTest, AsObjectThrowsOnNonObjects) {
  EXPECT_THROW(JsonValue::Parse("[1, 2]").AsObject(), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("42").AsObject(), std::invalid_argument);
  EXPECT_THROW(JsonValue::Parse("null").AsObject(), std::invalid_argument);
  EXPECT_TRUE(JsonValue::Parse("{}").AsObject().empty());
}

TEST(JsonValueTest, RejectsNestingBeyondTheDepthLimit) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(JsonValue::Parse(nested(kJsonMaxDepth)));
  try {
    JsonValue::Parse(nested(kJsonMaxDepth + 1));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
              std::string::npos)
        << e.what();
  }
  // Objects count too, and an unterminated hostile document fails on depth
  // long before it could exhaust the stack.
  EXPECT_THROW(JsonValue::Parse(std::string(200000, '[')),
               std::invalid_argument);
  std::string objects;
  for (int i = 0; i <= kJsonMaxDepth; ++i) objects += "{\"k\":";
  EXPECT_THROW(JsonValue::Parse(objects), std::invalid_argument);
}

}  // namespace
}  // namespace gnoc
