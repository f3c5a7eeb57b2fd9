// The experiment layer's minimal JSON: parse/dump round-trips, escape and
// unicode handling, ordered objects with duplicate-key rejection,
// line/column-annotated parse errors checked against a reference position
// algorithm, the strict RFC 8259 number grammar, and documents large enough
// that a superlinear parser would not finish.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/json.hpp"

namespace {

using saga::exp::Json;
using saga::exp::JsonArray;

/// Reference for value and error positions: the parser's original
/// algorithm, which rescans the text from byte 0 (O(n) per call).
std::pair<std::size_t, std::size_t> reference_location(std::string_view text, std::size_t pos) {
  std::size_t line = 1;
  std::size_t column = 1;
  for (std::size_t i = 0; i < pos && i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  return {line, column};
}

/// The parse error the parser must throw when it fails at byte `pos`.
std::string reference_error(std::string_view text, std::size_t pos, const std::string& what) {
  const auto [line, column] = reference_location(text, pos);
  return "json parse error at line " + std::to_string(line) + ", column " +
         std::to_string(column) + ": " + what;
}

std::string parse_error(std::string_view text) {
  try {
    (void)Json::parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "(accepted)";
}

std::size_t skip_whitespace(std::string_view text, std::size_t i) {
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
                             text[i] == '\r')) {
    ++i;
  }
  return i;
}

std::size_t skip_string(std::string_view text, std::size_t i) {
  for (++i; text[i] != '"'; ++i) {
    if (text[i] == '\\') ++i;
  }
  return i + 1;
}

/// Walks `text` alongside its parse `value` from byte `i`, expecting every
/// value's line()/column() to be the reference location of the byte where
/// the value starts. Returns the offset just past the value.
std::size_t expect_reference_positions(const Json& value, std::string_view text, std::size_t i) {
  i = skip_whitespace(text, i);
  const auto [line, column] = reference_location(text, i);
  EXPECT_EQ(value.line(), line) << "value at byte " << i;
  EXPECT_EQ(value.column(), column) << "value at byte " << i;
  switch (value.type()) {
    case Json::Type::kObject:
      if (value.as_object().empty()) return skip_whitespace(text, i + 1) + 1;
      for (const auto& [key, member] : value.as_object()) {
        (void)key;
        i = skip_string(text, skip_whitespace(text, i + 1));  // past '{' or ','
        i = skip_whitespace(text, i) + 1;                      // past ':'
        i = skip_whitespace(text, expect_reference_positions(member, text, i));
      }
      return i + 1;
    case Json::Type::kArray:
      if (value.as_array().empty()) return skip_whitespace(text, i + 1) + 1;
      for (const Json& item : value.as_array()) {
        i = skip_whitespace(text, expect_reference_positions(item, text, i + 1));
      }
      return i + 1;
    case Json::Type::kString: return skip_string(text, i);
    default:
      while (i < text.size() && std::string_view(",]} \t\r\n").find(text[i]) == std::string::npos) {
        ++i;
      }
      return i;
  }
}

void expect_reference_positions(std::string_view text) {
  SCOPED_TRACE(std::string(text.substr(0, 80)));
  const Json doc = Json::parse(text);
  EXPECT_EQ(skip_whitespace(text, expect_reference_positions(doc, text, 0)), text.size());
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string with_crlf(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedDocument) {
  const Json doc = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(doc.is_object());
  const Json* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_TRUE(a->as_array()[2].find("b")->as_bool());
  EXPECT_EQ(doc.find("c")->as_string(), "x");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  const Json doc = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
  const auto& members = doc.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
  EXPECT_EQ(doc.dump(), R"({"z": 1, "a": 2, "m": 3})");
}

TEST(Json, RejectsDuplicateKeys) {
  try {
    (void)Json::parse(R"({"a": 1, "a": 2})");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key 'a'"), std::string::npos) << e.what();
  }
}

TEST(Json, ParseErrorsCarryLineAndColumn) {
  try {
    (void)Json::parse("{\n  \"a\": [1, 2,\n}");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(Json, RejectsTrailingGarbageAndBadLiterals) {
  EXPECT_THROW((void)Json::parse("{} x"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("tru"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("1e999"), std::runtime_error);
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string text = R"("a\"b\\c\n\tAé")";
  const Json parsed = Json::parse(text);
  EXPECT_EQ(parsed.as_string(), "a\"b\\c\n\tA\xc3\xa9");
  // Dump re-escapes control characters; re-parsing yields the same value.
  EXPECT_EQ(Json::parse(parsed.dump()).as_string(), parsed.as_string());
}

TEST(Json, SurrogatePairsDecodeToUtf8) {
  EXPECT_EQ(Json::parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_THROW((void)Json::parse(R"("\ud83d")"), std::runtime_error);
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double value : {0.25, 1.0 / 3.0, 1e-12, 123456789.125, -42.0}) {
    const Json dumped = Json::parse(Json::number(value).dump());
    EXPECT_EQ(dumped.as_number(), value);
  }
  EXPECT_EQ(Json::number(1234567.0).dump(), "1234567");
}

TEST(Json, DumpPrettyPrintsWithIndent) {
  Json doc = Json::object();
  doc.set("a", Json::number(1));
  doc.set("b", Json::array(JsonArray{Json::boolean(true)}));
  EXPECT_EQ(doc.dump(2),
            "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}\n");
}

TEST(Json, TypeMismatchesThrowDescriptively) {
  const Json doc = Json::parse("[1]");
  try {
    (void)doc.as_object();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("expected an object"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("found an array"), std::string::npos);
  }
}

TEST(Json, SetReplacesAndAppends) {
  Json doc = Json::object();
  doc.set("a", Json::number(1));
  doc.set("a", Json::number(2));
  doc.set("b", Json::string("x"));
  EXPECT_DOUBLE_EQ(doc.find("a")->as_number(), 2.0);
  EXPECT_EQ(doc.as_object().size(), 2u);
  Json null_doc;
  null_doc.set("k", Json::number(1));  // null promotes to object
  EXPECT_TRUE(null_doc.is_object());
}

TEST(Json, ValuePositionsMatchTheReferenceAlgorithm) {
  std::size_t specs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(SAGA_SPECS_DIR)) {
    if (entry.path().extension() != ".json") continue;
    const std::string text = read_file(entry.path());
    ASSERT_FALSE(text.empty()) << entry.path();
    expect_reference_positions(text);
    expect_reference_positions(with_crlf(text));
    ++specs;
  }
  EXPECT_GE(specs, 4u);
  // Escaped newlines and quotes inside strings, a tab, empty containers.
  const std::string escapes =
      "{\n  \"a\": \"x\\ny\\\"\",\n\t\"b\": [1, \"\\u00e9\\n\", {}],\n  \"c\": []\n}";
  expect_reference_positions(escapes);
  expect_reference_positions(with_crlf(escapes));
  // Raw multibyte UTF-8: columns count bytes.
  expect_reference_positions(
      "{\n  \"\u00e9\": [\"\u00fc\xf0\x9f\x98\x80\", 2],\n"
      "  \"k\": {\"\u00df\": null}, \"t\": true\n}");
  expect_reference_positions("  \r\n -1.5e3 \n");
}

TEST(Json, ErrorPositionsMatchTheReferenceAlgorithm) {
  struct Case {
    std::string text;
    std::string at;  // the error's byte is the first occurrence of `at`; "" = end of input
    std::string what;
  };
  const std::vector<Case> cases = {
      // Rewinds: the invalid number is reported at its first byte.
      {"[1,\n  \n   01]", "01", "invalid number '01'"},
      {"{\r\n  \"a\": 1,\r\n  \"b\": 1.e3\r\n}", "1.e3", "invalid number '1.e3'"},
      {"{\n  \"a\": [1, 2,\n   -x]}", "-x", "invalid number '-'"},
      {"[\"\u00e9\xf0\x9f\x98\x80\\n\",\n \"\u00fc\", +1]", "+1", "invalid number '+1'"},
      // End of input.
      {"{\n  \"a\": [1, 2", "", "unexpected end of input"},
      {"[\n", "", "unexpected end of input"},
      {"{\"a\":\n \"abc", "", "unterminated string"},
      {"[\"\\u12", "12", "truncated \\u escape"},
      // Elsewhere.
      {"{\n  \"a\": [1, 2,\n}", "}", "expected a value"},
      {"[\"\u00e9\", x]", "x", "expected a value"},
      {"{\n \"a\": 1,\n \"a\": 2}", ": 2", "duplicate key 'a' in object"},
      {"{\"a\": tru}", "tru", "invalid literal"},
      {"[1]\n\n  x", "x", "trailing characters after the document"},
  };
  for (const auto& c : cases) {
    const std::size_t pos = c.at.empty() ? c.text.size() : c.text.find(c.at);
    ASSERT_NE(pos, std::string::npos) << c.text;
    EXPECT_EQ(parse_error(c.text), reference_error(c.text, pos, c.what)) << c.text;
  }
}

TEST(Json, NumbersFollowTheRfc8259Grammar) {
  // Each token is one maximal run of number characters, so the error names
  // all of it and points at its first byte, at top level and nested.
  for (const std::string token : {"+1", "01", "00", ".5", "-.5", "1.", "1.e3", "-", "-01", "1e",
                                  "1e+", "1.5.2", "1e3e4", "--1", "1-2"}) {
    const std::string what = "invalid number '" + token + "'";
    EXPECT_EQ(parse_error(token), reference_error(token, 0, what));
    const std::string prefix = "{\"k\":\n  [0, ";
    const std::string nested = prefix + token + "]}";
    EXPECT_EQ(parse_error(nested), reference_error(nested, prefix.size(), what));
  }
  // Accepted forms keep strtod's value bit for bit.
  for (const char* token : {"0", "-0", "7", "10", "-10", "0.5", "-0.5", "0e0", "0E-0", "1e3",
                            "1E+3", "-1.5e-3", "123456789.125", "1e-400", "4.9e-324"}) {
    EXPECT_EQ(Json::parse(token).as_number(), std::strtod(token, nullptr)) << token;
  }
}

TEST(Json, MultiMiBFlatArrayParsesInLinearTime) {
  // About 3 MiB of values padded to 16 bytes, a newline every 64 values;
  // rescanning the prefix once per value (~2e5 values) would take hours.
  std::string text = "[";
  std::size_t last = 0;
  constexpr std::size_t kValues = 3 * 1024 * 1024 / 16;
  for (std::size_t i = 0; i < kValues; ++i) {
    if (i > 0) text += i % 64 == 0 ? ",\n" : ",";
    last = text.size();
    text += std::to_string(i % 10);
    text.append(13, ' ');
  }
  text += "]";
  const Json doc = Json::parse(text);
  ASSERT_EQ(doc.as_array().size(), kValues);
  const auto [line, column] = reference_location(text, last);
  EXPECT_EQ(doc.as_array().back().line(), line);
  EXPECT_EQ(doc.as_array().back().column(), column);
}

TEST(Json, HundredThousandKeyObjectParsesAndRejectsATrailingDuplicate) {
  constexpr std::size_t kKeys = 100000;
  std::string text = "{";
  for (std::size_t i = 0; i < kKeys; ++i) {
    if (i > 0) text += ", ";
    text += "\"k" + std::to_string(i) + "\": " + std::to_string(i % 7);
  }
  const Json doc = Json::parse(text + "}");
  ASSERT_EQ(doc.as_object().size(), kKeys);
  EXPECT_EQ(doc.as_object().back().first, "k99999");

  const std::string duplicate = text + ", \"k0\": 1}";
  EXPECT_EQ(parse_error(duplicate),
            reference_error(duplicate, duplicate.size() - 4, "duplicate key 'k0' in object"));
}

TEST(Json, DuplicateKeysAreFoundOnBothSidesOfTheHashThreshold) {
  // Small objects compare keys pairwise; larger ones go through a hash set.
  for (const int keys : {1, 7, 8, 9, 20}) {
    for (const int repeat : {0, keys - 1}) {
      std::string text = "{";
      for (int i = 0; i < keys; ++i) text += "\"k" + std::to_string(i) + "\": 0, ";
      const std::string key = "k" + std::to_string(repeat);
      text += "\"" + key + "\": 1, \"z\": 2}";
      EXPECT_EQ(parse_error(text), reference_error(text, text.rfind("\": 1") + 1,
                                                   "duplicate key '" + key + "' in object"));
    }
  }
  // Escapes decode before the comparison: "\u0061" is the key "a".
  std::string text = "{";
  for (const char key : std::string("abcdefghij")) text += "\"" + std::string(1, key) + "\": 0, ";
  text += R"("\u0061": 1})";
  EXPECT_EQ(parse_error(text),
            reference_error(text, text.size() - 4, "duplicate key 'a' in object"));
}

TEST(Json, DepthLimitGuardsRecursion) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW((void)Json::parse(deep), std::runtime_error);
}

}  // namespace
