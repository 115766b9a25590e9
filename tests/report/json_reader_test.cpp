#include "report/json_reader.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "report/json.h"

namespace vdbench::report {
namespace {

TEST(JsonReaderTest, ParsesLiterals) {
  EXPECT_TRUE(parse_json("null")->root().is_null());
  EXPECT_EQ(parse_json("true")->root().as_bool(), true);
  EXPECT_EQ(parse_json("false")->root().as_bool(), false);
}

TEST(JsonReaderTest, ParsesNumbers) {
  EXPECT_DOUBLE_EQ(parse_json("0")->root().as_number().value(), 0.0);
  EXPECT_DOUBLE_EQ(parse_json("-17")->root().as_number().value(), -17.0);
  EXPECT_DOUBLE_EQ(parse_json("3.25")->root().as_number().value(), 3.25);
  EXPECT_DOUBLE_EQ(parse_json("1e3")->root().as_number().value(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_json("-2.5E-2")->root().as_number().value(), -0.025);
}

TEST(JsonReaderTest, ParsesStringsWithEscapes) {
  EXPECT_EQ(*parse_json(R"("plain")")->root().as_string(), "plain");
  EXPECT_EQ(*parse_json(R"("a\"b\\c\/d")")->root().as_string(), "a\"b\\c/d");
  EXPECT_EQ(*parse_json(R"("tab\there\nnewline")")->root().as_string(),
            "tab\there\nnewline");
  // \uXXXX escapes decode to UTF-8 bytes (1-, 2- and 3-byte sequences).
  EXPECT_EQ(*parse_json("\"\\u0041\"")->root().as_string(), "A");
  EXPECT_EQ(*parse_json("\"\\u00e9\"")->root().as_string(), "\xc3\xa9");
  EXPECT_EQ(*parse_json("\"\\u20ac\"")->root().as_string(), "\xe2\x82\xac");
  EXPECT_FALSE(parse_json("\"\\u12\"").has_value());
  EXPECT_FALSE(parse_json("\"\\q\"").has_value());
}

TEST(JsonReaderTest, DecodesSurrogatePairsToOneCodePoint) {
  // U+1F600 spelled as a UTF-16 pair, as Python's json.dumps writes it.
  EXPECT_EQ(*parse_json(R"("\ud83d\ude00")")->root().as_string(),
            "\xF0\x9F\x98\x80");
  EXPECT_EQ(*parse_json(R"("a\uD800\uDC00z")")->root().as_string(),
            "a\xF0\x90\x80\x80z");  // U+10000, upper-case hex
  EXPECT_EQ(*parse_json(R"("\udbff\udfff")")->root().as_string(),
            "\xF4\x8F\xBF\xBF");  // U+10FFFF
  // Lone surrogates keep their own three-byte encoding.
  EXPECT_EQ(*parse_json(R"("\ud83d")")->root().as_string(), "\xED\xA0\xBD");
  EXPECT_EQ(*parse_json(R"("\ude00")")->root().as_string(), "\xED\xB8\x80");
  EXPECT_EQ(*parse_json(R"("\ud83dx")")->root().as_string(),
            "\xED\xA0\xBDx");
  EXPECT_EQ(*parse_json(R"("\ud83d\u0041")")->root().as_string(),
            "\xED\xA0\xBD" "A");
  EXPECT_EQ(*parse_json(R"("\ude00\ud83d")")->root().as_string(),
            "\xED\xB8\x80\xED\xA0\xBD");
  // A high surrogate before a pair stays alone; the pair still combines.
  EXPECT_EQ(*parse_json(R"("\ud83d\ud83d\ude00")")->root().as_string(),
            "\xED\xA0\xBD\xF0\x9F\x98\x80");
  // A broken second escape fails where it would on its own.
  JsonError error;
  EXPECT_FALSE(parse_json(R"("\ud83d\u12")", &error).has_value());
  EXPECT_EQ(error.reason, "invalid \\u escape");
  EXPECT_EQ(error.offset, 9u);
}

TEST(JsonReaderTest, ObjectMembersAreSortedByKeyAndTheLastDuplicateWins) {
  const std::string text = R"({"b":1,"a":2,"c\u0041":3,"a":4})";
  const auto parsed = parse_json(text);
  ASSERT_TRUE(parsed.has_value());
  const auto members = parsed->root().as_object();
  ASSERT_TRUE(members.has_value());
  ASSERT_EQ(members->size(), 3u);
  std::vector<std::pair<std::string, double>> seen;
  for (const auto& [key, value] : *members)
    seen.emplace_back(std::string(key), *value.as_number());
  EXPECT_EQ(seen, (std::vector<std::pair<std::string, double>>{
                      {"a", 4.0}, {"b", 1.0}, {"cA", 3.0}}));
  EXPECT_EQ(parsed->root().member("a")->as_number(), 4.0);
  EXPECT_EQ(parsed->root().member("cA")->as_number(), 3.0);
  EXPECT_EQ(parsed->root().member("c"), nullptr);

  // A wider object, every key written twice: the same rules.
  std::string wide = "{";
  for (int i = 40; i > 0; --i)
    wide += "\"k" + std::to_string(i % 20) + "\":" + std::to_string(i) + ",";
  wide += "\"end\":0}";
  const auto many = parse_json(wide);
  ASSERT_TRUE(many.has_value());
  EXPECT_EQ(many->root().as_object()->size(), 21u);
  std::string previous;
  for (const auto& [key, value] : *many->root().as_object()) {
    EXPECT_LT(previous, key);
    previous = key;
  }
  // "k7" was written for i = 27 and then i = 7; the later one wins.
  EXPECT_EQ(many->root().member("k7")->as_number(), 7.0);
}

TEST(JsonReaderTest, MovingADocumentKeepsItsValuesValid) {
  // Short escaped strings are the ones a small-string buffer would hold
  // inline, and so the ones a move could strand.
  const std::string text =
      R"({"a":"x\ny","b":["\t","\u00e9",["\"q\""]],"plain":"view"})";
  std::optional<JsonDocument> first = parse_json(text);
  ASSERT_TRUE(first.has_value());
  const JsonValue* b = first->root().member("b");
  const std::string_view a = *first->root().member("a")->as_string();
  const std::string_view tab = *(*b->as_array())[0].as_string();

  std::vector<JsonDocument> moved;
  moved.push_back(std::move(*first));
  first.reset();
  moved.reserve(16);  // and move it once more, inside the vector

  EXPECT_EQ(a, "x\ny");
  EXPECT_EQ(tab, "\t");
  EXPECT_EQ(*(*b->as_array())[1].as_string(), "\xc3\xa9");
  EXPECT_EQ(*(*(*b->as_array())[2].as_array())[0].as_string(), "\"q\"");
  const JsonValue& root = moved.front().root();
  EXPECT_EQ(root.member("b"), b);
  EXPECT_EQ(*root.member("plain")->as_string(), "view");
}

// A document views its text, so parsing a temporary string is refused at
// compile time; every other way of naming text still compiles.
template <typename Text>
concept ParsesFrom =
    requires(Text&& text) { parse_json(std::forward<Text>(text)); };
static_assert(!ParsesFrom<std::string>);
static_assert(!ParsesFrom<const std::string>);
static_assert(ParsesFrom<std::string&>);
static_assert(ParsesFrom<const std::string&>);
static_assert(ParsesFrom<std::string_view>);
static_assert(ParsesFrom<const char*>);

TEST(JsonReaderTest, ParsesArraysAndObjects) {
  const auto parsed = parse_json(R"({"xs":[1,2,3],"nested":{"ok":true}})");
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* doc = &parsed->root();
  ASSERT_TRUE(doc->is_object());
  const auto xs = doc->member("xs")->as_array();
  ASSERT_TRUE(xs.has_value());
  ASSERT_EQ(xs->size(), 3u);
  EXPECT_DOUBLE_EQ((*xs)[2].as_number().value(), 3.0);
  EXPECT_EQ(doc->member("nested")->member("ok")->as_bool(), true);
  EXPECT_EQ(doc->member("absent"), nullptr);
}

TEST(JsonReaderTest, AccessorsRejectWrongKind) {
  const auto parsed = parse_json("[1]");
  const JsonValue* doc = &parsed->root();
  EXPECT_EQ(doc->as_bool(), std::nullopt);
  EXPECT_EQ(doc->as_number(), std::nullopt);
  EXPECT_EQ(doc->as_string(), std::nullopt);
  EXPECT_EQ(doc->member("x"), nullptr);
}

TEST(JsonReaderTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(parse_json("").has_value());
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json("[1,]").has_value());
  EXPECT_FALSE(parse_json(R"({"a":})").has_value());
  EXPECT_FALSE(parse_json(R"({"a" 1})").has_value());
  EXPECT_FALSE(parse_json("nul").has_value());
  EXPECT_FALSE(parse_json("\"unterminated").has_value());
  EXPECT_FALSE(parse_json("01").has_value());
  EXPECT_FALSE(parse_json("NaN").has_value());
}

TEST(JsonReaderTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(parse_json("1 2").has_value());
  EXPECT_FALSE(parse_json("{} extra").has_value());
  EXPECT_TRUE(parse_json("  {}  ").has_value());
}

TEST(JsonReaderTest, RejectsPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_FALSE(parse_json(deep).has_value());
  std::string shallow = "[[[[[[[[[[1]]]]]]]]]]";
  EXPECT_TRUE(parse_json(shallow).has_value());
}

TEST(JsonReaderTest, RoundTripsJsonWriterOutput) {
  // The parser's contract: everything JsonWriter emits parses back.
  JsonWriter w;
  w.begin_object();
  w.key("text").value("line1\nline2\t\"quoted\"");
  w.key("count").value(std::uint64_t{7});
  w.key("ratio").value(0.375);
  w.key("flag").value(true);
  w.key("items").begin_array();
  w.value("a");
  w.value("b");
  w.end_array();
  w.end_object();
  const std::string text = w.str();
  const auto parsed = parse_json(text);
  ASSERT_TRUE(parsed.has_value());
  const JsonValue* doc = &parsed->root();
  EXPECT_EQ(*doc->member("text")->as_string(), "line1\nline2\t\"quoted\"");
  EXPECT_DOUBLE_EQ(doc->member("count")->as_number().value(), 7.0);
  EXPECT_DOUBLE_EQ(doc->member("ratio")->as_number().value(), 0.375);
  EXPECT_EQ(doc->member("flag")->as_bool(), true);
  EXPECT_EQ(doc->member("items")->as_array()->size(), 2u);
}

TEST(JsonReaderTest, DiagnosingOverloadReportsOffsetAndReason) {
  JsonError error;
  // Truncation: the parser runs off the end mid-value; the offset is the
  // exact byte where the document stopped making sense.
  const std::string truncated = R"({"key":)";
  EXPECT_FALSE(parse_json(truncated, &error).has_value());
  EXPECT_EQ(error.offset, truncated.size());
  EXPECT_EQ(error.reason, "unexpected end of document");
  EXPECT_NE(error.message().find("at offset 7"), std::string::npos)
      << error.message();

  // Trailing garbage points at the first unexpected byte.
  EXPECT_FALSE(parse_json("{} extra", &error).has_value());
  EXPECT_EQ(error.offset, 3u);
  EXPECT_EQ(error.reason, "trailing content after document");
  EXPECT_NE(error.excerpt.find("extra"), std::string::npos) << error.excerpt;
}

TEST(JsonReaderTest, DiagnosingOverloadRecordsTheDeepestFailure) {
  // The failure surfaces from deep inside the grammar (an unterminated
  // string inside an array inside an object); the recorded error is that
  // innermost point, not a generic complaint about the enclosing object.
  JsonError error;
  const std::string doc = R"({"xs":[1,"oops)";
  EXPECT_FALSE(parse_json(doc, &error).has_value());
  EXPECT_EQ(error.reason, "unterminated string");
  EXPECT_EQ(error.offset, doc.size());
}

TEST(JsonReaderTest, ExcerptRendersControlBytesAsDots) {
  JsonError error;
  std::string doc = "{\"k\":\"ab";
  doc += '\x01';
  doc += "cd\"}";
  EXPECT_FALSE(parse_json(doc, &error).has_value());
  EXPECT_EQ(error.reason, "unescaped control character in string");
  EXPECT_EQ(error.offset, 8u);  // the control byte itself
  EXPECT_EQ(error.excerpt.find('\x01'), std::string::npos);
  EXPECT_NE(error.excerpt.find("ab.cd"), std::string::npos) << error.excerpt;
  // message() is fault-spec styled: "<reason> at offset <N> near '<w>'".
  EXPECT_EQ(error.message(),
            error.reason + " at offset 8 near '" + error.excerpt + "'");
}

TEST(JsonReaderTest, DiagnosingOverloadResetsOnEachCall) {
  JsonError error;
  EXPECT_FALSE(parse_json("[", &error).has_value());
  EXPECT_FALSE(error.reason.empty());
  // A subsequent success clears the previous diagnosis.
  EXPECT_TRUE(parse_json("[]", &error).has_value());
  EXPECT_TRUE(error.reason.empty());
  EXPECT_EQ(error.offset, 0u);
}

}  // namespace
}  // namespace vdbench::report
