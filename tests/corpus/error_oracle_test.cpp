// Error oracle: the exact outcome of every damaged input the corpus readers
// and the JSON reader are fed here — the CorpusError offset and message,
// the JsonError (offset, reason, excerpt) triple, or the canonical
// re-render of an input that is accepted — folded into a count and an
// FNV-1a digest recorded from a reference build.
//
// corpus_sweep_test.cpp checks only that damage is loud. This file pins
// where and how it is reported, so a reader change that moves an error
// offset, rewords a message, names a different element or decodes a
// string differently fails here. Re-record a value only for an intended
// change, and say in the change log which outcome moved and why.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/hash.h"
#include "corpus/error.h"
#include "corpus/manifest.h"
#include "corpus/sarif.h"
#include "corpus/synthetic.h"
#include "report/json_reader.h"
#include "sweep_corpus.h"

namespace vdbench::corpus {
namespace {

// Count and running digest of a sequence of outcome lines.
struct Oracle {
  std::size_t count = 0;
  std::uint64_t digest = cache::kFnvOffsetBasis;

  void add(const std::string& outcome) {
    ++count;
    digest = cache::fnv1a64(outcome + "\n", digest);
  }
};

std::string manifest_outcome(const std::string& text) {
  try {
    return "ok " + render_manifest(parse_manifest(text));
  } catch (const CorpusError& e) {
    return "error " + std::to_string(e.offset) + " " + e.what();
  }
}

std::string sarif_outcome(const std::string& text) {
  try {
    return "ok " + render_sarif_report(parse_sarif(text));
  } catch (const CorpusError& e) {
    return "error " + std::to_string(e.offset) + " " + e.what();
  }
}

std::string reader_outcome(const std::string& text) {
  report::JsonError error;
  if (report::parse_json(text, &error).has_value()) return "accepted";
  return "error " + std::to_string(error.offset) + " " + error.reason +
         " '" + error.excerpt + "'";
}

// Every strict prefix, then every single-bit flip (cycling the bit
// position with the byte index), then the intact document.
template <typename Outcome>
Oracle sweep(const std::string& doc, Outcome outcome) {
  Oracle oracle;
  for (std::size_t len = 0; len < doc.size(); ++len)
    oracle.add(outcome(doc.substr(0, len)));
  for (std::size_t i = 0; i < doc.size(); ++i) {
    std::string flipped = doc;
    flipped[i] = static_cast<char>(
        static_cast<unsigned char>(flipped[i]) ^ (1u << (i % 8)));
    oracle.add(outcome(flipped));
  }
  oracle.add(outcome(doc));
  return oracle;
}

std::string nested(const std::string& open, const std::string& inner,
                   const std::string& close, int depth) {
  std::string doc;
  for (int i = 0; i < depth; ++i) doc += open;
  doc += inner;
  for (int i = 0; i < depth; ++i) doc += close;
  return doc;
}

// Malformed (and a few boundary-accepted) documents for the reader: one
// or more per failure reason, at the start, middle and end of a document.
std::vector<std::string> reader_table() {
  std::vector<std::string> docs = {
      "", " ", "\n\t\r ", "{", "[", "}", "]", ":", ",", "\"", "x",
      // literals
      "nul", "nulx", "null x", "tru", "truex", "fals", "false0", "True",
      "NULL", "n", "[tru]", "{\"a\":nul}",
      // numbers
      "-", "--1", "+1", "01", "-01", "00", "1.", ".5", "1e", "1e+", "1E-",
      "1e999", "-1e999", "0x10", "1.2.3", "1e5e5", "1-2", "NaN", "-NaN",
      "Infinity", "-Infinity", "[01]", "{\"a\":-}", "1 2", "0 0",
      "123456789012345678901234567890", "-0", "0.0e0", "[1e308,2e308]",
      // strings
      "\"abc", "\"a\\", "\"a\\q\"", "\"a\\x41\"", "\"a\\U0041\"", "\"\\u12\"",
      "\"\\u12", "\"\\u\"", "\"\\uZZZZ\"", "\"\\u00G0\"", "\"\\u00e9",
      "\"a\x01" "b\"", "\"a\nb\"", "\"a\tb\"", "\"\x1f\"", "\"\x7f\"",
      "\"\xc3\xa9\\q\"", "\"\xff\xfe\"", "\"\\ud83d\\u12\"", "\"\\ud83d\\",
      "\"\\ud83d\\uZZ\"", "\"\\ud83d\\q\"", "\"\\ud83d\\ude0", "\"\\ud83d\\u",
      "\"\\ud83d\"", "\"\\ude00\"", "\"\\ud83d\\ude00\"",
      "\"\\ud83d\\ude00", "\"\\ud83d\\ud83d\\ude00\"",
      // arrays
      "[1,]", "[1 2]", "[,]", "[,1]", "[1,,2]", "[1:2]", "[1}", "[\"a\"",
      "[\"a\",", "[[]", "[[],[]", "[] []", "[]]",
      // objects
      "{,}", "{\"a\"", "{\"a\":", "{\"a\":1", "{\"a\":1,", "{\"a\" 1}",
      "{a:1}", "{1:1}", "{\"a\":1 \"b\":2}", "{\"a\":1,}", "{\"a\":}",
      "{\"a\":1]", "{\"a\"::1}", "{\"a\":1}}", "{\"k\":\"v\"} x",
      "{\"a\":1,\"a\":2}", "{\"a\":{\"b\":[1,{\"c\":tru}]}}",
      "{\"a\":{\"b\":[1,{\"c\":\"x\\q\"}]}}",
      // excerpts that reach past either end of the input
      "{\"a_very_long_member_name\":[1,2,3,4,5,6,7,8,9,10,11,12,?]}",
  };
  // The depth bound: 65 nested containers parse, 66 do not; a scalar at
  // depth 65 is one level too deep.
  for (const int depth : {64, 65, 66, 100}) {
    docs.push_back(nested("[", "", "]", depth));
    docs.push_back(nested("{\"k\":", "{}", "}", depth - 1));
    docs.push_back(nested("[", "1", "]", depth));
    docs.push_back(nested("[", "", "]", depth).substr(0, depth + 2));
  }
  return docs;
}

// Manifest and SARIF documents that are well-formed JSON but break (or
// exercise) a reader rule, one per check in manifest.cpp and sarif.cpp.
std::string manifest_with_sites(const std::string& sites) {
  return R"({"schema":1,"name":"n","ecosystems":[{"name":"e","sites":[)" +
         sites + "]}]}";
}

constexpr const char* kSite =
    R"({"uri":"a.c","line":1,"vulnerable":true,"cwe":"CWE-89"})";

std::vector<std::string> manifest_table() {
  std::vector<std::string> docs = {
      "[]", "1", R"({})", R"({"schema":"1"})", R"({"schema":2})",
      R"({"schema":1.5})", R"({"schema":1})", R"({"schema":1,"name":3})",
      R"({"schema":1,"name":"n"})",
      R"({"schema":1,"name":"n","ecosystems":{}})",
      R"({"schema":1,"name":"n","ecosystems":[]})",
      R"({"schema":1,"name":"n","ecosystems":[1]})",
      R"({"schema":1,"name":"n","ecosystems":[{}]})",
      R"({"schema":1,"name":"n","ecosystems":[{"name":1}]})",
      R"({"schema":1,"name":"n","ecosystems":[{"name":"e"}]})",
      R"({"schema":1,"name":"n","ecosystems":[{"name":"e","sites":{}}]})",
      R"({"schema":1,"name":"n","ecosystems":[{"name":"e","sites":[]}]})",
      R"({"schema":1,"name":"n","rules":[],"ecosystems":[]})",
      R"({"schema":1,"name":"n","rules":{"r":1},"ecosystems":[]})",
      R"({"schema":1,"name":"n","rules":{"a\u0041":1},"ecosystems":[]})",
      R"({"schema":1,"name":"n","rules":{"r":"CWE-89","r":"CWE-79"},)"
      R"("ecosystems":[{"name":"e","sites":[{"uri":"a","line":1,)"
      R"("vulnerable":false}]}]})",
      R"({"schema":1,"name":"n","rules":{"r":"CWE-1"},"ecosystems":[)"
      R"({"name":"e","sites":[{"uri":"a","line":1,"vulnerable":false}]},)"
      R"({"name":"f","sites":[{"uri":"a","line":2,"vulnerable":false}]}]})",
      R"({"schema":1,"name":"first","name":"second","ecosystems":[)"
      R"({"name":"e","sites":[{"uri":"a","line":1,"vulnerable":false}]}]})",
      manifest_with_sites("1"),
      manifest_with_sites("{}"),
      manifest_with_sites(R"({"uri":1})"),
      manifest_with_sites(R"({"uri":"a"})"),
      manifest_with_sites(R"({"uri":"a","line":"3"})"),
      manifest_with_sites(R"({"uri":"a","line":0})"),
      manifest_with_sites(R"({"uri":"a","line":1.5})"),
      manifest_with_sites(R"({"uri":"a","line":-1})"),
      manifest_with_sites(R"({"uri":"a","line":4294967296})"),
      manifest_with_sites(R"({"uri":"a","line":4294967295,)"
                          R"("vulnerable":false})"),
      manifest_with_sites(R"({"uri":"a","line":1})"),
      manifest_with_sites(R"({"uri":"a","line":1,"vulnerable":1})"),
      manifest_with_sites(R"({"uri":"a","line":1,"vulnerable":true})"),
      manifest_with_sites(R"({"uri":"a","line":1,"vulnerable":true,)"
                          R"("cwe":5})"),
      manifest_with_sites(R"({"uri":"a","line":1,"vulnerable":true,)"
                          R"("cwe":"CWE-9999"})"),
      manifest_with_sites(R"({"uri":"a","line":1,"vulnerable":false,)"
                          R"("cwe":"CWE-9999"})"),
      manifest_with_sites(R"({"uri":"a","line":1,"vulnerable":false,)"
                          R"("difficulty":"x"})"),
      manifest_with_sites(R"({"uri":"a","line":1,"vulnerable":false,)"
                          R"("difficulty":1.5})"),
      manifest_with_sites(R"({"uri":"a","line":1,"vulnerable":false,)"
                          R"("difficulty":-0.1})"),
      manifest_with_sites(R"({"uri":"a","line":1,"line":2,)"
                          R"("vulnerable":false,"difficulty":0.25})"),
      manifest_with_sites(std::string(kSite) + "," + kSite),
      manifest_with_sites(std::string(kSite) + "," + kSite + "," + kSite),
      // The first repeat in document order is the one named, ahead of a
      // later site's own defect.
      manifest_with_sites(
          std::string(kSite) +
          R"(,{"uri":"b.c","line":1,"vulnerable":false},)" + kSite +
          R"(,{"uri":"b.c","line":1,"vulnerable":false},{"uri":"c"})"),
      manifest_with_sites(std::string(kSite) + R"(,{"uri":"c"},)" + kSite),
      // Same line, different uri; same uri, different line: distinct.
      manifest_with_sites(
          std::string(kSite) +
          R"(,{"uri":"a.cc","line":1,"vulnerable":false})" +
          R"(,{"uri":"a.c","line":2,"vulnerable":false})"),
      // Escaped and raw spellings of one uri are one site.
      manifest_with_sites(
          R"({"uri":"src/a.c","line":7,"vulnerable":false},)"
          R"({"uri":"src\/a\u002ec","line":7,"vulnerable":false})"),
      // A repeat across ecosystems.
      R"({"schema":1,"name":"n","ecosystems":[)"
      R"({"name":"e","sites":[{"uri":"a","line":1,"vulnerable":false}]},)"
      R"({"name":"f","sites":[{"uri":"b","line":1,"vulnerable":false},)"
      R"({"uri":"a","line":1,"vulnerable":true,"cwe":"CWE-79"}]}]})",
  };
  return docs;
}

std::string sarif_with_results(const std::string& results) {
  return R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"t"}},)"
         R"("results":[)" +
         results + "]}]}";
}

std::string result_with_message(const std::string& text) {
  return R"({"ruleId":"r","message":{"text":")" + text +
         R"("},"locations":[{"physicalLocation":{"artifactLocation":)"
         R"({"uri":"a.c"},"region":{"startLine":3}}}]})";
}

std::vector<std::string> sarif_table() {
  const std::string location =
      R"("locations":[{"physicalLocation":{"artifactLocation":{"uri":"a.c"},)"
      R"("region":{"startLine":3}}}])";
  std::vector<std::string> docs = {
      "[]", R"({})", R"({"version":2})", R"({"version":"2.0.0"})",
      R"({"version":"2.1.0"})", R"({"version":"2.1.0","runs":{}})",
      R"({"version":"2.1.0","runs":[]})", R"({"version":"2.1.0","runs":[1]})",
      R"({"version":"2.1.0","runs":[{}]})",
      R"({"version":"2.1.0","runs":[{"tool":{}}]})",
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{}}}]})",
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":1}}}]})",
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"t"}}}]})",
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"t",)"
      R"("version":2}},"results":[]}]})",
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"t",)"
      R"("rules":{}}},"results":[]}]})",
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"t",)"
      R"("rules":[1]}},"results":[]}]})",
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"t",)"
      R"("rules":[{}]}},"results":[]}]})",
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"t",)"
      R"("rules":[{"id":"r","shortDescription":{}}]}},"results":[]}]})",
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"t",)"
      R"("rules":[{"id":"r","shortDescription":{"text":1}}]}},)"
      R"("results":[]}]})",
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"t",)"
      R"("rules":[{"id":"r","defaultConfiguration":{"level":1}}]}},)"
      R"("results":[]}]})",
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"t",)"
      R"("version":"1","rules":[{"id":"r","shortDescription":{"text":"d"},)"
      R"("defaultConfiguration":{"level":"note"}}]}},"results":[]},)"
      R"({"tool":{"driver":{"name":"u","version":2}},"results":[]}]})",
      R"({"version":"2.1.0","runs":[{"tool":{"driver":{"name":"t"}},)"
      R"("results":{}}]})",
      sarif_with_results("1"),
      sarif_with_results("{}"),
      sarif_with_results(R"({"ruleId":1})"),
      sarif_with_results(R"({"ruleId":"r"})"),
      sarif_with_results(R"({"ruleId":"r","level":1,)" + location + "}"),
      sarif_with_results(R"({"ruleId":"r","message":{},)" + location + "}"),
      sarif_with_results(R"({"ruleId":"r","message":{"text":1},)" +
                         location + "}"),
      sarif_with_results(R"({"ruleId":"r","locations":{}})"),
      sarif_with_results(R"({"ruleId":"r","locations":[]})"),
      sarif_with_results(R"({"ruleId":"r","locations":[{}]})"),
      sarif_with_results(R"({"ruleId":"r","locations":[{"physicalLocation")"
                         R"(:{}}]})"),
      sarif_with_results(R"({"ruleId":"r","locations":[{"physicalLocation")"
                         R"(:{"artifactLocation":{}}}]})"),
      sarif_with_results(R"({"ruleId":"r","locations":[{"physicalLocation")"
                         R"(:{"artifactLocation":{"uri":1}}}]})"),
      sarif_with_results(R"({"ruleId":"r","locations":[{"physicalLocation")"
                         R"(:{"artifactLocation":{"uri":"a"}}}]})"),
      sarif_with_results(R"({"ruleId":"r","locations":[{"physicalLocation")"
                         R"(:{"artifactLocation":{"uri":"a"},"region":{}}}]})"),
      sarif_with_results(R"({"ruleId":"r","locations":[{"physicalLocation")"
                         R"(:{"artifactLocation":{"uri":"a"},"region":)"
                         R"({"startLine":0}}}]})"),
      sarif_with_results(R"({"ruleId":"r","locations":[{"physicalLocation")"
                         R"(:{"artifactLocation":{"uri":"a"},"region":)"
                         R"({"startLine":2,"startColumn":0}}}]})"),
      sarif_with_results(R"({"ruleId":"r","properties":{"confidence":"x"},)" +
                         location + "}"),
      sarif_with_results(R"({"ruleId":"r","properties":{"confidence":2},)" +
                         location + "}"),
      sarif_with_results(R"({"ruleId":"r","properties":{"confidence":0.5},)"
                         R"("level":"error","level":"note",)" +
                         location + "}"),
      sarif_with_results(R"({"ruleId":"r",)" + location + "}," +
                         R"({"ruleId":"r","locations":[1]})"),
  };
  // Accepted strings whose decoded bytes the re-render pins: every simple
  // escape, \u escapes of each UTF-8 width, and lone surrogates (which
  // keep their three-byte encoding).
  for (const char* text :
       {R"(plain)", R"(q\"b\\s\/)", R"(\b\f\n\r\t)", R"(\u0041\u00e9\u20ac)",
        R"(\u0000\u001f\u007f)", R"(\ud800)", R"(\udbff)", R"(\udc00)",
        R"(\udfff)", R"(\ud800x)", R"(\ud800\u0041)", R"(\ud800\ud800)",
        R"(\udc00\ud800)", R"(\ud800\n)", R"(\ud800\\)"})
    docs.push_back(sarif_with_results(result_with_message(text)));
  return docs;
}

// Values recorded from the reference build. See the file comment before
// changing one.
constexpr std::size_t kManifestSweepCount = 4725;
constexpr std::uint64_t kManifestSweepDigest = 7966173693509302367ULL;
constexpr std::size_t kSarifSweepCount = 7449;
constexpr std::uint64_t kSarifSweepDigest = 3341857036469911560ULL;
constexpr std::size_t kReaderTableCount = 129;
constexpr std::uint64_t kReaderTableDigest = 5209373141010237486ULL;
constexpr std::size_t kCorpusTableCount = 108;
constexpr std::uint64_t kCorpusTableDigest = 4322181765766994563ULL;

TEST(ErrorOracleTest, ManifestSweepOutcomesMatchTheRecording) {
  const Oracle oracle = sweep(sweep::sweep_manifest_doc(), manifest_outcome);
  EXPECT_EQ(oracle.count, kManifestSweepCount);
  EXPECT_EQ(oracle.digest, kManifestSweepDigest) << oracle.digest << "ULL";
}

TEST(ErrorOracleTest, SarifSweepOutcomesMatchTheRecording) {
  const Oracle oracle = sweep(sweep::sweep_sarif_doc(), sarif_outcome);
  EXPECT_EQ(oracle.count, kSarifSweepCount);
  EXPECT_EQ(oracle.digest, kSarifSweepDigest) << oracle.digest << "ULL";
}

TEST(ErrorOracleTest, ReaderTableOutcomesMatchTheRecording) {
  Oracle oracle;
  for (const std::string& doc : reader_table())
    oracle.add(reader_outcome(doc));
  EXPECT_EQ(oracle.count, kReaderTableCount);
  EXPECT_EQ(oracle.digest, kReaderTableDigest) << oracle.digest << "ULL";
}

TEST(ErrorOracleTest, CorpusTableOutcomesMatchTheRecording) {
  Oracle oracle;
  for (const std::string& doc : manifest_table())
    oracle.add(manifest_outcome(doc));
  for (const std::string& doc : sarif_table()) oracle.add(sarif_outcome(doc));
  EXPECT_EQ(oracle.count, kCorpusTableCount);
  EXPECT_EQ(oracle.digest, kCorpusTableDigest) << oracle.digest << "ULL";
}

}  // namespace
}  // namespace vdbench::corpus
