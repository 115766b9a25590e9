// Edge cases the MiniSAST lexer shares with vdlint's C++ scanner now that
// both run on lint::SourceCursor: CRLF line accounting, unterminated
// literals at EOF, comments that run to EOF, and pathological identifier
// lengths. The lexer's effect on E17's real-analyzer export is pinned by
// the study-wide byte oracle (tests/integration/export_digest_test.cpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sast/lexer.h"

namespace vdbench::sast {
namespace {

TEST(LexerEdgeTest, CrlfSourcesCountLinesLikeLfSources) {
  // The error line proves '\r' was treated as whitespace, not a line.
  try {
    (void)lex("let a = 1;\r\nlet b = 2;\r\nlet s = \"open;");
    FAIL() << "expected LexError";
  } catch (const LexError& error) {
    EXPECT_STREQ(error.what(), "line 3: unterminated string literal");
  }
  const std::vector<Token> tokens = lex("fn f() {\r\n  let x = 3;\r\n}\r\n");
  ASSERT_GE(tokens.size(), 6u);
  EXPECT_EQ(tokens[4].line, 1u);  // '{' still on line 1
  EXPECT_EQ(tokens[5].line, 2u);  // 'let' opens line 2
}

TEST(LexerEdgeTest, UnterminatedStringAtExactEofThrows) {
  try {
    (void)lex("let s = \"runs off the end");
    FAIL() << "expected LexError";
  } catch (const LexError& error) {
    EXPECT_STREQ(error.what(), "line 1: unterminated string literal");
  }
  // A string stopped by a newline reports the line it started on.
  try {
    (void)lex("\n\nlet s = \"broken\nlet t = 1;");
    FAIL() << "expected LexError";
  } catch (const LexError& error) {
    EXPECT_STREQ(error.what(), "line 3: unterminated string literal");
  }
}

TEST(LexerEdgeTest, CommentRunningToEofProducesOnlyEofToken) {
  const std::vector<Token> tokens = lex("# trailing comment with no newline");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEndOfFile);
  const std::vector<Token> after = lex("let a = 1; # same-line comment");
  ASSERT_EQ(after.size(), 6u);
  EXPECT_EQ(after[5].type, TokenType::kEndOfFile);
}

TEST(LexerEdgeTest, MaximalLengthIdentifiersSurviveIntact) {
  const std::string long_name(4096, 'x');
  const std::vector<Token> tokens = lex("let " + long_name + " = 1;");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].type, TokenType::kIdent);
  EXPECT_EQ(tokens[1].text, long_name);
  // Keyword prefixes embedded in longer identifiers stay identifiers.
  const std::vector<Token> keywordish = lex("let fnord = returned;");
  EXPECT_EQ(keywordish[1].type, TokenType::kIdent);
  EXPECT_EQ(keywordish[1].text, "fnord");
  EXPECT_EQ(keywordish[3].type, TokenType::kIdent);
  EXPECT_EQ(keywordish[3].text, "returned");
}

}  // namespace
}  // namespace vdbench::sast
