//===- lexer_test.cpp - Unit tests for the configurable lexer --------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "lang/common/Lexer.h"

#include <gtest/gtest.h>

using namespace pigeon;
using namespace pigeon::lang;

namespace {

LexerConfig basicConfig() {
  LexerConfig C;
  C.Keywords = {"if", "while", "def", "return"};
  C.Punctuators = {"==", "+=", "(", ")", "[", "]", "{", "}",
                   "=",  "+",  ",", ":", ";", ".", "<"};
  C.SlashSlashComments = true;
  C.SlashStarComments = true;
  return C;
}

std::vector<Token> lex(std::string_view Src, const LexerConfig &C,
                       Diagnostics &D) {
  Lexer L(Src, C, D);
  return L.lexAll();
}

std::vector<Token> lexOk(std::string_view Src, const LexerConfig &C) {
  Diagnostics D(Src);
  auto Toks = lex(Src, C, D);
  EXPECT_FALSE(D.hasErrors()) << D.str();
  return Toks;
}

TEST(Lexer, EmptyInputIsJustEof) {
  auto T = lexOk("", basicConfig());
  ASSERT_EQ(T.size(), 1u);
  EXPECT_TRUE(T[0].is(TokenKind::Eof));
}

TEST(Lexer, IdentifiersAndKeywords) {
  auto T = lexOk("if foo while bar", basicConfig());
  ASSERT_EQ(T.size(), 5u);
  EXPECT_TRUE(T[0].is(TokenKind::Keyword));
  EXPECT_TRUE(T[1].is(TokenKind::Identifier));
  EXPECT_EQ(T[1].Text, "foo");
  EXPECT_TRUE(T[2].is(TokenKind::Keyword));
  EXPECT_TRUE(T[3].is(TokenKind::Identifier));
}

TEST(Lexer, IntAndFloatLiterals) {
  auto T = lexOk("42 3.14 1e6 0x1F 2.5e-3", basicConfig());
  EXPECT_TRUE(T[0].is(TokenKind::IntLiteral));
  EXPECT_TRUE(T[1].is(TokenKind::FloatLiteral));
  EXPECT_TRUE(T[2].is(TokenKind::FloatLiteral));
  EXPECT_TRUE(T[3].is(TokenKind::IntLiteral));
  EXPECT_EQ(T[3].Text, "0x1F");
  EXPECT_TRUE(T[4].is(TokenKind::FloatLiteral));
}

TEST(Lexer, NumericSuffixes) {
  auto T = lexOk("10L 2.0f", basicConfig());
  EXPECT_TRUE(T[0].is(TokenKind::IntLiteral));
  EXPECT_EQ(T[0].Text, "10L");
  EXPECT_TRUE(T[1].is(TokenKind::FloatLiteral));
}

TEST(Lexer, DotAfterIntIsNotFloatWithoutDigit) {
  auto T = lexOk("a.b", basicConfig());
  ASSERT_EQ(T.size(), 4u);
  EXPECT_EQ(T[1].Text, ".");
}

TEST(Lexer, LongestMatchPunctuation) {
  auto T = lexOk("== = + +=", basicConfig());
  EXPECT_EQ(T[0].Text, "==");
  EXPECT_EQ(T[1].Text, "=");
  EXPECT_EQ(T[2].Text, "+");
  EXPECT_EQ(T[3].Text, "+=");
}

TEST(Lexer, StringLiterals) {
  auto T = lexOk("\"hello\" 'world'", basicConfig());
  EXPECT_TRUE(T[0].is(TokenKind::StringLiteral));
  EXPECT_EQ(T[0].stringValue(), "hello");
  EXPECT_TRUE(T[1].is(TokenKind::StringLiteral));
  EXPECT_EQ(T[1].stringValue(), "world");
}

TEST(Lexer, EscapedQuoteInsideString) {
  auto T = lexOk("'a\\'b'", basicConfig());
  EXPECT_TRUE(T[0].is(TokenKind::StringLiteral));
  EXPECT_EQ(T[0].stringValue(), "a\\'b");
}

TEST(Lexer, UnterminatedStringReportsError) {
  Diagnostics D("'abc");
  lex("'abc", basicConfig(), D);
  EXPECT_TRUE(D.hasErrors());
}

TEST(Lexer, LineCommentsSkipped) {
  auto T = lexOk("a // comment\nb", basicConfig());
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T[0].Text, "a");
  EXPECT_EQ(T[1].Text, "b");
}

TEST(Lexer, BlockCommentsSkipped) {
  auto T = lexOk("a /* x\ny */ b", basicConfig());
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T[1].Text, "b");
}

TEST(Lexer, UnterminatedBlockCommentReportsError) {
  Diagnostics D("/* oops");
  lex("/* oops", basicConfig(), D);
  EXPECT_TRUE(D.hasErrors());
}

TEST(Lexer, HashCommentsWhenEnabled) {
  LexerConfig C = basicConfig();
  C.HashComments = true;
  C.SlashSlashComments = false;
  auto T = lexOk("a # comment\nb", C);
  ASSERT_EQ(T.size(), 3u);
}

TEST(Lexer, UnknownCharacterReportsErrorToken) {
  Diagnostics D("a ` b");
  auto T = lex("a ` b", basicConfig(), D);
  EXPECT_TRUE(D.hasErrors());
  bool SawError = false;
  for (const Token &Tok : T)
    SawError |= Tok.is(TokenKind::Error);
  EXPECT_TRUE(SawError);
}

TEST(Lexer, OffsetsAreByteAccurate) {
  auto T = lexOk("ab cd", basicConfig());
  EXPECT_EQ(T[0].Offset, 0u);
  EXPECT_EQ(T[1].Offset, 3u);
}

//===----------------------------------------------------------------------===//
// Bracket pairing
//===----------------------------------------------------------------------===//

static_assert(sizeof(Token) == 32, "Token::Match must fit Token's padding");

TEST(LexerBrackets, NestedPairsPointAtEachOther) {
  auto T = lexOk("( [ { } ] )", basicConfig());
  ASSERT_EQ(T.size(), 7u);
  const uint32_t Partner[] = {5, 4, 3, 2, 1, 0};
  for (uint32_t I = 0; I < 6; ++I)
    EXPECT_EQ(T[I].Match, Partner[I]) << "token " << I;
}

TEST(LexerBrackets, PairingIgnoresBracketKind) {
  auto T = lexOk("( ]", basicConfig());
  EXPECT_EQ(T[0].Match, 1u);
  EXPECT_EQ(T[1].Match, 0u);
}

TEST(LexerBrackets, UnclosedOpenerPairsWithEof) {
  auto T = lexOk("f ( a [ b ]", basicConfig());
  ASSERT_TRUE(T.back().is(TokenKind::Eof));
  EXPECT_EQ(T[1].Match, T.size() - 1);
  EXPECT_EQ(T[3].Match, 5u);
  EXPECT_EQ(T[5].Match, 3u);
}

TEST(LexerBrackets, StrayCloserPairsWithItself) {
  auto T = lexOk("a ) ( b )", basicConfig());
  EXPECT_EQ(T[1].Match, 1u);
  EXPECT_EQ(T[2].Match, 4u);
  EXPECT_EQ(T[4].Match, 2u);
}

TEST(Lexer, DiagnosticLineAndColumn) {
  Diagnostics D("ok\n  'x");
  lex("ok\n  'x", basicConfig(), D);
  ASSERT_TRUE(D.hasErrors());
  EXPECT_EQ(D.all()[0].Line, 2u);
  EXPECT_EQ(D.all()[0].Column, 3u);
}

//===----------------------------------------------------------------------===//
// Indentation-sensitive mode
//===----------------------------------------------------------------------===//

LexerConfig pyConfig() {
  LexerConfig C = basicConfig();
  C.SignificantIndentation = true;
  C.HashComments = true;
  C.SlashSlashComments = false;
  C.SlashStarComments = false;
  return C;
}

std::string kinds(const std::vector<Token> &Toks) {
  std::string Out;
  for (const Token &T : Toks) {
    if (!Out.empty())
      Out += ' ';
    switch (T.Kind) {
    case TokenKind::Newline:
      Out += "NL";
      break;
    case TokenKind::Indent:
      Out += "IN";
      break;
    case TokenKind::Dedent:
      Out += "DE";
      break;
    case TokenKind::Eof:
      Out += "EOF";
      break;
    default:
      Out += T.Text;
    }
  }
  return Out;
}

TEST(LexerIndent, SimpleBlock) {
  auto T = lexOk("def f():\n    return\n", pyConfig());
  EXPECT_EQ(kinds(T), "def f ( ) : NL IN return NL DE EOF");
}

TEST(LexerIndent, NestedBlocks) {
  auto T = lexOk("if a:\n  if b:\n    c\nd\n", pyConfig());
  EXPECT_EQ(kinds(T), "if a : NL IN if b : NL IN c NL DE DE d NL EOF");
}

TEST(LexerIndent, BlankLinesDoNotAffectIndentation) {
  auto T = lexOk("if a:\n  b\n\n  c\n", pyConfig());
  EXPECT_EQ(kinds(T), "if a : NL IN b NL c NL DE EOF");
}

TEST(LexerIndent, CommentOnlyLinesIgnored) {
  auto T = lexOk("if a:\n  b\n# comment\n  c\n", pyConfig());
  EXPECT_EQ(kinds(T), "if a : NL IN b NL c NL DE EOF");
}

TEST(LexerIndent, BracketsSuppressNewlines) {
  auto T = lexOk("f(a,\n   b)\nc\n", pyConfig());
  EXPECT_EQ(kinds(T), "f ( a , b ) NL c NL EOF");
}

TEST(LexerIndent, NestedBracketsSuppressNewlinesUntilClosed) {
  auto T = lexOk("f([a,\n  b],\n c)\nd\n", pyConfig());
  EXPECT_EQ(kinds(T), "f ( [ a , b ] , c ) NL d NL EOF");
  EXPECT_EQ(T[1].Match, 9u);
  EXPECT_EQ(T[2].Match, 6u);
}

TEST(LexerIndent, StrayCloserDoesNotSuppressNewlines) {
  auto T = lexOk("a)\nb\n", pyConfig());
  EXPECT_EQ(kinds(T), "a ) NL b NL EOF");
}

TEST(LexerIndent, UnclosedBracketSuppressesNewlinesToEof) {
  auto T = lexOk("f(a\nb\n", pyConfig());
  EXPECT_EQ(kinds(T), "f ( a b NL EOF");
  EXPECT_EQ(T[1].Match, T.size() - 1);
}

TEST(LexerIndent, DedentAtEofClosesAllLevels) {
  auto T = lexOk("if a:\n  if b:\n    c", pyConfig());
  EXPECT_EQ(kinds(T), "if a : NL IN if b : NL IN c NL DE DE EOF");
}

TEST(LexerIndent, MissingFinalNewlineStillEmitsNewline) {
  auto T = lexOk("a", pyConfig());
  EXPECT_EQ(kinds(T), "a NL EOF");
}

TEST(LexerIndent, InconsistentDedentReportsError) {
  Diagnostics D("if a:\n    b\n  c\n");
  lex("if a:\n    b\n  c\n", pyConfig(), D);
  EXPECT_TRUE(D.hasErrors());
}

TEST(LexerIndent, TabsCountAsEightColumns) {
  auto T = lexOk("if a:\n\tb\nc\n", pyConfig());
  EXPECT_EQ(kinds(T), "if a : NL IN b NL DE c NL EOF");
}

TEST(LexerGuards, StringValueOnNonStringIsDefined) {
  // Promoted precondition: calling stringValue() on a non-string token was
  // a Release-stripped assert followed by quote-stripping garbage. It must
  // now be defined behavior — the raw text comes back untouched.
  auto T = lexOk("abc", basicConfig());
  ASSERT_FALSE(T.empty());
  EXPECT_EQ(T[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(T[0].stringValue(), "abc");

  auto S = lexOk("'xy'", basicConfig());
  ASSERT_FALSE(S.empty());
  EXPECT_EQ(S[0].Kind, TokenKind::StringLiteral);
  EXPECT_EQ(S[0].stringValue(), "xy");
}

} // namespace
