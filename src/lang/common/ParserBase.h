//===- ParserBase.h - Shared recursive-descent machinery --------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token-cursor plumbing shared by the four recursive-descent parsers:
/// lookahead over the lexer's bracket pairing, conditional consumption,
/// expectation with diagnostics, panic-mode recovery helpers, and the
/// nesting budget that bounds recursion. The operator-expression layer
/// the parsers share builds on it (ExpressionParser.h).
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_LANG_COMMON_PARSERBASE_H
#define PIGEON_LANG_COMMON_PARSERBASE_H

#include "lang/common/Diagnostics.h"
#include "lang/common/Token.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

namespace pigeon {
namespace lang {

/// Base class holding the token cursor. Each frontend derives its parser
/// from this and emits into an ast::TreeBuilder.
class ParserBase {
public:
  /// Deepest nesting a parse accepts. Each parser opens one level per
  /// statement, expression, prefix operator or cast, and type it is
  /// inside, so every recursion cycle spends budget; past the limit the
  /// input is rejected instead of overflowing the stack. The deepest
  /// accepted input must parse on a default-sized std::thread stack under
  /// AddressSanitizer (DESIGN §4).
  static constexpr unsigned MaxNesting = 400;

protected:
  ParserBase(const std::vector<Token> &Tokens, Diagnostics &Diags)
      : Tokens(Tokens), Diags(Diags) {
    assert(!Tokens.empty() && Tokens.back().is(TokenKind::Eof) &&
           "token stream must be Eof-terminated");
  }

  const Token &peek(size_t Ahead = 0) const {
    size_t I = Cursor + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }

  bool atEnd() const { return peek().is(TokenKind::Eof); }

  /// Token \p I of the stream; Eof past its end.
  const Token &tokenAt(size_t I) const {
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }

  /// One past the bracket group that opens at token \p I, in O(1) via
  /// the lexer's pairing (Eof if the group never closes); I + 1 if token
  /// \p I opens no group.
  size_t skipGroup(size_t I) const {
    const Token &T = tokenAt(I);
    if (!T.opens())
      return I + 1;
    return std::min<size_t>(T.Match + 1, Tokens.size() - 1);
  }

  /// One past the `name (.name | [...])*` chain starting at token \p I,
  /// whose name is an identifier or `this`; Eof if no name starts there.
  /// An assignment operator or a postfix ++/-- after a chain applies to
  /// the whole chain.
  size_t chainEnd(size_t I) const {
    if (!tokenAt(I).is(TokenKind::Identifier) && !tokenAt(I).is("this"))
      return Tokens.size() - 1;
    ++I;
    while (true) {
      if (tokenAt(I).is("."))
        I += 2;
      else if (tokenAt(I).is("["))
        I = skipGroup(I);
      else
        return I;
    }
  }

  /// Consumes and returns the current token.
  Token advance() {
    Token T = peek();
    if (Cursor + 1 < Tokens.size())
      ++Cursor;
    return T;
  }

  /// True if the current token is the keyword/punctuator \p Spelling.
  bool at(std::string_view Spelling) const { return peek().is(Spelling); }

  bool atKind(TokenKind Kind) const { return peek().is(Kind); }

  /// Consumes the current token if it is \p Spelling.
  bool accept(std::string_view Spelling) {
    if (!at(Spelling))
      return false;
    advance();
    return true;
  }

  /// Consumes \p Spelling or reports an error (without consuming).
  bool expect(std::string_view Spelling) {
    if (accept(Spelling))
      return true;
    error(std::string("expected '") + std::string(Spelling) + "', found '" +
          std::string(peek().Text) + "'");
    return false;
  }

  /// Consumes an identifier or reports an error and returns a placeholder.
  Token expectIdentifier(const char *What = "identifier") {
    if (atKind(TokenKind::Identifier))
      return advance();
    error(std::string("expected ") + What + ", found '" +
          std::string(peek().Text) + "'");
    Token Bad = peek();
    Bad.Kind = TokenKind::Identifier;
    Bad.Text = "<error>";
    // Consume one token so panic recovery makes progress, unless we are at
    // a closer/Eof where skipping would lose structure.
    if (!atEnd() && !at(")") && !at("}") && !at("]") && !at(";"))
      advance();
    return Bad;
  }

  /// Reports an error at the cursor. Silent once the nesting budget has
  /// tripped: that diagnostic is the parse's last.
  void error(std::string Message) {
    if (!TooDeep)
      Diags.error(peek().Offset, Message);
  }

  /// One level of the nesting budget, held for the extent of a nested
  /// parse. Converts to false when the budget is spent: the parse then
  /// reports one diagnostic, jumps to Eof and yields no tree, so the
  /// caller returns without parsing further.
  class Nested {
  public:
    explicit Nested(ParserBase &P) : P(P) {
      if (++P.Depth > MaxNesting && !P.TooDeep) {
        P.error("nesting deeper than " + std::to_string(MaxNesting) +
                " levels");
        P.TooDeep = true;
        P.Cursor = P.Tokens.size() - 1;
      }
    }
    ~Nested() { --P.Depth; }
    Nested(const Nested &) = delete;
    Nested &operator=(const Nested &) = delete;
    explicit operator bool() const { return !P.TooDeep; }

  private:
    ParserBase &P;
  };

  /// Skips tokens until one of \p Spellings or Eof; does not consume the
  /// stop token. Used for statement-level recovery.
  void skipUntil(std::initializer_list<std::string_view> Spellings) {
    while (!atEnd()) {
      for (std::string_view S : Spellings)
        if (at(S))
          return;
      advance();
    }
  }

  const std::vector<Token> &Tokens;
  Diagnostics &Diags;
  size_t Cursor = 0;
  unsigned Depth = 0;
  /// Set once the nesting budget is spent; the parse then has no tree.
  bool TooDeep = false;
};

} // namespace lang
} // namespace pigeon

#endif // PIGEON_LANG_COMMON_PARSERBASE_H
