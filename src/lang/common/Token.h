//===- Token.h - Language-neutral token model -------------------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A token model shared by all four frontends. The lexer is configured per
/// language (keyword set, punctuators, comment styles, significant
/// indentation) but emits the same Token type, so parser machinery and the
/// token-stream baselines are language-independent.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_LANG_COMMON_TOKEN_H
#define PIGEON_LANG_COMMON_TOKEN_H

#include <cstdint>
#include <string>
#include <string_view>

namespace pigeon {
namespace lang {

/// Coarse lexical category of a token.
enum class TokenKind : uint8_t {
  Identifier,
  Keyword,
  IntLiteral,
  FloatLiteral,
  StringLiteral,
  Punct,   ///< Operator or delimiter, e.g. "+", "(", "=>".
  Newline, ///< Logical line break (indentation-sensitive mode only).
  Indent,  ///< Indentation increased (indentation-sensitive mode only).
  Dedent,  ///< Indentation decreased (indentation-sensitive mode only).
  Eof,
  Error, ///< Unrecognised input; Text holds the offending character(s).
};

/// \returns a printable name for \p Kind.
const char *tokenKindName(TokenKind Kind);

/// A single lexed token. Text views into the source buffer, which must
/// outlive the token (the SourceFile owns it).
struct Token {
  TokenKind Kind = TokenKind::Eof;
  /// Exact source spelling. For StringLiteral this includes the quotes.
  std::string_view Text;
  /// Byte offset of the first character within the source buffer.
  uint32_t Offset = 0;
  /// For a bracket, the index of its partner in the token vector: the
  /// lexer pairs `(`, `[` and `{` with the next unpaired closer of any
  /// kind. An opener that never closes pairs with Eof; a stray closer
  /// pairs with itself. Unused (0) for other tokens.
  uint32_t Match = 0;

  bool is(TokenKind K) const { return Kind == K; }

  /// True for `(`, `[` and `{`.
  bool opens() const { return isBracket("([{"); }
  /// True for `)`, `]` and `}`.
  bool closes() const { return isBracket(")]}"); }

  /// True if this is a keyword or punctuator spelled exactly \p Spelling.
  bool is(std::string_view Spelling) const {
    return (Kind == TokenKind::Keyword || Kind == TokenKind::Punct) &&
           Text == Spelling;
  }

  /// The literal's contents without quotes (StringLiteral only).
  std::string_view stringValue() const;

private:
  bool isBracket(std::string_view Chars) const {
    return Kind == TokenKind::Punct && Text.size() == 1 &&
           Chars.find(Text[0]) != std::string_view::npos;
  }
};

} // namespace lang
} // namespace pigeon

#endif // PIGEON_LANG_COMMON_TOKEN_H
