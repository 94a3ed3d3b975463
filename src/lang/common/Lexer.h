//===- Lexer.h - Configurable lexer for all frontends -----------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One lexer serves all four languages; a LexerConfig selects the keyword
/// set, punctuators, comment styles and whether indentation is significant
/// (Python). Indentation-sensitive mode emits Newline/Indent/Dedent tokens
/// with bracket-nesting suppression, mirroring CPython's tokenizer. Every
/// bracket token carries the index of its partner (Token::Match), so
/// parsers skip a bracket group in O(1).
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_LANG_COMMON_LEXER_H
#define PIGEON_LANG_COMMON_LEXER_H

#include "lang/common/Diagnostics.h"
#include "lang/common/Token.h"

#include <string_view>
#include <unordered_set>
#include <vector>

namespace pigeon {
namespace lang {

/// Static description of a language's lexical grammar.
struct LexerConfig {
  /// Reserved words; identifiers matching one lex as Keyword.
  std::unordered_set<std::string_view> Keywords;
  /// Multi- and single-character operators/delimiters. Matched longest
  /// first; every single character that can start a punctuator should also
  /// appear on its own if legal.
  std::vector<std::string_view> Punctuators;
  bool SlashSlashComments = false; ///< `// ...`
  bool SlashStarComments = false;  ///< `/* ... */`
  bool HashComments = false;       ///< `# ...`
  bool SignificantIndentation = false;
  bool SingleQuoteStrings = true;
  bool DoubleQuoteStrings = true;
  bool DollarInIdentifiers = false; ///< `$` is an identifier char (JS).
};

/// Lexes a whole buffer into a token vector (always terminated by Eof).
class Lexer {
public:
  Lexer(std::string_view Source, const LexerConfig &Config,
        Diagnostics &Diags);

  /// Runs the lexer over the whole buffer.
  std::vector<Token> lexAll();

private:
  std::string_view Source;
  const LexerConfig &Config;
  Diagnostics &Diags;

  size_t Pos = 0;
  /// Token indices of the brackets opened and not yet closed. Newlines
  /// inside brackets are not logical line breaks (indentation mode).
  std::vector<uint32_t> OpenBrackets;
  std::vector<int> IndentStack;
  std::vector<Token> Out;
  /// True when at least one real token was emitted since the last Newline,
  /// so blank/comment-only lines produce no Newline token.
  bool LineHasTokens = false;

  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
  }
  bool atEnd() const { return Pos >= Source.size(); }

  void emit(TokenKind Kind, size_t Start);
  void handleLineStart();
  void lexNumber();
  void lexIdentifier();
  void lexString(char Quote);
  bool lexPunctuator();
  /// Pairs the bracket just emitted with its partner (Token::Match).
  void pairBracket();
  void skipBlockComment();
};

} // namespace lang
} // namespace pigeon

#endif // PIGEON_LANG_COMMON_LEXER_H
