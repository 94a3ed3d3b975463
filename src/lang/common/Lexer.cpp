//===- Lexer.cpp - Configurable lexer for all frontends --------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "lang/common/Lexer.h"

#include <algorithm>
#include <cassert>
#include <cctype>

using namespace pigeon;
using namespace pigeon::lang;

const char *lang::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::Keyword:
    return "keyword";
  case TokenKind::IntLiteral:
    return "int";
  case TokenKind::FloatLiteral:
    return "float";
  case TokenKind::StringLiteral:
    return "string";
  case TokenKind::Punct:
    return "punct";
  case TokenKind::Newline:
    return "newline";
  case TokenKind::Indent:
    return "indent";
  case TokenKind::Dedent:
    return "dedent";
  case TokenKind::Eof:
    return "eof";
  case TokenKind::Error:
    return "error";
  }
  return "invalid";
}

std::string_view Token::stringValue() const {
  // Always-on precondition (asserts are compiled out in Release): a
  // non-string token has no quotes to strip, so return its text verbatim
  // instead of corrupting it — callers treat the value opaquely and the
  // parser diagnostics cover the underlying confusion.
  if (Kind != TokenKind::StringLiteral)
    return Text;
  if (Text.size() >= 2)
    return Text.substr(1, Text.size() - 2);
  return Text;
}

std::string Diagnostic::str() const {
  return std::to_string(Line) + ":" + std::to_string(Column) + ": " + Message;
}

void Diagnostics::error(uint32_t Offset, std::string Message) {
  uint32_t Line = 1, Col = 1;
  size_t End = std::min<size_t>(Offset, Source.size());
  for (size_t I = 0; I < End; ++I) {
    if (Source[I] == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
  }
  Diags.push_back({std::move(Message), Line, Col});
}

std::string Diagnostics::str() const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    if (!Out.empty())
      Out += '\n';
    Out += D.str();
  }
  return Out;
}

static bool isIdentStart(char C, bool Dollar) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_' ||
         (Dollar && C == '$');
}
static bool isIdentCont(char C, bool Dollar) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
         (Dollar && C == '$');
}

Lexer::Lexer(std::string_view Source, const LexerConfig &Config,
             Diagnostics &Diags)
    : Source(Source), Config(Config), Diags(Diags) {
  IndentStack.push_back(0);
}

void Lexer::emit(TokenKind Kind, size_t Start) {
  Out.push_back({Kind, Source.substr(Start, Pos - Start),
                 static_cast<uint32_t>(Start)});
  if (Kind != TokenKind::Newline && Kind != TokenKind::Indent &&
      Kind != TokenKind::Dedent)
    LineHasTokens = true;
}

void Lexer::skipBlockComment() {
  // Always-on precondition: called off a "/*" the cursor math below would
  // walk garbage. Raise a diagnostic and consume one character so the
  // lexer keeps making progress in Release builds too.
  if (peek() != '/' || peek(1) != '*') {
    Diags.error(static_cast<uint32_t>(Pos),
                "lexer desync: expected block comment");
    if (!atEnd())
      ++Pos;
    return;
  }
  size_t Start = Pos;
  Pos += 2;
  while (!atEnd()) {
    if (peek() == '*' && peek(1) == '/') {
      Pos += 2;
      return;
    }
    ++Pos;
  }
  Diags.error(static_cast<uint32_t>(Start), "unterminated block comment");
}

void Lexer::handleLineStart() {
  // Measure indentation of the next non-blank, non-comment-only line, then
  // emit Indent/Dedent tokens against the indent stack.
  while (true) {
    size_t LineStart = Pos;
    int Indent = 0;
    while (peek() == ' ' || peek() == '\t') {
      Indent += peek() == '\t' ? 8 - (Indent % 8) : 1;
      ++Pos;
    }
    // Blank line or comment-only line: swallow and continue measuring.
    if (peek() == '\n') {
      ++Pos;
      continue;
    }
    if (Config.HashComments && peek() == '#') {
      while (!atEnd() && peek() != '\n')
        ++Pos;
      continue;
    }
    if (atEnd()) {
      // Close all open indentation levels at EOF.
      while (IndentStack.back() > 0) {
        IndentStack.pop_back();
        emit(TokenKind::Dedent, Pos);
      }
      return;
    }
    if (Indent > IndentStack.back()) {
      IndentStack.push_back(Indent);
      emit(TokenKind::Indent, LineStart);
    } else {
      while (Indent < IndentStack.back()) {
        IndentStack.pop_back();
        emit(TokenKind::Dedent, LineStart);
      }
      if (Indent != IndentStack.back())
        Diags.error(static_cast<uint32_t>(LineStart),
                    "inconsistent indentation");
    }
    return;
  }
}

void Lexer::lexNumber() {
  size_t Start = Pos;
  bool IsFloat = false;
  if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
    Pos += 2;
    while (std::isxdigit(static_cast<unsigned char>(peek())))
      ++Pos;
  } else {
    while (std::isdigit(static_cast<unsigned char>(peek())))
      ++Pos;
    if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
      IsFloat = true;
      ++Pos;
      while (std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      size_t Save = Pos;
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      if (std::isdigit(static_cast<unsigned char>(peek()))) {
        IsFloat = true;
        while (std::isdigit(static_cast<unsigned char>(peek())))
          ++Pos;
      } else {
        Pos = Save;
      }
    }
  }
  // Trailing type suffixes (Java/C#: 1L, 2.0f, 3.5d).
  if (peek() == 'L' || peek() == 'l' || peek() == 'f' || peek() == 'F' ||
      peek() == 'd' || peek() == 'D') {
    if (peek() == 'f' || peek() == 'F' || peek() == 'd' || peek() == 'D')
      IsFloat = true;
    ++Pos;
  }
  emit(IsFloat ? TokenKind::FloatLiteral : TokenKind::IntLiteral, Start);
}

void Lexer::lexIdentifier() {
  size_t Start = Pos;
  while (isIdentCont(peek(), Config.DollarInIdentifiers))
    ++Pos;
  std::string_view Text = Source.substr(Start, Pos - Start);
  emit(Config.Keywords.count(Text) ? TokenKind::Keyword
                                   : TokenKind::Identifier,
       Start);
}

void Lexer::lexString(char Quote) {
  size_t Start = Pos;
  ++Pos; // Opening quote.
  while (!atEnd() && peek() != Quote && peek() != '\n') {
    if (peek() == '\\' && Pos + 1 < Source.size())
      ++Pos; // Skip the escaped character.
    ++Pos;
  }
  if (peek() == Quote) {
    ++Pos;
    emit(TokenKind::StringLiteral, Start);
    return;
  }
  Diags.error(static_cast<uint32_t>(Start), "unterminated string literal");
  emit(TokenKind::Error, Start);
}

bool Lexer::lexPunctuator() {
  size_t Start = Pos;
  std::string_view Rest = Source.substr(Pos);
  // Longest match wins; config lists are short so a linear scan is fine.
  std::string_view Best;
  for (std::string_view P : Config.Punctuators)
    if (P.size() > Best.size() && Rest.substr(0, P.size()) == P)
      Best = P;
  if (Best.empty())
    return false;
  Pos += Best.size();
  emit(TokenKind::Punct, Start);
  return true;
}

void Lexer::pairBracket() {
  Token &T = Out.back();
  uint32_t Index = static_cast<uint32_t>(Out.size() - 1);
  if (T.opens()) {
    OpenBrackets.push_back(Index);
  } else if (T.closes()) {
    if (OpenBrackets.empty()) {
      T.Match = Index; // A stray closer pairs with itself.
      return;
    }
    T.Match = OpenBrackets.back();
    Out[OpenBrackets.back()].Match = Index;
    OpenBrackets.pop_back();
  }
}

std::vector<Token> Lexer::lexAll() {
  bool AtLineStart = Config.SignificantIndentation;
  while (true) {
    if (Config.SignificantIndentation && AtLineStart) {
      // Inside brackets a physical newline does not start a logical line.
      if (OpenBrackets.empty()) {
        handleLineStart();
        LineHasTokens = false;
      }
      AtLineStart = false;
    }
    if (atEnd())
      break;

    char C = peek();
    if (C == '\n') {
      if (Config.SignificantIndentation && OpenBrackets.empty()) {
        if (LineHasTokens)
          emit(TokenKind::Newline, Pos);
        AtLineStart = true;
      }
      ++Pos;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r') {
      ++Pos;
      continue;
    }
    if (Config.SlashSlashComments && C == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n')
        ++Pos;
      continue;
    }
    if (Config.SlashStarComments && C == '/' && peek(1) == '*') {
      skipBlockComment();
      continue;
    }
    if (Config.HashComments && C == '#') {
      while (!atEnd() && peek() != '\n')
        ++Pos;
      continue;
    }
    if (isIdentStart(C, Config.DollarInIdentifiers)) {
      lexIdentifier();
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      lexNumber();
      continue;
    }
    if ((C == '"' && Config.DoubleQuoteStrings) ||
        (C == '\'' && Config.SingleQuoteStrings)) {
      lexString(C);
      continue;
    }
    if (lexPunctuator()) {
      pairBracket();
      continue;
    }

    Diags.error(static_cast<uint32_t>(Pos), std::string("unexpected "
                                                        "character '") +
                                                C + "'");
    size_t Start = Pos++;
    emit(TokenKind::Error, Start);
  }

  // Close the last logical line and any open indentation.
  if (Config.SignificantIndentation) {
    if (LineHasTokens)
      emit(TokenKind::Newline, Pos);
    while (IndentStack.back() > 0) {
      IndentStack.pop_back();
      emit(TokenKind::Dedent, Pos);
    }
  }
  for (uint32_t Open : OpenBrackets)
    Out[Open].Match = static_cast<uint32_t>(Out.size()); // Pairs with Eof.
  Out.push_back({TokenKind::Eof, Source.substr(Pos > Source.size()
                                                   ? Source.size()
                                                   : Pos,
                                               0),
                 static_cast<uint32_t>(Source.size())});
  return std::move(Out);
}
