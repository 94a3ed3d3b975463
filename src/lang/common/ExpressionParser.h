//===- ExpressionParser.h - Shared operator-expression layer ----*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operator-expression layer of the four parsers. A frontend lists its
/// operators in a constant OperatorTable and derives its parser from
/// ExpressionParser<Parser, Table>, which parses assignments, conditionals
/// and binary, prefix, postfix and cast operators, and calls back into the
/// parser (statically, through CRTP) for what the table cannot say: the
/// call chain below the operators, and the Java/C# type grammar.
///
/// The parsers emit into a streaming preorder builder, so a wrapper node
/// opens before its operands and lookahead decides its shape. Each
/// precedence level pre-scans the operator chain at bracket depth 0 for
/// its own operators, opens their wrappers outermost-first (left-nested:
/// `a - b + c` is `+(-(a, b), c)`), parses the operands one level tighter,
/// and checks each operator it consumes against the scan.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_LANG_COMMON_EXPRESSIONPARSER_H
#define PIGEON_LANG_COMMON_EXPRESSIONPARSER_H

#include "ast/Ast.h"
#include "lang/common/ParserBase.h"

#include <array>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pigeon {
namespace lang {

/// A binary operator: one token (`+`, `instanceof`) or two (Python's
/// `not in`, `is not`, spelled with a space).
struct BinaryOperator {
  enum Form : uint8_t {
    Nested,     ///< One left-nested wrapper per operator.
    Flat,       ///< One wrapper around the whole chain (Python's BoolOp).
    TypeOperand ///< Left-nested; the right operand is a type.
  };

  constexpr BinaryOperator(unsigned Level, std::string_view Spelling,
                           std::string_view Kind, Form Shape = Nested)
      : Level(Level), Spelling(Spelling),
        First(Spelling.substr(0, Spelling.find(' '))),
        Second(Spelling.size() > First.size()
                   ? Spelling.substr(First.size() + 1)
                   : std::string_view()),
        Kind(Kind), Shape(Shape) {}

  unsigned Level; ///< Precedence; 1 binds loosest.
  std::string_view Spelling;
  std::string_view First, Second; ///< Its tokens; Second empty if one.
  std::string_view Kind;          ///< The wrapper's node kind.
  Form Shape;
};

/// A prefix operator and the node kind it opens. It starts an operand of
/// \c Level, before that level's scan; 0 is the unary level below every
/// binary level.
struct PrefixOperator {
  std::string_view Spelling;
  std::string_view Kind;
  unsigned Level = 0;
};

/// An assignment or postfix operator after a call chain, and the node
/// kind it opens.
struct ChainOperator {
  std::string_view Spelling;
  std::string_view Kind;
};

/// A frontend's operators.
struct OperatorTable {
  /// Every binary operator; the first entry a token matches wins.
  std::span<const BinaryOperator> Binary;
  std::span<const PrefixOperator> Prefix;
  std::span<const ChainOperator> Postfix = {};
  std::span<const ChainOperator> Assign = {};
  /// Tokens that end an operator chain, besides closing brackets, Eof,
  /// Newline and the assignment operators.
  std::span<const std::string_view> Terminators;
  /// Tokens after which the pre-scan still waits for an operand, as after
  /// `!` in `a + !b`; it takes any other token for one. The C-family
  /// tables leave out the prefix operators that also spell a binary or
  /// postfix operator, so their scans take the second `-` of `a - - - b`
  /// for an operand, count two `-` and end in operator drift.
  std::span<const std::string_view> ScanPrefixes;
  /// `cond Mark middle Separator other`; Python spells it
  /// `body if cond else other`.
  struct {
    std::string_view Kind, Mark, Separator;
    /// The middle operand is a whole expression (`?:`) rather than an
    /// operator chain that stops at Mark or Separator (Python's `if`).
    bool MiddleIsExpression;
  } Conditional;
  /// Node kind of a `(Type) operand` cast; empty if the language has none.
  std::string_view CastKind = {};

  /// Number of binary levels; the unary level is one tighter.
  constexpr unsigned levels() const {
    unsigned Max = 0;
    for (const BinaryOperator &Op : Binary)
      Max = Op.Level > Max ? Op.Level : Max;
    return Max;
  }
};

/// The operator-expression layer over ParserBase's token cursor. \p Parser
/// derives from it and provides
///   void parseCallChain();   // an operand below every operator
/// and, when \p Table has type operands or casts, hides the defaults of
/// parseType(), scanType() and isTypeKeyword() below.
template <class Parser, const OperatorTable &Table>
class ExpressionParser : protected ParserBase {
protected:
  ExpressionParser(const std::vector<Token> &Tokens, Diagnostics &Diags,
                   StringInterner &Interner)
      : ParserBase(Tokens, Diags), Interner(Interner), Builder(Interner),
        Classes(Tokens.size()) {
    for (size_t I = 0; I < Tokens.size(); ++I)
      Classes[I] = classify(I);
  }

  StringInterner &Interner;
  ast::TreeBuilder Builder;

  Symbol intern(std::string_view S) { return Interner.intern(S); }

  /// Parses one expression: an assignment to a call chain, a conditional
  /// or an operator chain. Spends one level of the nesting budget.
  void parseExpression() {
    Nested Budget(*this);
    if (!Budget)
      return;
    if (!Table.Assign.empty())
      if (const ChainOperator *Op =
              find(Table.Assign, tokenAt(chainEnd(Cursor)))) {
        Builder.begin(Op->Kind);
        parser().parseCallChain();
        expect(Op->Spelling);
        parseExpression();
        Builder.end();
        return;
      }
    if (conditionalAhead()) {
      Builder.begin(Table.Conditional.Kind);
      parseLevel(1, /*StopAtConditional=*/true);
      expect(Table.Conditional.Mark);
      if (Table.Conditional.MiddleIsExpression)
        parseExpression();
      else
        parseLevel(1, /*StopAtConditional=*/true);
      expect(Table.Conditional.Separator);
      parseExpression();
      Builder.end();
      return;
    }
    parseLevel(1, /*StopAtConditional=*/false);
  }

  // Hooks for frontends without types.
  void parseType() {}
  /// True if a type starts at token \p I; sets \p End one past it.
  bool scanType(size_t /*I*/, size_t & /*End*/) const { return false; }
  /// True for a keyword that is a type, so `(keyword)` is always a cast.
  static bool isTypeKeyword(std::string_view) { return false; }

private:
  static constexpr unsigned UnaryLevel = Table.levels() + 1;

  /// Bit L is set if a prefix operator starts operands of level L.
  static constexpr uint64_t PrefixLevels = [] {
    uint64_t Bits = 0;
    for (const PrefixOperator &Op : Table.Prefix)
      Bits |= uint64_t(1) << (Op.Level ? Op.Level : UnaryLevel);
    return Bits;
  }();

  /// What the operator scans need to know of a token. Every level's scan
  /// passes the same tokens again, so each token is classified once.
  struct ScanClass {
    enum : uint8_t {
      Opens = 1,      ///< `(`, `[` or `{`: its group is one operand.
      Ends = 2,       ///< Ends any chain: a closer, Eof, a terminator.
      Mark = 4,       ///< The conditional's mark (`?`, Python's `if`).
      Separator = 8,  ///< The conditional's separator.
      New = 16,       ///< `new`, whose type the scans skip.
      ScanPrefix = 32 ///< One of Table.ScanPrefixes.
    };
    uint8_t Flags = 0;
    /// 1 + the index in Table.Binary of the operator starting here, or 0.
    uint8_t Binary = 0;
  };
  static_assert(Table.Binary.size() < 255, "ScanClass::Binary overflows");
  std::vector<ScanClass> Classes; ///< One per token.

  /// True at the first byte of some spelling in the table: classify()
  /// compares a token against the table only if it starts with one.
  static constexpr std::array<bool, 256> Starts = [] {
    std::array<bool, 256> Bytes{};
    auto Add = [&](std::string_view S) {
      Bytes[static_cast<uint8_t>(S[0])] = true;
    };
    for (const BinaryOperator &Op : Table.Binary)
      Add(Op.First);
    for (const ChainOperator &Op : Table.Assign)
      Add(Op.Spelling);
    for (std::string_view S : Table.Terminators)
      Add(S);
    for (std::string_view S : Table.ScanPrefixes)
      Add(S);
    Add(Table.Conditional.Mark);
    Add(Table.Conditional.Separator);
    Add("new");
    return Bytes;
  }();

  Parser &parser() { return static_cast<Parser &>(*this); }
  const Parser &parser() const { return static_cast<const Parser &>(*this); }

  /// True if keyword or punctuator \p T is spelled \p S. Testing the first
  /// byte before the whole spelling keeps the table loops cheap.
  static bool spells(const Token &T, std::string_view S) {
    return T.Text.size() == S.size() && T.Text[0] == S[0] && T.Text == S;
  }
  static std::string_view spelling(std::string_view S) { return S; }
  static std::string_view spelling(const ChainOperator &Op) {
    return Op.Spelling;
  }

  /// The entry of \p Entries that \p T spells.
  template <class Entry>
  static const Entry *find(std::span<const Entry> Entries, const Token &T) {
    if (!T.is(TokenKind::Keyword) && !T.is(TokenKind::Punct))
      return nullptr;
    for (const Entry &E : Entries)
      if (spells(T, spelling(E)))
        return &E;
    return nullptr;
  }

  ScanClass classify(size_t I) const {
    const Token &T = Tokens[I];
    ScanClass C;
    if (T.is(TokenKind::Eof) || T.is(TokenKind::Newline) || T.closes())
      C.Flags |= ScanClass::Ends;
    if (T.opens())
      C.Flags |= ScanClass::Opens;
    if ((!T.is(TokenKind::Keyword) && !T.is(TokenKind::Punct)) ||
        !Starts[static_cast<uint8_t>(T.Text[0])])
      return C;
    for (size_t Op = 0; Op < Table.Binary.size() && !C.Binary; ++Op)
      if (spells(T, Table.Binary[Op].First) &&
          (Table.Binary[Op].Second.empty() ||
           tokenAt(I + 1).is(Table.Binary[Op].Second)))
        C.Binary = static_cast<uint8_t>(Op + 1);
    if (find(Table.Assign, T) || find(Table.Terminators, T))
      C.Flags |= ScanClass::Ends;
    if (spells(T, Table.Conditional.Mark))
      C.Flags |= ScanClass::Mark;
    if (spells(T, Table.Conditional.Separator))
      C.Flags |= ScanClass::Separator;
    if (spells(T, "new"))
      C.Flags |= ScanClass::New;
    if (find(Table.ScanPrefixes, T))
      C.Flags |= ScanClass::ScanPrefix;
    return C;
  }

  const PrefixOperator *prefixAt(unsigned Level) const {
    if (!(PrefixLevels >> Level & 1))
      return nullptr;
    for (const PrefixOperator &Op : Table.Prefix)
      if ((Op.Level ? Op.Level : UnaryLevel) == Level && at(Op.Spelling))
        return &Op;
    return nullptr;
  }

  bool conditionalAhead() const {
    for (size_t I = Cursor; I < Tokens.size(); I = skipGroup(I)) {
      if (Classes[I].Flags & ScanClass::Mark)
        return true;
      if (Classes[I].Flags & ScanClass::Ends)
        return false;
    }
    return false;
  }

  /// Collects into \p Ops the operators of exactly \p Level in the chain
  /// at the cursor, up to its end or a looser operator. An operator
  /// counts only right after an operand; a bracket group is one operand.
  void scanLevel(unsigned Level, bool StopAtConditional,
                 std::vector<const BinaryOperator *> &Ops) const {
    const uint8_t Stops =
        ScanClass::Ends |
        (StopAtConditional ? ScanClass::Mark | ScanClass::Separator : 0);
    bool AfterOperand = false;
    for (size_t I = Cursor; I < Tokens.size(); I = skipGroup(I)) {
      ScanClass C = Classes[I];
      if (C.Flags & ScanClass::Opens) {
        AfterOperand = true;
        continue;
      }
      if (C.Flags & Stops)
        return;
      // The type after `new` may hold `<`/`>`, which are not operators.
      if (C.Flags & ScanClass::New) {
        skipType(I);
        AfterOperand = false;
        continue;
      }
      if (C.Binary && AfterOperand) {
        const BinaryOperator &Op = Table.Binary[C.Binary - 1];
        if (Op.Level < Level)
          return;
        if (Op.Level == Level)
          Ops.push_back(&Op);
        I += !Op.Second.empty();
        AfterOperand = Op.Shape == BinaryOperator::TypeOperand;
        if (AfterOperand)
          skipType(I);
        continue;
      }
      AfterOperand = !(C.Flags & ScanClass::ScanPrefix);
    }
  }

  /// Moves \p I to the last token of the type after it, if one follows.
  void skipType(size_t &I) const {
    size_t End = I + 1;
    if (parser().scanType(I + 1, End))
      I = End - 1;
  }

  /// Consumes \p Op's tokens. A mismatch means the scan and the parse
  /// disagree about the chain; an always-on diagnostic (not an assert,
  /// which Release builds drop) makes the pipeline drop the file rather
  /// than keep a wrong tree.
  void consumeOperator(const BinaryOperator &Op) {
    Token First = advance();
    Token Second = Op.Second.empty() ? Token() : advance();
    if (First.Text == Op.First && Second.Text == Op.Second)
      return;
    std::string Found(First.Text);
    if (!Op.Second.empty())
      Found += " " + std::string(Second.Text);
    error("operator drift: expected '" + std::string(Op.Spelling) +
          "', found '" + Found + "'");
  }

  /// Parses an operand of the operators looser than \p Level. Levels whose
  /// scan finds no operator open no node and are passed in this loop
  /// rather than recursed through, which keeps a nesting level's stack
  /// cost small.
  void parseLevel(unsigned Level, bool StopAtConditional) {
    std::vector<const BinaryOperator *> Ops;
    for (;; ++Level) {
      if (const PrefixOperator *Op = prefixAt(Level)) {
        Nested Budget(*this);
        if (!Budget)
          return;
        advance();
        Builder.begin(Op->Kind);
        parseLevel(Level, StopAtConditional);
        Builder.end();
        return;
      }
      if (Level == UnaryLevel) {
        parseUnary();
        return;
      }
      scanLevel(Level, StopAtConditional, Ops);
      if (!Ops.empty())
        break;
    }
    bool Flat = Ops.front()->Shape == BinaryOperator::Flat;
    if (Flat)
      Builder.begin(Ops.front()->Kind);
    else
      for (auto It = Ops.rbegin(); It != Ops.rend(); ++It)
        Builder.begin((*It)->Kind);
    parseLevel(Level + 1, StopAtConditional);
    for (const BinaryOperator *Op : Ops) {
      consumeOperator(*Op);
      if (Op->Shape == BinaryOperator::TypeOperand)
        parser().parseType();
      else
        parseLevel(Level + 1, StopAtConditional);
      if (!Flat)
        Builder.end();
    }
    if (Flat)
      Builder.end();
  }

  /// The unary level below prefix operators: a cast, a call chain with a
  /// postfix operator, or a bare call chain.
  void parseUnary() {
    if (!Table.CastKind.empty() && castAhead()) {
      Nested Budget(*this);
      if (!Budget)
        return;
      Builder.begin(Table.CastKind);
      expect("(");
      parser().parseType();
      expect(")");
      parseLevel(UnaryLevel, /*StopAtConditional=*/false);
      Builder.end();
      return;
    }
    if (!Table.Postfix.empty())
      if (const ChainOperator *Op =
              find(Table.Postfix, tokenAt(chainEnd(Cursor)))) {
        Builder.begin(Op->Kind);
        parser().parseCallChain();
        advance(); // The operator.
        Builder.end();
        return;
      }
    parser().parseCallChain();
  }

  /// True at `(Type)` followed by the start of an operand: `(x) + 1` is
  /// arithmetic, `(int) x` a cast. `(keyword type)` is a cast whatever
  /// follows.
  bool castAhead() const {
    size_t End = Cursor + 1;
    if (!at("(") || !parser().scanType(Cursor + 1, End) ||
        !tokenAt(End).is(")"))
      return false;
    const Token &Next = tokenAt(End + 1);
    if (Next.is(TokenKind::Identifier) || Next.is(TokenKind::IntLiteral) ||
        Next.is(TokenKind::FloatLiteral) ||
        Next.is(TokenKind::StringLiteral) || Next.is("this") ||
        Next.is("new") || Next.is("("))
      return true;
    const Token &Inner = tokenAt(Cursor + 1);
    return Inner.is(TokenKind::Keyword) && Parser::isTypeKeyword(Inner.Text);
  }
};

} // namespace lang
} // namespace pigeon

#endif // PIGEON_LANG_COMMON_EXPRESSIONPARSER_H
