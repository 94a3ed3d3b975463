//===- JsParser.cpp - MiniJS frontend ---------------------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "lang/js/JsParser.h"

#include "lang/common/ExpressionParser.h"
#include "lang/common/Lexer.h"
#include "lang/common/ScopeStack.h"

#include <string>

using namespace pigeon;
using namespace pigeon::lang;
using namespace pigeon::ast;

namespace {

const LexerConfig &jsLexerConfig() {
  static const LexerConfig Config = [] {
    LexerConfig C;
    C.Keywords = {"var",      "let",    "const",   "function", "return",
                  "if",       "else",   "while",   "do",       "for",
                  "break",    "continue", "new",   "delete",   "typeof",
                  "in",       "of",     "instanceof", "true",  "false",
                  "null",     "undefined", "this", "throw",    "try",
                  "catch",    "finally"};
    C.Punctuators = {
        "===", "!==", ">>>", "...", "=>",  "==", "!=", "<=", ">=", "&&",
        "||",  "++",  "--",  "+=",  "-=",  "*=", "/=", "%=", "&=", "|=",
        "^=",  "<<",  ">>",  "(",   ")",   "{",  "}",  "[",  "]",  ";",
        ",",   ".",   ":",   "?",   "=",   "+",  "-",  "*",  "/",  "%",
        "<",   ">",   "!",   "~",   "&",   "|",  "^"};
    C.SlashSlashComments = true;
    C.SlashStarComments = true;
    C.DollarInIdentifiers = true;
    return C;
  }();
  return Config;
}

constexpr BinaryOperator JsBinary[] = {
    {1, "||", "Binary||"},
    {2, "&&", "Binary&&"},
    {3, "|", "Binary|"},
    {4, "^", "Binary^"},
    {5, "&", "Binary&"},
    {6, "==", "Binary=="},
    {6, "!=", "Binary!="},
    {6, "===", "Binary==="},
    {6, "!==", "Binary!=="},
    {7, "<", "Binary<"},
    {7, ">", "Binary>"},
    {7, "<=", "Binary<="},
    {7, ">=", "Binary>="},
    {7, "in", "Binaryin"},
    {7, "instanceof", "Binaryinstanceof"},
    {8, "<<", "Binary<<"},
    {8, ">>", "Binary>>"},
    {8, ">>>", "Binary>>>"},
    {9, "+", "Binary+"},
    {9, "-", "Binary-"},
    {10, "*", "Binary*"},
    {10, "/", "Binary/"},
    {10, "%", "Binary%"}};
constexpr PrefixOperator JsPrefix[] = {
    {"!", "UnaryPrefix!"},           {"~", "UnaryPrefix~"},
    {"typeof", "UnaryPrefixtypeof"}, {"delete", "UnaryPrefixdelete"},
    {"-", "UnaryPrefix-"},           {"+", "UnaryPrefix+"},
    {"++", "UnaryPrefix++"},         {"--", "UnaryPrefix--"}};
constexpr ChainOperator JsPostfix[] = {{"++", "UnaryPostfix++"},
                                       {"--", "UnaryPostfix--"}};
constexpr ChainOperator JsAssign[] = {
    {"=", "Assign="},   {"+=", "Assign+="}, {"-=", "Assign-="},
    {"*=", "Assign*="}, {"/=", "Assign/="}, {"%=", "Assign%="},
    {"&=", "Assign&="}, {"|=", "Assign|="}, {"^=", "Assign^="}};
constexpr std::string_view JsTerminators[] = {";", ",", ":"};
constexpr std::string_view JsScanPrefixes[] = {"!", "~", "typeof", "delete"};
constexpr OperatorTable JsOperators = {
    .Binary = JsBinary,
    .Prefix = JsPrefix,
    .Postfix = JsPostfix,
    .Assign = JsAssign,
    .Terminators = JsTerminators,
    .ScanPrefixes = JsScanPrefixes,
    .Conditional = {"Conditional", "?", ":", /*MiddleIsExpression=*/true}};

/// Recursive-descent parser for MiniJS, emitting UglifyJS-style nodes.
class JsParser : ExpressionParser<JsParser, JsOperators> {
  friend ExpressionParser;

public:
  JsParser(const std::vector<Token> &Tokens, Diagnostics &Diags,
           StringInterner &Interner)
      : ExpressionParser(Tokens, Diags, Interner) {}

  std::optional<Tree> run() {
    Builder.begin("Toplevel");
    while (!atEnd()) {
      size_t Before = Cursor;
      parseStatement();
      if (Cursor == Before)
        advance(); // Guarantee progress on malformed input.
    }
    Builder.end();
    if (TooDeep)
      return std::nullopt;
    return std::move(Builder).finish();
  }

private:
  ScopeStack Scopes;
  /// Undeclared names that have (so far) only appeared in callee position.
  std::unordered_map<Symbol, ElementId> GlobalCallees;

  //===--------------------------------------------------------------------===//
  // Element resolution
  //===--------------------------------------------------------------------===//

  ElementId declareVar(Symbol Name, ElementKind Kind) {
    ElementId Id = Builder.addElement(Name, Kind, /*Predictable=*/true);
    Scopes.declare(Name, Id);
    return Id;
  }

  /// Resolves a name use. Undeclared names become file-global elements:
  /// callee uses are treated as known external functions, other uses as
  /// predictable (minified) variables.
  ElementId resolveUse(Symbol Name, bool CalleePosition) {
    ElementId Id = Scopes.lookup(Name);
    if (Id != InvalidElement)
      return Id;
    auto It = GlobalCallees.find(Name);
    if (It != GlobalCallees.end())
      return It->second;
    ElementId New =
        CalleePosition
            ? Builder.addElement(Name, ElementKind::Method,
                                 /*Predictable=*/false)
            : Builder.addElement(Name, ElementKind::LocalVar,
                                 /*Predictable=*/true);
    if (CalleePosition)
      GlobalCallees.emplace(Name, New);
    else
      Scopes.declareGlobal(Name, New);
    return New;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  void parseStatement() {
    Nested Level(*this);
    if (!Level)
      return;
    if (at("function")) {
      parseFunctionDecl();
      return;
    }
    if (at("var") || at("let") || at("const")) {
      parseVarStatement();
      accept(";");
      return;
    }
    if (at("if")) {
      parseIf();
      return;
    }
    if (at("while")) {
      parseWhile();
      return;
    }
    if (at("do")) {
      parseDoWhile();
      return;
    }
    if (at("for")) {
      parseFor();
      return;
    }
    if (at("return")) {
      advance();
      Builder.begin("Return");
      if (!at(";") && !at("}") && !atEnd())
        parseSequence();
      Builder.end();
      accept(";");
      return;
    }
    if (at("break")) {
      advance();
      Builder.begin("Break");
      Builder.end();
      accept(";");
      return;
    }
    if (at("continue")) {
      advance();
      Builder.begin("Continue");
      Builder.end();
      accept(";");
      return;
    }
    if (at("throw")) {
      advance();
      Builder.begin("Throw");
      parseSequence();
      Builder.end();
      accept(";");
      return;
    }
    if (at("try")) {
      parseTry();
      return;
    }
    if (at("{")) {
      parseBlock();
      return;
    }
    if (accept(";"))
      return;
    // Expression statement.
    Builder.begin("SimpleStatement");
    parseSequence();
    Builder.end();
    accept(";");
  }

  void parseBlock() {
    expect("{");
    Scopes.push();
    Builder.begin("Block");
    while (!at("}") && !atEnd()) {
      size_t Before = Cursor;
      parseStatement();
      if (Cursor == Before)
        advance();
    }
    Builder.end();
    Scopes.pop();
    expect("}");
  }

  /// Parses a statement body that may or may not be a block, without
  /// introducing a Block node for single statements (UglifyJS-style).
  void parseBody() {
    if (at("{")) {
      parseBlock();
      return;
    }
    parseStatement();
  }

  void parseFunctionDecl() {
    expect("function");
    Token Name = expectIdentifier("function name");
    Symbol NameSym = intern(Name.Text);
    ElementId Fn = Builder.addElement(NameSym, ElementKind::Method,
                                      /*Predictable=*/true);
    Scopes.declare(NameSym, Fn);
    Builder.begin("Defun");
    Builder.terminal(intern("SymbolDefun"), NameSym, Fn);
    Scopes.push();
    parseParamsAndBody();
    Scopes.pop();
    Builder.end();
  }

  void parseParamsAndBody() {
    expect("(");
    while (!at(")") && !atEnd()) {
      Token Param = expectIdentifier("parameter");
      Symbol ParamSym = intern(Param.Text);
      ElementId Id = declareVar(ParamSym, ElementKind::Parameter);
      Builder.terminal(intern("SymbolFunarg"), ParamSym, Id);
      if (!accept(","))
        break;
    }
    expect(")");
    expect("{");
    while (!at("}") && !atEnd()) {
      size_t Before = Cursor;
      parseStatement();
      if (Cursor == Before)
        advance();
    }
    expect("}");
  }

  void parseVarStatement() {
    std::string Kw(advance().Text); // var / let / const.
    Builder.begin(Kw == "const" ? "Const" : (Kw == "let" ? "Let" : "Var"));
    do {
      Builder.begin("VarDef");
      Token Name = expectIdentifier("variable name");
      Symbol NameSym = intern(Name.Text);
      ElementId Id = declareVar(NameSym, ElementKind::LocalVar);
      Builder.terminal(intern("SymbolVar"), NameSym, Id);
      if (accept("="))
        parseExpression();
      Builder.end();
    } while (accept(","));
    Builder.end();
  }

  void parseIf() {
    expect("if");
    Builder.begin("If");
    expect("(");
    parseSequence();
    expect(")");
    parseBody();
    if (accept("else"))
      parseBody();
    Builder.end();
  }

  void parseWhile() {
    expect("while");
    Builder.begin("While");
    expect("(");
    parseSequence();
    expect(")");
    parseBody();
    Builder.end();
  }

  void parseDoWhile() {
    expect("do");
    Builder.begin("Do");
    parseBody();
    expect("while");
    expect("(");
    parseSequence();
    expect(")");
    accept(";");
    Builder.end();
  }

  void parseFor() {
    expect("for");
    expect("(");
    // Distinguish for-in/of from the classic three-clause form.
    size_t Save = Cursor;
    bool IsForIn = false;
    {
      // Lookahead: [var|let|const] ident (in|of).
      if (at("var") || at("let") || at("const"))
        advance();
      if (atKind(TokenKind::Identifier)) {
        advance();
        if (at("in") || at("of"))
          IsForIn = true;
      }
      Cursor = Save;
    }
    if (IsForIn) {
      Builder.begin(peek(1).is("of") || peek(2).is("of") ? "ForOf" : "ForIn");
      Scopes.push();
      bool Declared = at("var") || at("let") || at("const");
      if (Declared)
        advance();
      Token Name = expectIdentifier("loop variable");
      Symbol NameSym = intern(Name.Text);
      if (Declared) {
        ElementId Id = declareVar(NameSym, ElementKind::LocalVar);
        Builder.terminal(intern("SymbolVar"), NameSym, Id);
      } else {
        ElementId Id = resolveUse(NameSym, /*CalleePosition=*/false);
        Builder.terminal(intern("SymbolRef"), NameSym, Id);
      }
      advance(); // in / of.
      parseSequence();
      expect(")");
      parseBody();
      Scopes.pop();
      Builder.end();
      return;
    }
    Builder.begin("For");
    Scopes.push();
    if (!accept(";")) {
      if (at("var") || at("let") || at("const"))
        parseVarStatement();
      else
        parseSequence();
      expect(";");
    }
    if (!accept(";")) {
      parseSequence();
      expect(";");
    }
    if (!at(")"))
      parseSequence();
    expect(")");
    parseBody();
    Scopes.pop();
    Builder.end();
  }

  void parseTry() {
    expect("try");
    Builder.begin("Try");
    parseBlock();
    if (accept("catch")) {
      Builder.begin("Catch");
      Scopes.push();
      if (accept("(")) {
        Token Name = expectIdentifier("catch parameter");
        Symbol NameSym = intern(Name.Text);
        ElementId Id = declareVar(NameSym, ElementKind::Parameter);
        Builder.terminal(intern("SymbolCatch"), NameSym, Id);
        expect(")");
      }
      parseBlock();
      Scopes.pop();
      Builder.end();
    }
    if (accept("finally")) {
      Builder.begin("Finally");
      parseBlock();
      Builder.end();
    }
    Builder.end();
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  /// Comma-separated expressions, flattened into the enclosing node.
  void parseSequence() {
    parseExpression();
    while (accept(","))
      parseExpression();
  }

  /// Parses primary expressions followed by .prop / [index] / (args)
  /// chains. The streaming-builder problem (wrap-after-parse) is solved by
  /// pre-scanning the chain links and opening the wrapper nodes outermost
  /// first.
  void parseCallChain() {
    if (at("new")) {
      // Links after a new-expression attach inside parseNew; treat the
      // whole new-expr as opaque here (no outer links pre-scanned).
      parseNewOrPrimaryWithLinks();
      return;
    }
    // Skip the primary: a name or literal, a bracket group (parenthesised
    // expression, array or object literal), or a function expression
    // `function [name] (params) { body }`; then pre-scan its links.
    size_t I = Cursor;
    if (at("function"))
      I = skipGroup(
          skipGroup(I + (tokenAt(I + 1).is(TokenKind::Identifier) ? 2 : 1)));
    else
      I = skipGroup(I);
    enum LinkKind { DotLink, SubLink, CallLink };
    std::vector<LinkKind> Links;
    while (true) {
      const Token &T = tokenAt(I);
      if (T.is(".")) {
        Links.push_back(DotLink);
        I += 2;
      } else if (T.is("[") || T.is("(")) {
        Links.push_back(T.is("[") ? SubLink : CallLink);
        I = skipGroup(I);
      } else {
        break;
      }
    }

    // Open wrappers outermost-first: the last link is the outermost node.
    for (auto It = Links.rbegin(); It != Links.rend(); ++It) {
      switch (*It) {
      case DotLink:
        Builder.begin("Dot");
        break;
      case SubLink:
        Builder.begin("Sub");
        break;
      case CallLink:
        Builder.begin("Call");
        break;
      }
    }

    bool CalleeNext = !Links.empty() && Links.front() == CallLink;
    parsePrimary(CalleeNext);

    for (LinkKind K : Links) {
      switch (K) {
      case DotLink: {
        expect(".");
        Token Prop = expectIdentifierOrKeyword("property name");
        Builder.terminal(intern("Property"), intern(Prop.Text));
        break;
      }
      case SubLink:
        expect("[");
        parseSequence();
        expect("]");
        break;
      case CallLink:
        expect("(");
        while (!at(")") && !atEnd()) {
          parseExpression();
          if (!accept(","))
            break;
        }
        expect(")");
        break;
      }
      Builder.end();
    }
  }

  Token expectIdentifierOrKeyword(const char *What) {
    if (atKind(TokenKind::Identifier) || atKind(TokenKind::Keyword))
      return advance();
    return expectIdentifier(What);
  }

  void parseNewOrPrimaryWithLinks() {
    expect("new");
    Builder.begin("New");
    // Callee: identifier or dotted name.
    Token Name = expectIdentifier("constructor name");
    ElementId Id = resolveUse(intern(Name.Text), /*CalleePosition=*/true);
    // Dotted constructor names: a.B — emit Dot chains.
    if (at(".")) {
      // Pre-scan dotted links.
      std::vector<Token> Props;
      while (accept(".")) {
        Props.push_back(expectIdentifierOrKeyword("property name"));
      }
      for (size_t I = 0; I < Props.size(); ++I)
        Builder.begin("Dot");
      Builder.terminal(intern("SymbolRef"), intern(Name.Text), Id);
      for (Token &P : Props) {
        Builder.terminal(intern("Property"), intern(P.Text));
        Builder.end();
      }
    } else {
      Builder.terminal(intern("SymbolRef"), intern(Name.Text), Id);
    }
    if (accept("(")) {
      while (!at(")") && !atEnd()) {
        parseExpression();
        if (!accept(","))
          break;
      }
      expect(")");
    }
    Builder.end();
  }

  void parsePrimary(bool CalleePosition) {
    const Token &T = peek();
    if (T.is(TokenKind::Identifier)) {
      advance();
      Symbol NameSym = intern(T.Text);
      ElementId Id = resolveUse(NameSym, CalleePosition);
      Builder.terminal(intern("SymbolRef"), NameSym, Id);
      return;
    }
    if (T.is("this")) {
      advance();
      Builder.begin("This");
      Builder.end();
      return;
    }
    if (T.is(TokenKind::IntLiteral) || T.is(TokenKind::FloatLiteral)) {
      advance();
      Builder.terminal(intern("Num"), intern(T.Text));
      return;
    }
    if (T.is(TokenKind::StringLiteral)) {
      advance();
      Builder.terminal(intern("Str"), intern(T.stringValue()));
      return;
    }
    if (T.is("true")) {
      advance();
      Builder.terminal(intern("True"), intern("true"));
      return;
    }
    if (T.is("false")) {
      advance();
      Builder.terminal(intern("False"), intern("false"));
      return;
    }
    if (T.is("null")) {
      advance();
      Builder.terminal(intern("Null"), intern("null"));
      return;
    }
    if (T.is("undefined")) {
      advance();
      Builder.terminal(intern("Undefined"), intern("undefined"));
      return;
    }
    if (T.is("(")) {
      advance();
      parseSequence();
      expect(")");
      return;
    }
    if (T.is("[")) {
      advance();
      Builder.begin("Array");
      while (!at("]") && !atEnd()) {
        parseExpression();
        if (!accept(","))
          break;
      }
      expect("]");
      Builder.end();
      return;
    }
    if (T.is("{")) {
      advance();
      Builder.begin("Object");
      while (!at("}") && !atEnd()) {
        Builder.begin("ObjectKeyVal");
        Token Key = peek();
        if (Key.is(TokenKind::StringLiteral)) {
          advance();
          Builder.terminal(intern("ObjectKey"), intern(Key.stringValue()));
        } else {
          Token K = expectIdentifierOrKeyword("object key");
          Builder.terminal(intern("ObjectKey"), intern(K.Text));
        }
        expect(":");
        parseExpression();
        Builder.end();
        if (!accept(","))
          break;
      }
      expect("}");
      Builder.end();
      return;
    }
    if (T.is("function")) {
      advance();
      Builder.begin("Function");
      Scopes.push();
      if (atKind(TokenKind::Identifier)) {
        Token Name = advance();
        Symbol NameSym = intern(Name.Text);
        ElementId Id = Builder.addElement(NameSym, ElementKind::Method,
                                          /*Predictable=*/true);
        Scopes.declare(NameSym, Id);
        Builder.terminal(intern("SymbolLambda"), NameSym, Id);
      }
      parseParamsAndBody();
      Scopes.pop();
      Builder.end();
      return;
    }
    if (T.is("new")) {
      parseNewOrPrimaryWithLinks();
      return;
    }
    error(std::string("unexpected token '") + std::string(T.Text) +
          "' in expression");
    advance();
    Builder.terminal(intern("Error"), intern("<error>"));
  }
};

} // namespace

lang::ParseResult js::parse(std::string_view Source,
                            StringInterner &Interner) {
  Diagnostics Diags(Source);
  Lexer Lex(Source, jsLexerConfig(), Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  JsParser Parser(Tokens, Diags, Interner);
  lang::ParseResult Result;
  Result.Tree = Parser.run();
  Result.Diags = Diags.all();
  return Result;
}
