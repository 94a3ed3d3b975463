//===- PyParser.cpp - MiniPy frontend ----------------------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "lang/python/PyParser.h"

#include "lang/common/ExpressionParser.h"
#include "lang/common/Lexer.h"
#include "lang/common/ScopeStack.h"

#include <string>

using namespace pigeon;
using namespace pigeon::lang;
using namespace pigeon::ast;

namespace {

const LexerConfig &pyLexerConfig() {
  static const LexerConfig Config = [] {
    LexerConfig C;
    C.Keywords = {"def",    "class",  "return", "if",     "elif",
                  "else",   "while",  "for",    "in",     "not",
                  "and",    "or",     "True",   "False",  "None",
                  "import", "from",   "as",     "pass",   "break",
                  "continue", "raise", "try",   "except", "finally",
                  "is",     "lambda", "with",   "del",    "global",
                  "print"};
    C.Punctuators = {"**", "//", "==", "!=", "<=", ">=", "+=", "-=", "*=",
                     "/=", "%=", "->", "(",  ")",  "[",  "]",  "{",  "}",
                     ":",  ",",  ".",  "=",  "+",  "-",  "*",  "/",  "%",
                     "<",  ">",  ";",  "@"};
    C.HashComments = true;
    C.SignificantIndentation = true;
    return C;
  }();
  return Config;
}

/// Comparisons chain (`a < b < c`); they left-nest like the other
/// frontends' operators. `**` is left-nested too.
constexpr BinaryOperator PyBinary[] = {
    {1, "or", "BoolOpOr", BinaryOperator::Flat},
    {2, "and", "BoolOpAnd", BinaryOperator::Flat},
    {3, "<", "Compare<"},
    {3, ">", "Compare>"},
    {3, "<=", "Compare<="},
    {3, ">=", "Compare>="},
    {3, "==", "Compare=="},
    {3, "!=", "Compare!="},
    {3, "in", "Comparein"},
    {3, "not in", "Comparenot in"},
    {3, "is not", "Compareis not"},
    {3, "is", "Compareis"},
    {4, "+", "BinOp+"},
    {4, "-", "BinOp-"},
    {5, "*", "BinOp*"},
    {5, "/", "BinOp/"},
    {5, "%", "BinOp%"},
    {5, "//", "BinOp//"},
    {6, "**", "BinOp**"}};
constexpr PrefixOperator PyPrefix[] = {{"not", "UnaryOpNot", 3},
                                       {"-", "UnaryOpUSub"},
                                       {"+", "UnaryOpUAdd"}};
/// Assignments are statements: an expression ends before one.
constexpr std::string_view PyTerminators[] = {";",  ",",  ":",  "=", "+=",
                                              "-=", "*=", "/=", "%="};
constexpr std::string_view PyScanPrefixes[] = {"not", "-", "+"};
constexpr OperatorTable PyOperators = {
    .Binary = PyBinary,
    .Prefix = PyPrefix,
    .Terminators = PyTerminators,
    .ScanPrefixes = PyScanPrefixes,
    .Conditional = {"IfExp", "if", "else", /*MiddleIsExpression=*/false}};

/// Recursive-descent parser for MiniPy over an indentation-token stream.
class PyParser : ExpressionParser<PyParser, PyOperators> {
  friend ExpressionParser;

public:
  PyParser(const std::vector<Token> &Tokens, Diagnostics &Diags,
           StringInterner &Interner)
      : ExpressionParser(Tokens, Diags, Interner) {}

  std::optional<Tree> run() {
    Builder.begin("Module");
    while (!atEnd()) {
      size_t Before = Cursor;
      parseStatement();
      if (Cursor == Before)
        advance();
    }
    Builder.end();
    if (TooDeep)
      return std::nullopt;
    return std::move(Builder).finish();
  }

private:
  ScopeStack Scopes;
  /// Per-class field elements, keyed by (class depth marker) — we track
  /// only the innermost class.
  std::unordered_map<Symbol, ElementId> ClassFields;
  std::unordered_map<Symbol, ElementId> ClassMethods;
  std::unordered_map<Symbol, ElementId> Globals;
  bool InsideClass = false;

  bool atNewline() const { return atKind(TokenKind::Newline); }

  void expectNewline() {
    if (atNewline()) {
      advance();
      return;
    }
    if (!atEnd())
      error("expected end of line");
    skipUntilNewline();
  }

  void skipUntilNewline() {
    while (!atEnd() && !atNewline())
      advance();
    if (atNewline())
      advance();
  }

  //===--------------------------------------------------------------------===//
  // Element resolution
  //===--------------------------------------------------------------------===//

  /// Binding occurrence: declares in the current scope unless bound there
  /// already.
  ElementId bindName(Symbol Name) {
    if (Scopes.declaredInCurrent(Name))
      return Scopes.lookup(Name);
    ElementId Id = Builder.addElement(Name, ElementKind::LocalVar,
                                      /*Predictable=*/true);
    Scopes.declare(Name, Id);
    return Id;
  }

  /// Use occurrence. Unresolved names are known globals (imports or
  /// builtins) — not prediction targets.
  ElementId resolveUse(Symbol Name) {
    ElementId Id = Scopes.lookup(Name);
    if (Id != InvalidElement)
      return Id;
    auto It = Globals.find(Name);
    if (It != Globals.end())
      return It->second;
    ElementId New = Builder.addElement(Name, ElementKind::Unknown,
                                       /*Predictable=*/false);
    Globals.emplace(Name, New);
    return New;
  }

  ElementId fieldElement(Symbol Name) {
    auto It = ClassFields.find(Name);
    if (It != ClassFields.end())
      return It->second;
    ElementId Id =
        Builder.addElement(Name, ElementKind::Field, /*Predictable=*/true);
    ClassFields.emplace(Name, Id);
    return Id;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  void parseStatement() {
    Nested Level(*this);
    if (!Level)
      return;
    // Decorators: skip entirely.
    while (at("@")) {
      skipUntilNewline();
    }
    if (at("def")) {
      parseFunctionDef();
      return;
    }
    if (at("class")) {
      parseClassDef();
      return;
    }
    if (at("if")) {
      parseIf(/*IsElif=*/false);
      return;
    }
    if (at("while")) {
      advance();
      Builder.begin("While");
      parseExpression();
      expect(":");
      parseSuite();
      if (at("else")) {
        advance();
        expect(":");
        Builder.begin("OrElse");
        parseSuite();
        Builder.end();
      }
      Builder.end();
      return;
    }
    if (at("for")) {
      advance();
      Builder.begin("For");
      parseTargetList();
      expect("in");
      parseExpression();
      expect(":");
      parseSuite();
      Builder.end();
      return;
    }
    if (at("try")) {
      parseTry();
      return;
    }
    parseSimpleStatement();
  }

  void parseFunctionDef() {
    expect("def");
    Token Name = expectIdentifier("function name");
    Symbol NameSym = intern(Name.Text);
    ElementId Fn;
    if (InsideClass) {
      auto It = ClassMethods.find(NameSym);
      if (It != ClassMethods.end()) {
        Fn = It->second;
      } else {
        Fn = Builder.addElement(NameSym, ElementKind::Method,
                                /*Predictable=*/true);
        ClassMethods.emplace(NameSym, Fn);
      }
    } else {
      Fn = Builder.addElement(NameSym, ElementKind::Method,
                              /*Predictable=*/true);
      Scopes.declare(NameSym, Fn);
    }
    Builder.begin("FunctionDef");
    Builder.terminal(intern("FunctionName"), NameSym, Fn);
    Scopes.push();
    expect("(");
    Builder.begin("arguments");
    while (!at(")") && !atEnd()) {
      Token Param = expectIdentifier("parameter");
      Symbol ParamSym = intern(Param.Text);
      bool IsSelf = Param.Text == "self" || Param.Text == "cls";
      ElementId Id = Builder.addElement(ParamSym, ElementKind::Parameter,
                                        /*Predictable=*/!IsSelf);
      Scopes.declare(ParamSym, Id);
      Builder.terminal(intern("arg"), ParamSym, Id);
      if (accept("=")) { // Default value.
        Builder.begin("default");
        parseExpression();
        Builder.end();
      }
      if (!accept(","))
        break;
    }
    Builder.end();
    expect(")");
    if (accept("->")) { // Return annotation: consume an expression.
      Builder.begin("returns");
      parseExpression();
      Builder.end();
    }
    expect(":");
    parseSuite();
    Scopes.pop();
    Builder.end();
  }

  void parseClassDef() {
    expect("class");
    Token Name = expectIdentifier("class name");
    Symbol NameSym = intern(Name.Text);
    ElementId Id =
        Builder.addElement(NameSym, ElementKind::Class, /*Predictable=*/false);
    Scopes.declareGlobal(NameSym, Id);
    Builder.begin("ClassDef");
    Builder.terminal(intern("ClassName"), NameSym, Id);
    if (accept("(")) {
      while (!at(")") && !atEnd()) {
        Builder.begin("Base");
        parseExpression();
        Builder.end();
        if (!accept(","))
          break;
      }
      expect(")");
    }
    expect(":");
    bool SavedInsideClass = InsideClass;
    auto SavedFields = std::move(ClassFields);
    auto SavedMethods = std::move(ClassMethods);
    ClassFields.clear();
    ClassMethods.clear();
    InsideClass = true;
    parseSuite();
    InsideClass = SavedInsideClass;
    ClassFields = std::move(SavedFields);
    ClassMethods = std::move(SavedMethods);
    Builder.end();
  }

  void parseIf(bool IsElif) {
    Nested Level(*this); // An elif chain nests If nodes.
    if (!Level)
      return;
    advance(); // if / elif.
    Builder.begin("If");
    parseExpression();
    expect(":");
    parseSuite();
    if (at("elif")) {
      Builder.begin("OrElse");
      parseIf(/*IsElif=*/true);
      Builder.end();
    } else if (at("else")) {
      advance();
      expect(":");
      Builder.begin("OrElse");
      parseSuite();
      Builder.end();
    }
    Builder.end();
    (void)IsElif;
  }

  void parseTry() {
    expect("try");
    expect(":");
    Builder.begin("Try");
    parseSuite();
    while (at("except")) {
      advance();
      Builder.begin("ExceptHandler");
      Scopes.push();
      if (!at(":")) {
        Builder.begin("ExceptType");
        parseExpression();
        Builder.end();
        if (accept("as")) {
          Token Name = expectIdentifier("exception name");
          Symbol NameSym = intern(Name.Text);
          ElementId Id = Builder.addElement(NameSym, ElementKind::Parameter,
                                            /*Predictable=*/true);
          Scopes.declare(NameSym, Id);
          Builder.terminal(intern("ExceptName"), NameSym, Id);
        }
      }
      expect(":");
      parseSuite();
      Scopes.pop();
      Builder.end();
    }
    if (at("finally")) {
      advance();
      expect(":");
      Builder.begin("FinallyBody");
      parseSuite();
      Builder.end();
    }
    if (at("else")) {
      advance();
      expect(":");
      Builder.begin("OrElse");
      parseSuite();
      Builder.end();
    }
    Builder.end();
  }

  /// Parses a suite: inline statements on the same line, or NEWLINE INDENT
  /// statements DEDENT. Wraps the statements in a Body node.
  void parseSuite() {
    Builder.begin("Body");
    if (!atNewline()) {
      // Inline suite: simple statements separated by ';' to end of line.
      parseSimpleStatementLine();
      Builder.end();
      return;
    }
    advance(); // Newline.
    if (!atKind(TokenKind::Indent)) {
      error("expected an indented block");
      Builder.end();
      return;
    }
    advance(); // Indent.
    while (!atKind(TokenKind::Dedent) && !atEnd()) {
      size_t Before = Cursor;
      parseStatement();
      if (Cursor == Before)
        advance();
    }
    if (atKind(TokenKind::Dedent))
      advance();
    Builder.end();
  }

  /// One or more simple statements on a single line, ';'-separated.
  void parseSimpleStatementLine() {
    parseSmallStatement();
    while (accept(";")) {
      if (atNewline() || atEnd())
        break;
      parseSmallStatement();
    }
    expectNewline();
  }

  void parseSimpleStatement() { parseSimpleStatementLine(); }

  void parseSmallStatement() {
    if (at("return")) {
      advance();
      Builder.begin("Return");
      if (!atNewline() && !at(";") && !atEnd())
        parseExpressionList();
      Builder.end();
      return;
    }
    if (at("pass")) {
      advance();
      Builder.begin("Pass");
      Builder.end();
      return;
    }
    if (at("break")) {
      advance();
      Builder.begin("Break");
      Builder.end();
      return;
    }
    if (at("continue")) {
      advance();
      Builder.begin("Continue");
      Builder.end();
      return;
    }
    if (at("raise")) {
      advance();
      Builder.begin("Raise");
      if (!atNewline() && !at(";") && !atEnd())
        parseExpression();
      Builder.end();
      return;
    }
    if (at("import")) {
      advance();
      Builder.begin("Import");
      do {
        std::string Name = parseDottedName();
        Builder.terminal(intern("alias"), intern(Name));
        if (accept("as")) {
          Token Alias = expectIdentifier("import alias");
          Builder.terminal(intern("asname"), intern(Alias.Text));
        }
      } while (accept(","));
      Builder.end();
      expectNewline();
      return;
    }
    if (at("from")) {
      advance();
      Builder.begin("ImportFrom");
      Builder.terminal(intern("module"), intern(parseDottedName()));
      expect("import");
      if (accept("*")) {
        Builder.terminal(intern("alias"), intern("*"));
      } else {
        do {
          Token Name = expectIdentifier("imported name");
          Builder.terminal(intern("alias"), intern(Name.Text));
          if (accept("as")) {
            Token Alias = expectIdentifier("import alias");
            Builder.terminal(intern("asname"), intern(Alias.Text));
          }
        } while (accept(","));
      }
      Builder.end();
      expectNewline();
      return;
    }
    // Assignment / aug-assignment / bare expression.
    parseExprOrAssign();
  }

  std::string parseDottedName() {
    std::string Name(expectIdentifier("module name").Text);
    while (at(".") && peek(1).is(TokenKind::Identifier)) {
      advance();
      Name += '.';
      Name += std::string(advance().Text);
    }
    return Name;
  }

  static bool isAugOp(std::string_view Op) {
    return Op == "+=" || Op == "-=" || Op == "*=" || Op == "/=" || Op == "%=";
  }

  /// Scans to end of line at depth 0 for '=' or an augmented op.
  /// \returns "" (no assignment), "=" or the augmented spelling.
  std::string assignOpAhead() const {
    for (size_t I = Cursor; I < Tokens.size(); I = skipGroup(I)) {
      const Token &T = Tokens[I];
      if (T.is(TokenKind::Newline) || T.is(TokenKind::Eof) || T.is(";"))
        return "";
      if (T.is("=") || (T.is(TokenKind::Punct) && isAugOp(T.Text)))
        return std::string(T.Text);
    }
    return "";
  }

  void parseExprOrAssign() {
    std::string Op = assignOpAhead();
    if (Op.empty()) {
      Builder.begin("Expr");
      parseExpressionList();
      Builder.end();
      return;
    }
    if (Op == "=") {
      Builder.begin("Assign");
      parseTargetList();
      expect("=");
      // Chained assignment a = b = expr: treat each prefix as a target.
      while (assignOpAhead() == "=") {
        parseTargetList();
        expect("=");
      }
      parseExpressionList();
      Builder.end();
      return;
    }
    Builder.begin(std::string("AugAssign") + Op);
    parseTarget();
    expect(Op);
    parseExpressionList();
    Builder.end();
  }

  /// Number of top-level commas before '=' / end of the target list.
  int commasBeforeAssign() const {
    int Commas = 0;
    for (size_t I = Cursor; I < Tokens.size(); I = skipGroup(I)) {
      const Token &T = Tokens[I];
      if (T.is(TokenKind::Newline) || T.is(TokenKind::Eof) || T.is("=") ||
          (T.is(TokenKind::Punct) && isAugOp(T.Text)))
        break;
      if (T.is(","))
        ++Commas;
    }
    return Commas;
  }

  /// Parses assignment targets: one target, or a Tuple of them.
  void parseTargetList() {
    int Commas = commasBeforeAssign();
    if (Commas == 0) {
      parseTarget();
      return;
    }
    Builder.begin("Tuple");
    parseTarget();
    while (accept(",")) {
      if (atAssignBoundary())
        break;
      parseTarget();
    }
    Builder.end();
  }

  bool atAssignBoundary() const {
    return at("=") || atNewline() || atEnd() ||
           (atKind(TokenKind::Punct) && isAugOp(peek().Text));
  }

  /// A single assignment target: Name (binding), self.attr, subscript or
  /// attribute chains.
  void parseTarget() {
    // Pre-scan chain links like the expression parser, but the *base* name
    // binds when there are no links.
    if (atKind(TokenKind::Identifier) && !peek(1).is(".") &&
        !peek(1).is("[") && !peek(1).is("(")) {
      Token Name = advance();
      Symbol NameSym = intern(Name.Text);
      ElementId Id = bindName(NameSym);
      Builder.terminal(intern("Name"), NameSym, Id);
      return;
    }
    // self.attr target: bind as class field.
    parseCallChain();
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  /// expr (',' expr)* — wraps multiple values in Tuple.
  void parseExpressionList() {
    int Commas = commasAhead();
    if (Commas > 0)
      Builder.begin("Tuple");
    parseExpression();
    while (accept(",")) {
      if (atNewline() || atEnd() || at(")") || at("]") || at("}"))
        break;
      parseExpression();
    }
    if (Commas > 0)
      Builder.end();
  }

  /// Number of commas at the cursor's bracket level before the end of the
  /// line or of the enclosing group.
  int commasAhead() const {
    int Commas = 0;
    for (size_t I = Cursor; I < Tokens.size(); I = skipGroup(I)) {
      const Token &T = Tokens[I];
      if (T.closes() || T.is(TokenKind::Newline) || T.is(TokenKind::Eof) ||
          T.is(";"))
        break;
      if (T.is(","))
        ++Commas;
    }
    return Commas;
  }

  /// Primary expression followed by .attr / (args) / [index] links.
  void parseCallChain() {
    // Skip the primary (a token or a bracket group), then pre-scan links.
    enum LinkKind { Attr, CallLink, SubLink };
    std::vector<LinkKind> Links;
    for (size_t I = skipGroup(Cursor);;) {
      const Token &U = tokenAt(I);
      if (U.is(".")) {
        Links.push_back(Attr);
        I += 2;
      } else if (U.is("(") || U.is("[")) {
        Links.push_back(U.is("(") ? CallLink : SubLink);
        I = skipGroup(I);
      } else {
        break;
      }
    }

    for (auto It = Links.rbegin(); It != Links.rend(); ++It) {
      switch (*It) {
      case Attr:
        Builder.begin("Attribute");
        break;
      case CallLink:
        Builder.begin("Call");
        break;
      case SubLink:
        Builder.begin("Subscript");
        break;
      }
    }

    bool BaseIsSelf = at("self");
    bool BaseIsCallee = !Links.empty() && Links.front() == CallLink;
    parseAtom(BaseIsCallee);

    bool FirstLink = true;
    for (LinkKind K : Links) {
      switch (K) {
      case Attr: {
        expect(".");
        Token Name = expectIdentifierOrKeyword();
        Symbol NameSym = intern(Name.Text);
        ElementId Id = InvalidElement;
        // self.attr in a class: link to a field element (a write in
        // target context creates it; reads reuse it).
        if (BaseIsSelf && FirstLink && InsideClass) {
          bool NextIsCall = at("(");
          if (NextIsCall) {
            auto It = ClassMethods.find(NameSym);
            if (It == ClassMethods.end()) {
              ElementId New = Builder.addElement(
                  NameSym, ElementKind::Method, /*Predictable=*/true);
              It = ClassMethods.emplace(NameSym, New).first;
            }
            Id = It->second;
          } else {
            Id = fieldElement(NameSym);
          }
        }
        Builder.terminal(intern("attr"), NameSym, Id);
        break;
      }
      case CallLink: {
        expect("(");
        while (!at(")") && !atEnd()) {
          // Keyword argument: name '=' value.
          if (atKind(TokenKind::Identifier) && peek(1).is("=")) {
            Builder.begin("keyword");
            Token Name = advance();
            Builder.terminal(intern("KeywordArg"), intern(Name.Text));
            expect("=");
            parseExpression();
            Builder.end();
          } else {
            parseExpression();
          }
          if (!accept(","))
            break;
        }
        expect(")");
        break;
      }
      case SubLink: {
        expect("[");
        // Slices: a[1:2] — parse components, Slice node.
        if (sliceAhead()) {
          Builder.begin("Slice");
          if (!at(":"))
            parseExpression();
          expect(":");
          if (!at("]") && !at(":"))
            parseExpression();
          if (accept(":"))
            if (!at("]"))
              parseExpression();
          Builder.end();
        } else {
          parseExpression();
        }
        expect("]");
        break;
      }
      }
      FirstLink = false;
      Builder.end();
    }
  }

  bool sliceAhead() const {
    for (size_t I = Cursor; I < Tokens.size(); I = skipGroup(I)) {
      const Token &T = Tokens[I];
      if (T.is(":"))
        return true;
      if (T.closes() || T.is(TokenKind::Newline) || T.is(TokenKind::Eof))
        return false;
    }
    return false;
  }

  Token expectIdentifierOrKeyword() {
    if (atKind(TokenKind::Identifier) || atKind(TokenKind::Keyword))
      return advance();
    return expectIdentifier("attribute name");
  }

  void parseAtom(bool CalleePosition) {
    const Token &T = peek();
    if (T.is(TokenKind::Identifier)) {
      advance();
      Symbol NameSym = intern(T.Text);
      ElementId Id = Scopes.lookup(NameSym);
      if (Id == InvalidElement) {
        if (CalleePosition) {
          // Unresolved callee: a known external function (len, range,
          // Popen, ...).
          auto It = Globals.find(NameSym);
          if (It == Globals.end()) {
            ElementId New = Builder.addElement(
                NameSym, ElementKind::Method, /*Predictable=*/false);
            It = Globals.emplace(NameSym, New).first;
          }
          Id = It->second;
        } else {
          Id = resolveUse(NameSym);
        }
      }
      Builder.terminal(intern("Name"), NameSym, Id);
      return;
    }
    if (T.is("self")) {
      // `self` lexes as an identifier normally; keep for safety.
      advance();
      Builder.terminal(intern("Name"), intern("self"));
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
    if (T.is("True") || T.is("False") || T.is("None")) {
      advance();
      Builder.terminal(intern("NameConstant"), intern(T.Text));
      return;
    }
    if (T.is("print")) {
      // Python 3: print is just a builtin function name.
      advance();
      Builder.terminal(intern("Name"), intern("print"));
      return;
    }
    if (T.is("(")) {
      advance();
      // Tuple or parenthesised expression.
      if (at(")")) {
        advance();
        Builder.begin("Tuple");
        Builder.end();
        return;
      }
      int Commas = commasAhead();
      if (Commas > 0)
        Builder.begin("Tuple");
      parseExpression();
      while (accept(",")) {
        if (at(")"))
          break;
        parseExpression();
      }
      if (Commas > 0)
        Builder.end();
      expect(")");
      return;
    }
    if (T.is("[")) {
      advance();
      Builder.begin("List");
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
      Builder.begin("Dict");
      while (!at("}") && !atEnd()) {
        Builder.begin("DictItem");
        parseExpression();
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
    error(std::string("unexpected token '") + std::string(T.Text) +
          "' in expression");
    advance();
    Builder.terminal(intern("Error"), intern("<error>"));
  }
};

} // namespace

lang::ParseResult py::parse(std::string_view Source,
                            StringInterner &Interner) {
  Diagnostics Diags(Source);
  Lexer Lex(Source, pyLexerConfig(), Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  PyParser Parser(Tokens, Diags, Interner);
  lang::ParseResult Result;
  Result.Tree = Parser.run();
  Result.Diags = Diags.all();
  return Result;
}
