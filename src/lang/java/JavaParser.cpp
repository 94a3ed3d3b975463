//===- JavaParser.cpp - MiniJava frontend ------------------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "lang/java/JavaParser.h"

#include "lang/common/ExpressionParser.h"
#include "lang/common/Lexer.h"
#include "lang/common/ScopeStack.h"

#include <string>

using namespace pigeon;
using namespace pigeon::lang;
using namespace pigeon::ast;

namespace {

const LexerConfig &javaLexerConfig() {
  static const LexerConfig Config = [] {
    LexerConfig C;
    C.Keywords = {"package",  "import",     "class",   "interface",
                  "extends",  "implements", "public",  "private",
                  "protected", "static",    "final",   "void",
                  "int",      "long",       "double",  "float",
                  "boolean",  "char",       "byte",    "short",
                  "if",       "else",       "while",   "do",
                  "for",      "return",     "break",   "continue",
                  "new",      "this",       "super",   "true",
                  "false",    "null",       "try",     "catch",
                  "finally",  "throw",      "throws",  "instanceof",
                  "abstract", "synchronized"};
    C.Punctuators = {"==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=",
                     "-=", "*=", "/=", "%=", "(",  ")",  "{",  "}",  "[",
                     "]",  ";",  ",",  ".",  ":",  "?",  "=",  "+",  "-",
                     "*",  "/",  "%",  "<",  ">",  "!",  "&",  "|",  "^",
                     "~",  "@"};
    C.SlashSlashComments = true;
    C.SlashStarComments = true;
    C.SingleQuoteStrings = true; // Char literals lex as short strings.
    return C;
  }();
  return Config;
}

bool isModifier(std::string_view S) {
  return S == "public" || S == "private" || S == "protected" ||
         S == "static" || S == "final" || S == "abstract" ||
         S == "synchronized";
}

constexpr BinaryOperator JavaBinary[] = {
    {1, "||", "BinaryExpr||"},
    {2, "&&", "BinaryExpr&&"},
    {3, "|", "BinaryExpr|"},
    {4, "^", "BinaryExpr^"},
    {5, "&", "BinaryExpr&"},
    {6, "==", "BinaryExpr=="},
    {6, "!=", "BinaryExpr!="},
    {7, "<", "BinaryExpr<"},
    {7, ">", "BinaryExpr>"},
    {7, "<=", "BinaryExpr<="},
    {7, ">=", "BinaryExpr>="},
    {7, "instanceof", "InstanceOfExpr", BinaryOperator::TypeOperand},
    {8, "+", "BinaryExpr+"},
    {8, "-", "BinaryExpr-"},
    {9, "*", "BinaryExpr*"},
    {9, "/", "BinaryExpr/"},
    {9, "%", "BinaryExpr%"}};
constexpr PrefixOperator JavaPrefix[] = {
    {"!", "UnaryExpr!"}, {"~", "UnaryExpr~"},   {"-", "UnaryExpr-"},
    {"+", "UnaryExpr+"}, {"++", "UnaryExpr++"}, {"--", "UnaryExpr--"}};
constexpr ChainOperator JavaPostfix[] = {{"++", "UnaryExprPostfix++"},
                                         {"--", "UnaryExprPostfix--"}};
constexpr ChainOperator JavaAssign[] = {
    {"=", "Assign="},   {"+=", "Assign+="}, {"-=", "Assign-="},
    {"*=", "Assign*="}, {"/=", "Assign/="}, {"%=", "Assign%="}};
constexpr std::string_view JavaTerminators[] = {";", ",", ":"};
constexpr std::string_view JavaScanPrefixes[] = {"!", "~"};
constexpr OperatorTable JavaOperators = {
    .Binary = JavaBinary,
    .Prefix = JavaPrefix,
    .Postfix = JavaPostfix,
    .Assign = JavaAssign,
    .Terminators = JavaTerminators,
    .ScanPrefixes = JavaScanPrefixes,
    .Conditional = {"ConditionalExpr", "?", ":", /*MiddleIsExpression=*/true},
    .CastKind = "CastExpr"};

/// Recursive-descent parser for MiniJava.
class JavaParser : ExpressionParser<JavaParser, JavaOperators> {
  friend ExpressionParser;

public:
  JavaParser(const std::vector<Token> &Tokens, Diagnostics &Diags,
             StringInterner &Interner)
      : ExpressionParser(Tokens, Diags, Interner) {}

  std::optional<Tree> run() {
    Builder.begin("CompilationUnit");
    if (at("package")) {
      advance();
      Builder.begin("PackageDeclaration");
      Builder.terminal(intern("Name"), intern(parseDottedName()));
      Builder.end();
      expect(";");
    }
    while (at("import")) {
      advance();
      Builder.begin("ImportDeclaration");
      Builder.terminal(intern("Name"), intern(parseDottedName()));
      Builder.end();
      expect(";");
    }
    while (!atEnd()) {
      size_t Before = Cursor;
      skipModifiersAndAnnotations();
      if (at("class") || at("interface"))
        parseClass();
      else if (!atEnd()) {
        error("expected class declaration");
        advance();
      }
      if (Cursor == Before && !atEnd())
        advance();
    }
    Builder.end();
    if (TooDeep)
      return std::nullopt;
    return std::move(Builder).finish();
  }

private:
  ScopeStack Scopes;
  /// Field and method elements of the enclosing class, for `this.x` and
  /// unqualified-call resolution.
  std::unordered_map<Symbol, ElementId> ClassFields;
  std::unordered_map<Symbol, ElementId> ClassMethods;

  void skipModifiersAndAnnotations() {
    while (true) {
      if (at("@")) {
        advance();
        if (atKind(TokenKind::Identifier))
          advance();
        if (at("("))
          Cursor = skipGroup(Cursor);
        continue;
      }
      if (atKind(TokenKind::Keyword) && isModifier(peek().Text)) {
        advance();
        continue;
      }
      return;
    }
  }

  std::string parseDottedName() {
    std::string Name(expectIdentifier("name").Text);
    while (at(".") && (peek(1).is(TokenKind::Identifier) || peek(1).is("*"))) {
      advance();
      Name += '.';
      if (accept("*")) {
        Name += '*';
        break;
      }
      Name += std::string(advance().Text);
    }
    return Name;
  }

  //===--------------------------------------------------------------------===//
  // Types
  //===--------------------------------------------------------------------===//

  /// The primitive types and void.
  static bool isTypeKeyword(std::string_view S) {
    return S == "int" || S == "long" || S == "double" || S == "float" ||
           S == "boolean" || S == "char" || S == "byte" || S == "short" ||
           S == "void";
  }

  /// True if the tokens starting at \p I spell a type; sets \p End to one
  /// past the type. Types: primitive | dotted name [generic args], then
  /// zero or more "[]" pairs.
  bool scanType(size_t I, size_t &End) const {
    auto Tok = [&](size_t J) -> const Token & {
      return J < Tokens.size() ? Tokens[J] : Tokens.back();
    };
    if (Tok(I).is(TokenKind::Keyword) && isTypeKeyword(Tok(I).Text)) {
      ++I;
    } else if (Tok(I).is(TokenKind::Identifier)) {
      ++I;
      while (Tok(I).is(".") && Tok(I + 1).is(TokenKind::Identifier))
        I += 2;
      if (Tok(I).is("<")) {
        int Depth = 0;
        size_t J = I;
        while (J < Tokens.size()) {
          const Token &T = Tok(J);
          if (T.is("<"))
            ++Depth;
          else if (T.is(">")) {
            --Depth;
            if (Depth == 0) {
              ++J;
              break;
            }
          } else if (!(T.is(TokenKind::Identifier) || T.is(",") || T.is(".") ||
                       T.is("[") || T.is("]") || T.is("?") ||
                       (T.is(TokenKind::Keyword) &&
                        isTypeKeyword(T.Text))))
            return false;
          ++J;
        }
        if (Depth != 0)
          return false;
        I = J;
      }
    } else {
      return false;
    }
    while (Tok(I).is("[") && Tok(I + 1).is("]"))
      I += 2;
    End = I;
    return true;
  }

  /// Parses a type, emitting PrimitiveType / ClassOrInterfaceType /
  /// ArrayType nodes. \returns false (after diagnosing) on malformed input.
  void parseType() {
    Nested Level(*this); // Generic arguments nest types.
    if (!Level)
      return;
    // Count trailing "[]" pairs first so ArrayType wrappers can open
    // outermost-first.
    size_t End = Cursor;
    int ArrayDims = 0;
    if (scanType(Cursor, End)) {
      size_t J = End;
      while (J >= 2 && Tokens[J - 1].is("]") && Tokens[J - 2].is("[")) {
        ++ArrayDims;
        J -= 2;
      }
    }
    for (int I = 0; I < ArrayDims; ++I)
      Builder.begin("ArrayType");
    parseNonArrayType();
    for (int I = 0; I < ArrayDims; ++I) {
      expect("[");
      expect("]");
      Builder.end();
    }
  }

  void parseNonArrayType() {
    if (atKind(TokenKind::Keyword) && isTypeKeyword(peek().Text)) {
      Token T = advance();
      Builder.terminal(intern("PrimitiveType"), intern(T.Text));
      return;
    }
    Builder.begin("ClassOrInterfaceType");
    Builder.terminal(intern("TypeName"), intern(parseDottedName()));
    if (accept("<")) {
      if (!accept(">")) { // Diamond <> has no args.
        do {
          Builder.begin("TypeArg");
          if (accept("?"))
            Builder.terminal(intern("Wildcard"), intern("?"));
          else
            parseType();
          Builder.end();
        } while (accept(","));
        expect(">");
      }
    }
    Builder.end();
  }

  /// Renders the type starting at the cursor as a flat string (without
  /// consuming it). Used for recording nothing here; kept for symmetry.
  //===--------------------------------------------------------------------===//
  // Declarations
  //===--------------------------------------------------------------------===//

  void parseClass() {
    bool IsInterface = at("interface");
    advance(); // class / interface.
    Token Name = expectIdentifier("class name");
    Symbol NameSym = intern(Name.Text);
    ElementId ClassElem =
        Builder.addElement(NameSym, ElementKind::Class, /*Predictable=*/false);
    Scopes.declareGlobal(NameSym, ClassElem);
    Builder.begin(IsInterface ? "InterfaceDeclaration"
                              : "ClassOrInterfaceDeclaration");
    Builder.terminal(intern("SimpleName"), NameSym, ClassElem);
    if (accept("extends")) {
      Builder.begin("ExtendedType");
      parseNonArrayType();
      Builder.end();
    }
    if (accept("implements")) {
      do {
        Builder.begin("ImplementedType");
        parseNonArrayType();
        Builder.end();
      } while (accept(","));
    }
    expect("{");
    ClassFields.clear();
    ClassMethods.clear();
    // Pre-scan member names so forward references resolve: collect field
    // and method names at this brace depth.
    prescanMembers(Name.Text);
    Scopes.push();
    while (!at("}") && !atEnd()) {
      size_t Before = Cursor;
      parseMember(Name.Text);
      if (Cursor == Before)
        advance();
    }
    Scopes.pop();
    expect("}");
    Builder.end();
  }

  /// Registers elements for every field and method of the class before
  /// parsing bodies, so that uses preceding declarations link correctly.
  void prescanMembers(std::string_view ClassName) {
    size_t I = Cursor;
    auto Tok = [&](size_t J) -> const Token & {
      return J < Tokens.size() ? Tokens[J] : Tokens.back();
    };
    // Walk the class body token by token at brace depth 1; member bodies
    // and initializer blocks are skipped whole.
    while (!Tok(I).is("}") && !Tok(I).is(TokenKind::Eof)) {
      if (Tok(I).is("{")) {
        I = skipGroup(I);
        continue;
      }
      // At member level: skip modifiers, then try `Type name (` = method,
      // `Type name [=;,]` = field, `ClassName (` = constructor.
      size_t J = I;
      while (Tok(J).is(TokenKind::Keyword) && isModifier(Tok(J).Text))
        ++J;
      size_t AfterType = J;
      if (Tok(J).is(TokenKind::Identifier) && Tok(J).Text == ClassName &&
          Tok(J + 1).is("(")) {
        I = J + 1;
        continue; // Constructor; no element needed here.
      }
      if (scanType(J, AfterType) && Tok(AfterType).is(TokenKind::Identifier)) {
        Symbol Name = intern(Tok(AfterType).Text);
        if (Tok(AfterType + 1).is("(")) {
          if (!ClassMethods.count(Name)) {
            ElementId Id = Builder.addElement(Name, ElementKind::Method,
                                              /*Predictable=*/true);
            ClassMethods.emplace(Name, Id);
          }
          I = AfterType + 1;
          continue;
        }
        if (Tok(AfterType + 1).is("=") || Tok(AfterType + 1).is(";") ||
            Tok(AfterType + 1).is(",")) {
          if (!ClassFields.count(Name)) {
            ElementId Id = Builder.addElement(Name, ElementKind::Field,
                                              /*Predictable=*/true);
            ClassFields.emplace(Name, Id);
          }
          I = AfterType + 1;
          continue;
        }
      }
      ++I;
    }
  }

  void parseMember(std::string_view ClassName) {
    skipModifiersAndAnnotations();
    if (at("}"))
      return;
    // Constructor?
    if (atKind(TokenKind::Identifier) && peek().Text == ClassName &&
        peek(1).is("(")) {
      Token Name = advance();
      Builder.begin("ConstructorDeclaration");
      Builder.terminal(intern("SimpleName"), intern(Name.Text));
      Scopes.push();
      parseParams();
      skipThrows();
      parseBlock();
      Scopes.pop();
      Builder.end();
      return;
    }
    // Method or field: Type name ...
    size_t AfterType = Cursor;
    if (!scanType(Cursor, AfterType)) {
      error("expected member declaration");
      skipUntil({";", "}"});
      accept(";");
      return;
    }
    size_t NameIdx = AfterType;
    bool IsMethod = NameIdx < Tokens.size() &&
                    Tokens[NameIdx].is(TokenKind::Identifier) &&
                    NameIdx + 1 < Tokens.size() && Tokens[NameIdx + 1].is("(");
    if (IsMethod) {
      Builder.begin("MethodDeclaration");
      parseType();
      Token Name = expectIdentifier("method name");
      Symbol NameSym = intern(Name.Text);
      ElementId Id;
      auto It = ClassMethods.find(NameSym);
      if (It != ClassMethods.end()) {
        Id = It->second;
      } else {
        Id = Builder.addElement(NameSym, ElementKind::Method,
                                /*Predictable=*/true);
        ClassMethods.emplace(NameSym, Id);
      }
      Builder.terminal(intern("SimpleName"), NameSym, Id);
      Scopes.push();
      parseParams();
      skipThrows();
      if (accept(";")) { // Abstract/interface method.
        Scopes.pop();
        Builder.end();
        return;
      }
      parseBlock();
      Scopes.pop();
      Builder.end();
      return;
    }
    // Field declaration.
    Builder.begin("FieldDeclaration");
    parseType();
    do {
      Builder.begin("VariableDeclarator");
      Token Name = expectIdentifier("field name");
      Symbol NameSym = intern(Name.Text);
      ElementId Id;
      auto It = ClassFields.find(NameSym);
      if (It != ClassFields.end()) {
        Id = It->second;
      } else {
        Id = Builder.addElement(NameSym, ElementKind::Field,
                                /*Predictable=*/true);
        ClassFields.emplace(NameSym, Id);
      }
      Builder.terminal(intern("SimpleName"), NameSym, Id);
      if (accept("="))
        parseExpression();
      Builder.end();
    } while (accept(","));
    expect(";");
    Builder.end();
  }

  void parseParams() {
    expect("(");
    Builder.begin("Parameters");
    while (!at(")") && !atEnd()) {
      Builder.begin("Parameter");
      parseType();
      Token Name = expectIdentifier("parameter name");
      Symbol NameSym = intern(Name.Text);
      ElementId Id = Builder.addElement(NameSym, ElementKind::Parameter,
                                        /*Predictable=*/true);
      Scopes.declare(NameSym, Id);
      Builder.terminal(intern("SimpleName"), NameSym, Id);
      Builder.end();
      if (!accept(","))
        break;
    }
    Builder.end();
    expect(")");
  }

  void skipThrows() {
    if (accept("throws")) {
      do {
        parseDottedName();
      } while (accept(","));
    }
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  void parseBlock() {
    expect("{");
    Scopes.push();
    Builder.begin("BlockStmt");
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

  void parseStatement() {
    Nested Level(*this);
    if (!Level)
      return;
    if (at("{")) {
      parseBlock();
      return;
    }
    if (at("if")) {
      advance();
      Builder.begin("IfStmt");
      expect("(");
      parseExpression();
      expect(")");
      parseStatement();
      if (accept("else"))
        parseStatement();
      Builder.end();
      return;
    }
    if (at("while")) {
      advance();
      Builder.begin("WhileStmt");
      expect("(");
      parseExpression();
      expect(")");
      parseStatement();
      Builder.end();
      return;
    }
    if (at("do")) {
      advance();
      Builder.begin("DoStmt");
      parseStatement();
      expect("while");
      expect("(");
      parseExpression();
      expect(")");
      accept(";");
      Builder.end();
      return;
    }
    if (at("for")) {
      parseFor();
      return;
    }
    if (at("return")) {
      advance();
      Builder.begin("ReturnStmt");
      if (!at(";"))
        parseExpression();
      Builder.end();
      expect(";");
      return;
    }
    if (at("break")) {
      advance();
      Builder.begin("BreakStmt");
      Builder.end();
      accept(";");
      return;
    }
    if (at("continue")) {
      advance();
      Builder.begin("ContinueStmt");
      Builder.end();
      accept(";");
      return;
    }
    if (at("throw")) {
      advance();
      Builder.begin("ThrowStmt");
      parseExpression();
      Builder.end();
      expect(";");
      return;
    }
    if (at("try")) {
      advance();
      Builder.begin("TryStmt");
      parseBlock();
      while (at("catch")) {
        advance();
        Builder.begin("CatchClause");
        Scopes.push();
        expect("(");
        Builder.begin("Parameter");
        parseType();
        Token Name = expectIdentifier("catch parameter");
        Symbol NameSym = intern(Name.Text);
        ElementId Id = Builder.addElement(NameSym, ElementKind::Parameter,
                                          /*Predictable=*/true);
        Scopes.declare(NameSym, Id);
        Builder.terminal(intern("SimpleName"), NameSym, Id);
        Builder.end();
        expect(")");
        parseBlock();
        Scopes.pop();
        Builder.end();
      }
      if (accept("finally")) {
        Builder.begin("FinallyBlock");
        parseBlock();
        Builder.end();
      }
      Builder.end();
      return;
    }
    if (accept(";"))
      return;
    // Local variable declaration?
    if (isLocalDeclAhead()) {
      Builder.begin("ExpressionStmt");
      parseVarDecl();
      Builder.end();
      expect(";");
      return;
    }
    Builder.begin("ExpressionStmt");
    parseExpression();
    Builder.end();
    expect(";");
  }

  bool isLocalDeclAhead() const {
    size_t End = Cursor;
    if (!scanType(Cursor, End))
      return false;
    return End < Tokens.size() && Tokens[End].is(TokenKind::Identifier) &&
           (Tokens[End + 1].is("=") || Tokens[End + 1].is(";") ||
            Tokens[End + 1].is(",") || Tokens[End + 1].is(":"));
  }

  /// Parses `Type a = e, b;` into VariableDeclarationExpr.
  void parseVarDecl() {
    Builder.begin("VariableDeclarationExpr");
    parseType();
    do {
      Builder.begin("VariableDeclarator");
      Token Name = expectIdentifier("variable name");
      Symbol NameSym = intern(Name.Text);
      ElementId Id = Builder.addElement(NameSym, ElementKind::LocalVar,
                                        /*Predictable=*/true);
      Scopes.declare(NameSym, Id);
      Builder.terminal(intern("SimpleName"), NameSym, Id);
      if (accept("="))
        parseExpression();
      Builder.end();
    } while (accept(","));
    Builder.end();
  }

  void parseFor() {
    expect("for");
    expect("(");
    // Foreach: Type name : expr.
    {
      size_t End = Cursor;
      if (scanType(Cursor, End) && End < Tokens.size() &&
          Tokens[End].is(TokenKind::Identifier) && End + 1 < Tokens.size() &&
          Tokens[End + 1].is(":")) {
        Builder.begin("ForEachStmt");
        Scopes.push();
        Builder.begin("VariableDeclarationExpr");
        parseType();
        Builder.begin("VariableDeclarator");
        Token Name = expectIdentifier("loop variable");
        Symbol NameSym = intern(Name.Text);
        ElementId Id = Builder.addElement(NameSym, ElementKind::LocalVar,
                                          /*Predictable=*/true);
        Scopes.declare(NameSym, Id);
        Builder.terminal(intern("SimpleName"), NameSym, Id);
        Builder.end();
        Builder.end();
        expect(":");
        parseExpression();
        expect(")");
        parseStatement();
        Scopes.pop();
        Builder.end();
        return;
      }
    }
    Builder.begin("ForStmt");
    Scopes.push();
    if (!accept(";")) {
      if (isLocalDeclAhead())
        parseVarDecl();
      else
        parseExpression();
      expect(";");
    }
    if (!accept(";")) {
      parseExpression();
      expect(";");
    }
    if (!at(")"))
      parseExpression();
    expect(")");
    parseStatement();
    Scopes.pop();
    Builder.end();
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  /// Parses a primary followed by member/call/index links, fusing `.name(`
  /// into MethodCallExpr and `.name` into FieldAccessExpr (JavaParser
  /// style). Wrapper nodes open outermost-first via pre-scan.
  void parseCallChain() {
    // Skip the primary: `new T(args)`, `new T[n]...`, a bare call
    // `name(args)`, a parenthesised expression or a single token.
    bool PrimaryIsBareCall = false;
    size_t I = Cursor;
    if (at("new")) {
      size_t End = ++I;
      if (scanType(I, End))
        I = End;
      if (tokenAt(I).is("("))
        I = skipGroup(I);
      else
        while (tokenAt(I).is("["))
          I = skipGroup(I);
    } else if (atKind(TokenKind::Identifier) && peek(1).is("(")) {
      PrimaryIsBareCall = true;
      I = skipGroup(I + 1);
    } else {
      I = skipGroup(I);
    }
    enum LinkKind { DotCall, DotField, Sub };
    std::vector<LinkKind> Links;
    while (true) {
      if (tokenAt(I).is(".")) {
        bool Call = tokenAt(I + 2).is("(");
        Links.push_back(Call ? DotCall : DotField);
        I = Call ? skipGroup(I + 2) : I + 2;
      } else if (tokenAt(I).is("[")) {
        Links.push_back(Sub);
        I = skipGroup(I);
      } else {
        break;
      }
    }

    for (auto It = Links.rbegin(); It != Links.rend(); ++It) {
      switch (*It) {
      case DotCall:
        Builder.begin("MethodCallExpr");
        break;
      case DotField:
        Builder.begin("FieldAccessExpr");
        break;
      case Sub:
        Builder.begin("ArrayAccessExpr");
        break;
      }
    }

    bool PrimaryIsThis = at("this");
    parsePrimary(PrimaryIsBareCall);

    bool FirstLink = true;
    for (LinkKind K : Links) {
      switch (K) {
      case DotCall: {
        expect(".");
        Token Name = expectIdentifier("method name");
        Symbol NameSym = intern(Name.Text);
        // `this.helper()` resolves to the class method element.
        ElementId Id = InvalidElement;
        if (PrimaryIsThis && FirstLink) {
          auto It = ClassMethods.find(NameSym);
          if (It != ClassMethods.end())
            Id = It->second;
        }
        Builder.terminal(intern("SimpleName"), NameSym, Id);
        parseArguments();
        break;
      }
      case DotField: {
        expect(".");
        Token Name = expectIdentifier("field name");
        Symbol NameSym = intern(Name.Text);
        // `this.x` resolves to the class field element.
        ElementId Id = InvalidElement;
        if (PrimaryIsThis && FirstLink) {
          auto It = ClassFields.find(NameSym);
          if (It != ClassFields.end())
            Id = It->second;
        }
        Builder.terminal(intern("SimpleName"), NameSym, Id);
        break;
      }
      case Sub:
        expect("[");
        parseExpression();
        expect("]");
        break;
      }
      FirstLink = false;
      Builder.end();
    }
  }

  void parseArguments() {
    expect("(");
    Builder.begin("Arguments");
    while (!at(")") && !atEnd()) {
      parseExpression();
      if (!accept(","))
        break;
    }
    Builder.end();
    expect(")");
  }

  void parsePrimary(bool BareCall) {
    const Token &T = peek();
    if (BareCall) {
      Builder.begin("MethodCallExpr");
      Token Name = expectIdentifier("method name");
      Symbol NameSym = intern(Name.Text);
      ElementId Id = InvalidElement;
      auto It = ClassMethods.find(NameSym);
      if (It != ClassMethods.end())
        Id = It->second;
      Builder.terminal(intern("SimpleName"), NameSym, Id);
      parseArguments();
      Builder.end();
      return;
    }
    if (T.is(TokenKind::Identifier)) {
      advance();
      Symbol NameSym = intern(T.Text);
      Builder.begin("NameExpr");
      ElementId Id = Scopes.lookup(NameSym);
      if (Id == InvalidElement) {
        auto It = ClassFields.find(NameSym);
        if (It != ClassFields.end())
          Id = It->second;
      }
      Builder.terminal(intern("SimpleName"), NameSym, Id);
      Builder.end();
      return;
    }
    if (T.is("this")) {
      advance();
      // `this.field` is handled by the chain; a ThisExpr leaf stands in
      // for the receiver.
      Builder.begin("ThisExpr");
      Builder.end();
      return;
    }
    if (T.is(TokenKind::IntLiteral)) {
      advance();
      Builder.terminal(intern("IntegerLiteralExpr"), intern(T.Text));
      return;
    }
    if (T.is(TokenKind::FloatLiteral)) {
      advance();
      Builder.terminal(intern("DoubleLiteralExpr"), intern(T.Text));
      return;
    }
    if (T.is(TokenKind::StringLiteral)) {
      advance();
      if (T.Text.size() >= 2 && T.Text[0] == '\'')
        Builder.terminal(intern("CharLiteralExpr"), intern(T.stringValue()));
      else
        Builder.terminal(intern("StringLiteralExpr"),
                         intern(T.stringValue()));
      return;
    }
    if (T.is("true") || T.is("false")) {
      advance();
      Builder.terminal(intern("BooleanLiteralExpr"), intern(T.Text));
      return;
    }
    if (T.is("null")) {
      advance();
      Builder.terminal(intern("NullLiteralExpr"), intern("null"));
      return;
    }
    if (T.is("(")) {
      advance();
      parseExpression();
      expect(")");
      return;
    }
    if (T.is("new")) {
      advance();
      // Object creation or array creation.
      size_t End = Cursor;
      bool HaveType = scanType(Cursor, End);
      bool IsArray = HaveType && End < Tokens.size() && Tokens[End].is("[");
      if (IsArray) {
        Builder.begin("ArrayCreationExpr");
        parseType();
        while (accept("[")) {
          if (!at("]"))
            parseExpression();
          expect("]");
        }
        Builder.end();
        return;
      }
      Builder.begin("ObjectCreationExpr");
      parseNonArrayType();
      if (at("("))
        parseArguments();
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

lang::ParseResult java::parse(std::string_view Source,
                              StringInterner &Interner) {
  Diagnostics Diags(Source);
  Lexer Lex(Source, javaLexerConfig(), Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  JavaParser Parser(Tokens, Diags, Interner);
  lang::ParseResult Result;
  Result.Tree = Parser.run();
  Result.Diags = Diags.all();
  return Result;
}
