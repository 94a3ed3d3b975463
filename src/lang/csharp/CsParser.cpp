//===- CsParser.cpp - MiniC# frontend -----------------------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "lang/csharp/CsParser.h"

#include "lang/common/ExpressionParser.h"
#include "lang/common/Lexer.h"
#include "lang/common/ScopeStack.h"

#include <string>

using namespace pigeon;
using namespace pigeon::lang;
using namespace pigeon::ast;

namespace {

const LexerConfig &csLexerConfig() {
  static const LexerConfig Config = [] {
    LexerConfig C;
    C.Keywords = {"namespace", "using",   "class",    "interface",
                  "public",    "private", "protected", "internal",
                  "static",    "readonly", "const",   "void",
                  "int",       "long",    "double",   "float",
                  "bool",      "string",  "char",     "byte",
                  "object",    "var",     "if",       "else",
                  "while",     "do",      "for",      "foreach",
                  "in",        "return",  "break",    "continue",
                  "new",       "this",    "base",     "true",
                  "false",     "null",    "try",      "catch",
                  "finally",   "throw",   "is",       "as",
                  "get",       "set",     "override", "virtual",
                  "sealed",    "abstract"};
    C.Punctuators = {"==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=",
                     "-=", "*=", "/=", "%=", "=>", "??", "(",  ")",  "{",
                     "}",  "[",  "]",  ";",  ",",  ".",  ":",  "?",  "=",
                     "+",  "-",  "*",  "/",  "%",  "<",  ">",  "!",  "&",
                     "|",  "^",  "~",  "@"};
    C.SlashSlashComments = true;
    C.SlashStarComments = true;
    return C;
  }();
  return Config;
}

bool isCsModifier(std::string_view S) {
  return S == "public" || S == "private" || S == "protected" ||
         S == "internal" || S == "static" || S == "readonly" ||
         S == "const" || S == "override" || S == "virtual" ||
         S == "sealed" || S == "abstract";
}

constexpr BinaryOperator CsBinary[] = {
    {1, "??", "BinaryExpression??"},
    {1, "||", "BinaryExpression||"},
    {2, "&&", "BinaryExpression&&"},
    {3, "|", "BinaryExpression|"},
    {4, "^", "BinaryExpression^"},
    {5, "&", "BinaryExpression&"},
    {6, "==", "BinaryExpression=="},
    {6, "!=", "BinaryExpression!="},
    {7, "<", "BinaryExpression<"},
    {7, ">", "BinaryExpression>"},
    {7, "<=", "BinaryExpression<="},
    {7, ">=", "BinaryExpression>="},
    {7, "is", "IsExpression", BinaryOperator::TypeOperand},
    {7, "as", "AsExpression", BinaryOperator::TypeOperand},
    {8, "+", "BinaryExpression+"},
    {8, "-", "BinaryExpression-"},
    {9, "*", "BinaryExpression*"},
    {9, "/", "BinaryExpression/"},
    {9, "%", "BinaryExpression%"}};
constexpr PrefixOperator CsPrefix[] = {
    {"!", "PrefixUnaryExpression!"},   {"~", "PrefixUnaryExpression~"},
    {"-", "PrefixUnaryExpression-"},   {"+", "PrefixUnaryExpression+"},
    {"++", "PrefixUnaryExpression++"}, {"--", "PrefixUnaryExpression--"}};
constexpr ChainOperator CsPostfix[] = {{"++", "PostfixUnaryExpression++"},
                                       {"--", "PostfixUnaryExpression--"}};
constexpr ChainOperator CsAssign[] = {{"=", "AssignmentExpression="},
                                      {"+=", "AssignmentExpression+="},
                                      {"-=", "AssignmentExpression-="},
                                      {"*=", "AssignmentExpression*="},
                                      {"/=", "AssignmentExpression/="},
                                      {"%=", "AssignmentExpression%="}};
constexpr std::string_view CsTerminators[] = {";", ",", ":"};
constexpr std::string_view CsScanPrefixes[] = {"!", "~"};
constexpr OperatorTable CsOperators = {
    .Binary = CsBinary,
    .Prefix = CsPrefix,
    .Postfix = CsPostfix,
    .Assign = CsAssign,
    .Terminators = CsTerminators,
    .ScanPrefixes = CsScanPrefixes,
    .Conditional = {"ConditionalExpression", "?", ":",
                    /*MiddleIsExpression=*/true},
    .CastKind = "CastExpression"};

/// Recursive-descent parser for MiniC#, emitting Roslyn-style nodes.
class CsParser : ExpressionParser<CsParser, CsOperators> {
  friend ExpressionParser;

public:
  CsParser(const std::vector<Token> &Tokens, Diagnostics &Diags,
           StringInterner &Interner)
      : ExpressionParser(Tokens, Diags, Interner) {}

  std::optional<Tree> run() {
    Builder.begin("CompilationUnit");
    while (at("using")) {
      advance();
      Builder.begin("UsingDirective");
      Builder.terminal(intern("Name"), intern(parseDottedName()));
      Builder.end();
      expect(";");
    }
    while (!atEnd()) {
      size_t Before = Cursor;
      if (at("namespace")) {
        advance();
        Builder.begin("NamespaceDeclaration");
        Builder.terminal(intern("Name"), intern(parseDottedName()));
        expect("{");
        while (!at("}") && !atEnd()) {
          size_t B2 = Cursor;
          parseTopLevel();
          if (Cursor == B2)
            advance();
        }
        expect("}");
        Builder.end();
      } else {
        parseTopLevel();
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
  std::unordered_map<Symbol, ElementId> ClassFields;
  std::unordered_map<Symbol, ElementId> ClassMethods;
  std::unordered_map<Symbol, ElementId> ClassProperties;

  void parseTopLevel() {
    skipModifiers();
    if (at("class") || at("interface")) {
      parseClass();
      return;
    }
    if (!atEnd()) {
      error("expected type declaration");
      advance();
    }
  }

  void skipModifiers() {
    while ((atKind(TokenKind::Keyword) && isCsModifier(peek().Text)) ||
           at("@"))
      advance();
  }

  std::string parseDottedName() {
    std::string Name(expectIdentifier("name").Text);
    while (at(".") && peek(1).is(TokenKind::Identifier)) {
      advance();
      Name += '.';
      Name += std::string(advance().Text);
    }
    return Name;
  }

  //===--------------------------------------------------------------------===//
  // Types
  //===--------------------------------------------------------------------===//

  /// The predefined types; `var` is not one.
  static bool isTypeKeyword(std::string_view S) {
    return S == "int" || S == "long" || S == "double" || S == "float" ||
           S == "bool" || S == "string" || S == "char" || S == "byte" ||
           S == "object" || S == "void";
  }

  bool scanType(size_t I, size_t &End) const {
    auto Tok = [&](size_t J) -> const Token & {
      return J < Tokens.size() ? Tokens[J] : Tokens.back();
    };
    if (Tok(I).is(TokenKind::Keyword) &&
        (isTypeKeyword(Tok(I).Text) || Tok(I).is("var"))) {
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
                       T.is("[") || T.is("]") ||
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

  void parseType() {
    Nested Level(*this); // Generic arguments nest types.
    if (!Level)
      return;
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
    if (atKind(TokenKind::Keyword) &&
        (isTypeKeyword(peek().Text) || at("var"))) {
      Token T = advance();
      Builder.terminal(intern("PredefinedType"), intern(T.Text));
      return;
    }
    std::string Name = parseDottedName();
    if (at("<")) {
      Builder.begin("GenericName");
      Builder.terminal(intern("Identifier"), intern(Name));
      Builder.begin("TypeArgumentList");
      expect("<");
      do {
        parseType();
      } while (accept(","));
      expect(">");
      Builder.end();
      Builder.end();
      return;
    }
    Builder.begin("IdentifierName");
    Builder.terminal(intern("Identifier"), intern(Name));
    Builder.end();
  }

  //===--------------------------------------------------------------------===//
  // Declarations
  //===--------------------------------------------------------------------===//

  void parseClass() {
    bool IsInterface = at("interface");
    advance();
    Token Name = expectIdentifier("class name");
    Symbol NameSym = intern(Name.Text);
    ElementId ClassElem =
        Builder.addElement(NameSym, ElementKind::Class, /*Predictable=*/false);
    Scopes.declareGlobal(NameSym, ClassElem);
    Builder.begin(IsInterface ? "InterfaceDeclaration" : "ClassDeclaration");
    Builder.terminal(intern("Identifier"), NameSym, ClassElem);
    if (accept(":")) {
      Builder.begin("BaseList");
      do {
        Builder.begin("SimpleBaseType");
        parseNonArrayType();
        Builder.end();
      } while (accept(","));
      Builder.end();
    }
    expect("{");
    ClassFields.clear();
    ClassMethods.clear();
    ClassProperties.clear();
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

  void prescanMembers(std::string_view ClassName) {
    size_t I = Cursor;
    auto Tok = [&](size_t J) -> const Token & {
      return J < Tokens.size() ? Tokens[J] : Tokens.back();
    };
    // Walk the class body token by token at brace depth 1; member bodies
    // and accessor lists are skipped whole.
    while (!Tok(I).is("}") && !Tok(I).is(TokenKind::Eof)) {
      if (Tok(I).is("{")) {
        I = skipGroup(I);
        continue;
      }
      size_t J = I;
      while (Tok(J).is(TokenKind::Keyword) && isCsModifier(Tok(J).Text))
        ++J;
      if (Tok(J).is(TokenKind::Identifier) && Tok(J).Text == ClassName &&
          Tok(J + 1).is("(")) {
        I = J + 1;
        continue;
      }
      size_t AfterType = J;
      if (scanType(J, AfterType) && Tok(AfterType).is(TokenKind::Identifier)) {
        Symbol Name = intern(Tok(AfterType).Text);
        const Token &Next = Tok(AfterType + 1);
        if (Next.is("(")) {
          if (!ClassMethods.count(Name))
            ClassMethods.emplace(Name,
                                 Builder.addElement(Name, ElementKind::Method,
                                                    /*Predictable=*/true));
          I = AfterType + 1;
          continue;
        }
        if (Next.is("{")) { // Property: Type Name { get; set; }
          if (!ClassProperties.count(Name))
            ClassProperties.emplace(
                Name, Builder.addElement(Name, ElementKind::Property,
                                         /*Predictable=*/true));
          I = AfterType + 1;
          continue;
        }
        if (Next.is("=") || Next.is(";") || Next.is(",")) {
          if (!ClassFields.count(Name))
            ClassFields.emplace(Name,
                                Builder.addElement(Name, ElementKind::Field,
                                                   /*Predictable=*/true));
          I = AfterType + 1;
          continue;
        }
      }
      ++I;
    }
  }

  void parseMember(std::string_view ClassName) {
    skipModifiers();
    if (at("}"))
      return;
    if (atKind(TokenKind::Identifier) && peek().Text == ClassName &&
        peek(1).is("(")) {
      Token Name = advance();
      Builder.begin("ConstructorDeclaration");
      Builder.terminal(intern("Identifier"), intern(Name.Text));
      Scopes.push();
      parseParameterList();
      parseBlock();
      Scopes.pop();
      Builder.end();
      return;
    }
    size_t AfterType = Cursor;
    if (!scanType(Cursor, AfterType)) {
      error("expected member declaration");
      skipUntil({";", "}"});
      accept(";");
      return;
    }
    bool IsMethod = Tokens[AfterType].is(TokenKind::Identifier) &&
                    AfterType + 1 < Tokens.size() &&
                    Tokens[AfterType + 1].is("(");
    bool IsProperty = Tokens[AfterType].is(TokenKind::Identifier) &&
                      AfterType + 1 < Tokens.size() &&
                      Tokens[AfterType + 1].is("{");
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
      Builder.terminal(intern("Identifier"), NameSym, Id);
      Scopes.push();
      parseParameterList();
      if (accept(";")) { // Interface method.
        Scopes.pop();
        Builder.end();
        return;
      }
      parseBlock();
      Scopes.pop();
      Builder.end();
      return;
    }
    if (IsProperty) {
      Builder.begin("PropertyDeclaration");
      parseType();
      Token Name = expectIdentifier("property name");
      Symbol NameSym = intern(Name.Text);
      ElementId Id;
      auto It = ClassProperties.find(NameSym);
      if (It != ClassProperties.end()) {
        Id = It->second;
      } else {
        Id = Builder.addElement(NameSym, ElementKind::Property,
                                /*Predictable=*/true);
        ClassProperties.emplace(NameSym, Id);
      }
      Builder.terminal(intern("Identifier"), NameSym, Id);
      expect("{");
      Builder.begin("AccessorList");
      while (!at("}") && !atEnd()) {
        if (accept("get")) {
          Builder.begin("GetAccessor");
          if (at("{"))
            parseBlock();
          else
            expect(";");
          Builder.end();
          continue;
        }
        if (accept("set")) {
          Builder.begin("SetAccessor");
          if (at("{"))
            parseBlock();
          else
            expect(";");
          Builder.end();
          continue;
        }
        skipModifiers();
        if (!at("get") && !at("set") && !at("}"))
          advance();
      }
      Builder.end();
      expect("}");
      Builder.end();
      return;
    }
    // Field.
    Builder.begin("FieldDeclaration");
    Builder.begin("VariableDeclaration");
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
      Builder.terminal(intern("Identifier"), NameSym, Id);
      if (accept("=")) {
        Builder.begin("EqualsValueClause");
        parseExpression();
        Builder.end();
      }
      Builder.end();
    } while (accept(","));
    Builder.end();
    expect(";");
    Builder.end();
  }

  void parseParameterList() {
    expect("(");
    Builder.begin("ParameterList");
    while (!at(")") && !atEnd()) {
      Builder.begin("Parameter");
      parseType();
      Token Name = expectIdentifier("parameter name");
      Symbol NameSym = intern(Name.Text);
      ElementId Id = Builder.addElement(NameSym, ElementKind::Parameter,
                                        /*Predictable=*/true);
      Scopes.declare(NameSym, Id);
      Builder.terminal(intern("Identifier"), NameSym, Id);
      Builder.end();
      if (!accept(","))
        break;
    }
    Builder.end();
    expect(")");
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

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
      Builder.begin("IfStatement");
      expect("(");
      parseExpression();
      expect(")");
      parseStatement();
      if (accept("else")) {
        Builder.begin("ElseClause");
        parseStatement();
        Builder.end();
      }
      Builder.end();
      return;
    }
    if (at("while")) {
      advance();
      Builder.begin("WhileStatement");
      expect("(");
      parseExpression();
      expect(")");
      parseStatement();
      Builder.end();
      return;
    }
    if (at("do")) {
      advance();
      Builder.begin("DoStatement");
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
      advance();
      Builder.begin("ForStatement");
      Scopes.push();
      expect("(");
      if (!accept(";")) {
        if (isLocalDeclAhead())
          parseLocalDecl();
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
      return;
    }
    if (at("foreach")) {
      advance();
      Builder.begin("ForEachStatement");
      Scopes.push();
      expect("(");
      parseType();
      Token Name = expectIdentifier("loop variable");
      Symbol NameSym = intern(Name.Text);
      ElementId Id = Builder.addElement(NameSym, ElementKind::LocalVar,
                                        /*Predictable=*/true);
      Scopes.declare(NameSym, Id);
      Builder.terminal(intern("Identifier"), NameSym, Id);
      expect("in");
      parseExpression();
      expect(")");
      parseStatement();
      Scopes.pop();
      Builder.end();
      return;
    }
    if (at("return")) {
      advance();
      Builder.begin("ReturnStatement");
      if (!at(";"))
        parseExpression();
      Builder.end();
      expect(";");
      return;
    }
    if (at("break")) {
      advance();
      Builder.begin("BreakStatement");
      Builder.end();
      accept(";");
      return;
    }
    if (at("continue")) {
      advance();
      Builder.begin("ContinueStatement");
      Builder.end();
      accept(";");
      return;
    }
    if (at("throw")) {
      advance();
      Builder.begin("ThrowStatement");
      parseExpression();
      Builder.end();
      expect(";");
      return;
    }
    if (at("try")) {
      advance();
      Builder.begin("TryStatement");
      parseBlock();
      while (at("catch")) {
        advance();
        Builder.begin("CatchClause");
        Scopes.push();
        if (accept("(")) {
          Builder.begin("CatchDeclaration");
          parseType();
          if (atKind(TokenKind::Identifier)) {
            Token Name = advance();
            Symbol NameSym = intern(Name.Text);
            ElementId Id = Builder.addElement(NameSym, ElementKind::Parameter,
                                              /*Predictable=*/true);
            Scopes.declare(NameSym, Id);
            Builder.terminal(intern("Identifier"), NameSym, Id);
          }
          Builder.end();
          expect(")");
        }
        parseBlock();
        Scopes.pop();
        Builder.end();
      }
      if (accept("finally")) {
        Builder.begin("FinallyClause");
        parseBlock();
        Builder.end();
      }
      Builder.end();
      return;
    }
    if (accept(";"))
      return;
    if (isLocalDeclAhead()) {
      Builder.begin("LocalDeclarationStatement");
      parseLocalDecl();
      Builder.end();
      expect(";");
      return;
    }
    Builder.begin("ExpressionStatement");
    parseExpression();
    Builder.end();
    expect(";");
  }

  bool isLocalDeclAhead() const {
    size_t End = Cursor;
    if (!scanType(Cursor, End))
      return false;
    return End < Tokens.size() && Tokens[End].is(TokenKind::Identifier) &&
           End + 1 < Tokens.size() &&
           (Tokens[End + 1].is("=") || Tokens[End + 1].is(";") ||
            Tokens[End + 1].is(","));
  }

  void parseLocalDecl() {
    Builder.begin("VariableDeclaration");
    parseType();
    do {
      Builder.begin("VariableDeclarator");
      Token Name = expectIdentifier("variable name");
      Symbol NameSym = intern(Name.Text);
      ElementId Id = Builder.addElement(NameSym, ElementKind::LocalVar,
                                        /*Predictable=*/true);
      Scopes.declare(NameSym, Id);
      Builder.terminal(intern("Identifier"), NameSym, Id);
      if (accept("=")) {
        Builder.begin("EqualsValueClause");
        parseExpression();
        Builder.end();
      }
      Builder.end();
    } while (accept(","));
    Builder.end();
  }

  //===--------------------------------------------------------------------===//
  // Expressions (Roslyn-style wrappers)
  //===--------------------------------------------------------------------===//

  /// Roslyn shape: member access and invocation are separate wrappers —
  /// `a.b(c)` is InvocationExpression(MemberAccessExpression(a, b),
  /// ArgumentList(Argument(c))). This yields deeper trees than Java.
  void parseCallChain() {
    // Skip the primary: `new T(args)`, `new T[n]...`, a bare call
    // `name(args)`, a parenthesised expression or a single token. Then
    // pre-scan the links; `.name(` is a member access followed by an
    // invocation.
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
    enum LinkKind { Dot, CallLink, IndexLink };
    std::vector<LinkKind> Links;
    while (true) {
      const Token &U = tokenAt(I);
      if (U.is(".")) {
        Links.push_back(Dot);
        I += 2;
      } else if (U.is("(") || U.is("[")) {
        Links.push_back(U.is("(") ? CallLink : IndexLink);
        I = skipGroup(I);
      } else {
        break;
      }
    }

    for (auto It = Links.rbegin(); It != Links.rend(); ++It) {
      switch (*It) {
      case Dot:
        Builder.begin("MemberAccessExpression");
        break;
      case CallLink:
        Builder.begin("InvocationExpression");
        break;
      case IndexLink:
        Builder.begin("ElementAccessExpression");
        break;
      }
    }

    bool PrimaryIsThis = at("this");
    parsePrimary(PrimaryIsBareCall);

    bool FirstLink = true;
    for (LinkKind K : Links) {
      switch (K) {
      case Dot: {
        expect(".");
        Token Name = expectIdentifier("member name");
        Symbol NameSym = intern(Name.Text);
        ElementId Id = InvalidElement;
        if (PrimaryIsThis && FirstLink) {
          if (auto It = ClassFields.find(NameSym); It != ClassFields.end())
            Id = It->second;
          else if (auto It2 = ClassProperties.find(NameSym);
                   It2 != ClassProperties.end())
            Id = It2->second;
          else if (auto It3 = ClassMethods.find(NameSym);
                   It3 != ClassMethods.end())
            Id = It3->second;
        }
        Builder.begin("IdentifierName");
        Builder.terminal(intern("Identifier"), NameSym, Id);
        Builder.end();
        break;
      }
      case CallLink:
        parseArgumentList("ArgumentList", "(", ")");
        break;
      case IndexLink:
        parseArgumentList("BracketedArgumentList", "[", "]");
        break;
      }
      FirstLink = false;
      Builder.end();
    }
  }

  void parseArgumentList(const char *Kind, const char *Open,
                         const char *Close) {
    expect(Open);
    Builder.begin(Kind);
    while (!at(Close) && !atEnd()) {
      Builder.begin("Argument");
      parseExpression();
      Builder.end();
      if (!accept(","))
        break;
    }
    Builder.end();
    expect(Close);
  }

  void parsePrimary(bool BareCall) {
    const Token &T = peek();
    if (BareCall) {
      Builder.begin("InvocationExpression");
      Token Name = expectIdentifier("method name");
      Symbol NameSym = intern(Name.Text);
      ElementId Id = InvalidElement;
      auto It = ClassMethods.find(NameSym);
      if (It != ClassMethods.end())
        Id = It->second;
      Builder.begin("IdentifierName");
      Builder.terminal(intern("Identifier"), NameSym, Id);
      Builder.end();
      parseArgumentList("ArgumentList", "(", ")");
      Builder.end();
      return;
    }
    if (T.is(TokenKind::Identifier)) {
      advance();
      Symbol NameSym = intern(T.Text);
      ElementId Id = Scopes.lookup(NameSym);
      if (Id == InvalidElement) {
        if (auto It = ClassFields.find(NameSym); It != ClassFields.end())
          Id = It->second;
        else if (auto It2 = ClassProperties.find(NameSym);
                 It2 != ClassProperties.end())
          Id = It2->second;
      }
      Builder.begin("IdentifierName");
      Builder.terminal(intern("Identifier"), NameSym, Id);
      Builder.end();
      return;
    }
    if (T.is("this")) {
      advance();
      Builder.begin("ThisExpression");
      Builder.end();
      return;
    }
    if (T.is("base")) {
      advance();
      Builder.begin("BaseExpression");
      Builder.end();
      return;
    }
    if (T.is(TokenKind::IntLiteral)) {
      advance();
      Builder.terminal(intern("NumericLiteral"), intern(T.Text));
      return;
    }
    if (T.is(TokenKind::FloatLiteral)) {
      advance();
      Builder.terminal(intern("NumericLiteral"), intern(T.Text));
      return;
    }
    if (T.is(TokenKind::StringLiteral)) {
      advance();
      if (!T.Text.empty() && T.Text[0] == '\'')
        Builder.terminal(intern("CharacterLiteral"), intern(T.stringValue()));
      else
        Builder.terminal(intern("StringLiteral"), intern(T.stringValue()));
      return;
    }
    if (T.is("true") || T.is("false")) {
      advance();
      Builder.terminal(intern(T.is("true") ? "TrueLiteral" : "FalseLiteral"),
                       intern(T.Text));
      return;
    }
    if (T.is("null")) {
      advance();
      Builder.terminal(intern("NullLiteral"), intern("null"));
      return;
    }
    if (T.is("(")) {
      advance();
      Builder.begin("ParenthesizedExpression");
      parseExpression();
      Builder.end();
      expect(")");
      return;
    }
    if (T.is("new")) {
      advance();
      size_t End = Cursor;
      bool HaveType = scanType(Cursor, End);
      bool IsArray = HaveType && End < Tokens.size() && Tokens[End].is("[");
      if (IsArray) {
        Builder.begin("ArrayCreationExpression");
        parseType();
        while (accept("[")) {
          if (!at("]"))
            parseExpression();
          expect("]");
        }
        Builder.end();
        return;
      }
      Builder.begin("ObjectCreationExpression");
      parseNonArrayType();
      if (at("("))
        parseArgumentList("ArgumentList", "(", ")");
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

lang::ParseResult cs::parse(std::string_view Source,
                            StringInterner &Interner) {
  Diagnostics Diags(Source);
  Lexer Lex(Source, csLexerConfig(), Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  CsParser Parser(Tokens, Diags, Interner);
  lang::ParseResult Result;
  Result.Tree = Parser.run();
  Result.Diags = Diags.all();
  return Result;
}
