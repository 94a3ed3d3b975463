//===- cs_parser_test.cpp - Unit tests for the MiniC# frontend -------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "lang/csharp/CsParser.h"

#include "ParserNesting.h"

#include <gtest/gtest.h>

using namespace pigeon;
using namespace pigeon::ast;

namespace {

std::string sexprOf(std::string_view Source) {
  StringInterner SI;
  lang::ParseResult R = cs::parse(Source, SI);
  EXPECT_TRUE(R.Tree.has_value());
  for (const lang::Diagnostic &D : R.Diags)
    ADD_FAILURE() << "diagnostic: " << D.str() << " in: " << Source;
  return R.Tree ? R.Tree->sexpr() : "";
}

std::string methodSexpr(std::string_view Body) {
  std::string Src =
      "class A { void M() { " + std::string(Body) + " } }";
  return sexprOf(Src);
}

TEST(CsParser, EmptyClass) {
  EXPECT_EQ(sexprOf("class A {}"),
            "(CompilationUnit (ClassDeclaration (Identifier A)))");
}

TEST(CsParser, NamespaceAndUsing) {
  EXPECT_EQ(sexprOf("using System;\nnamespace App { class A {} }"),
            "(CompilationUnit (UsingDirective (Name System)) "
            "(NamespaceDeclaration (Name App) (ClassDeclaration "
            "(Identifier A))))");
}

TEST(CsParser, FieldWithInitializer) {
  EXPECT_EQ(sexprOf("class A { private bool done = false; }"),
            "(CompilationUnit (ClassDeclaration (Identifier A) "
            "(FieldDeclaration (VariableDeclaration (PredefinedType bool) "
            "(VariableDeclarator (Identifier done) (EqualsValueClause "
            "(FalseLiteral false)))))))");
}

TEST(CsParser, AutoProperty) {
  EXPECT_EQ(sexprOf("class A { public int Count { get; set; } }"),
            "(CompilationUnit (ClassDeclaration (Identifier A) "
            "(PropertyDeclaration (PredefinedType int) (Identifier Count) "
            "(AccessorList (GetAccessor) (SetAccessor)))))");
}

TEST(CsParser, MethodWithParams) {
  EXPECT_EQ(sexprOf("class A { int Add(int a, int b) { return a; } }"),
            "(CompilationUnit (ClassDeclaration (Identifier A) "
            "(MethodDeclaration (PredefinedType int) (Identifier Add) "
            "(ParameterList (Parameter (PredefinedType int) (Identifier a)) "
            "(Parameter (PredefinedType int) (Identifier b))) (Block "
            "(ReturnStatement (IdentifierName (Identifier a)))))))");
}

TEST(CsParser, RoslynInvocationShape) {
  // `items.Add(x)` must nest Invocation(MemberAccess(...), ArgumentList).
  EXPECT_NE(methodSexpr("items.Add(x);")
                .find("(InvocationExpression (MemberAccessExpression "
                      "(IdentifierName (Identifier items)) (IdentifierName "
                      "(Identifier Add))) (ArgumentList (Argument "
                      "(IdentifierName (Identifier x)))))"),
            std::string::npos);
}

TEST(CsParser, VarDeclaration) {
  EXPECT_NE(methodSexpr("var total = 0;")
                .find("(VariableDeclaration (PredefinedType var) "
                      "(VariableDeclarator (Identifier total) "
                      "(EqualsValueClause (NumericLiteral 0))))"),
            std::string::npos);
}

TEST(CsParser, GenericTypeDeclaration) {
  EXPECT_NE(methodSexpr("List<int> xs = new List<int>();")
                .find("(GenericName (Identifier List) (TypeArgumentList "
                      "(PredefinedType int)))"),
            std::string::npos);
}

TEST(CsParser, ForEach) {
  EXPECT_NE(methodSexpr("foreach (var item in items) { Use(item); }")
                .find("(ForEachStatement (PredefinedType var) (Identifier "
                      "item) (IdentifierName (Identifier items))"),
            std::string::npos);
}

TEST(CsParser, WhileNotDone) {
  std::string S = methodSexpr("bool done = false; while (!done) { done = "
                              "true; }");
  EXPECT_NE(S.find("(WhileStatement (PrefixUnaryExpression! (IdentifierName "
                   "(Identifier done)))"),
            std::string::npos);
  EXPECT_NE(S.find("(AssignmentExpression= (IdentifierName (Identifier "
                   "done)) (TrueLiteral true))"),
            std::string::npos);
}

TEST(CsParser, ConditionalAndBinary) {
  EXPECT_NE(methodSexpr("int m = a > b ? a : b;")
                .find("(ConditionalExpression (BinaryExpression> "
                      "(IdentifierName (Identifier a)) (IdentifierName "
                      "(Identifier b)))"),
            std::string::npos);
}

TEST(CsParser, StringInterpolationFreeConcat) {
  EXPECT_NE(methodSexpr("string s = \"a\" + name;")
                .find("(BinaryExpression+ (StringLiteral a) (IdentifierName "
                      "(Identifier name)))"),
            std::string::npos);
}

TEST(CsParser, ElementAccess) {
  EXPECT_NE(methodSexpr("int v = data[i];")
                .find("(ElementAccessExpression (IdentifierName (Identifier "
                      "data)) (BracketedArgumentList (Argument "
                      "(IdentifierName (Identifier i)))))"),
            std::string::npos);
}

TEST(CsParser, TryCatch) {
  std::string S = methodSexpr(
      "try { F(); } catch (Exception e) { G(e); } finally { H(); }");
  EXPECT_NE(S.find("(CatchClause (CatchDeclaration (IdentifierName "
                   "(Identifier Exception)) (Identifier e))"),
            std::string::npos);
  EXPECT_NE(S.find("(FinallyClause"), std::string::npos);
}

TEST(CsParser, Constructor) {
  EXPECT_NE(sexprOf("class P { int x; P(int x) { this.x = x; } }")
                .find("(ConstructorDeclaration (Identifier P)"),
            std::string::npos);
}

TEST(CsParser, IsAndAsExpressions) {
  EXPECT_NE(methodSexpr("bool b = o is string;")
                .find("(IsExpression (IdentifierName (Identifier o)) "
                      "(PredefinedType string))"),
            std::string::npos);
  EXPECT_NE(methodSexpr("string s = o as string;")
                .find("(AsExpression (IdentifierName (Identifier o)) "
                      "(PredefinedType string))"),
            std::string::npos);
}

TEST(CsParser, CastExpression) {
  EXPECT_NE(methodSexpr("int x = (int) y;")
                .find("(CastExpression (PredefinedType int) (IdentifierName "
                      "(Identifier y)))"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Elements
//===----------------------------------------------------------------------===//

TEST(CsParserElements, PropertyUsesResolve) {
  StringInterner SI;
  lang::ParseResult R = cs::parse(
      "class A { public int Count { get; set; } void M() { Count = 1; } }",
      SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    if (SI.str(T.element(E).Name) != "Count")
      continue;
    EXPECT_EQ(T.element(E).Kind, ElementKind::Property);
    EXPECT_EQ(T.occurrences(E).size(), 2u);
  }
}

TEST(CsParserElements, ThisFieldResolves) {
  StringInterner SI;
  lang::ParseResult R =
      cs::parse("class A { int x; void Set(int x) { this.x = x; } }", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    const ElementInfo &Info = T.element(E);
    if (SI.str(Info.Name) == "x" && Info.Kind == ElementKind::Field) {
      EXPECT_EQ(T.occurrences(E).size(), 2u);
    }
  }
}

TEST(CsParserElements, MethodCallLinksViaPrescan) {
  StringInterner SI;
  lang::ParseResult R = cs::parse(
      "class A { void M() { Helper(); } void Helper() {} }", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E)
    if (SI.str(T.element(E).Name) == "Helper") {
      EXPECT_EQ(T.occurrences(E).size(), 2u);
    }
}

TEST(CsParserElements, LocalsArePredictable) {
  StringInterner SI;
  lang::ParseResult R =
      cs::parse("class A { void M() { var total = 0; total += 1; } }", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    if (SI.str(T.element(E).Name) != "total")
      continue;
    EXPECT_EQ(T.element(E).Kind, ElementKind::LocalVar);
    EXPECT_TRUE(T.element(E).Predictable);
    EXPECT_EQ(T.occurrences(E).size(), 2u);
  }
}

//===----------------------------------------------------------------------===//
// Errors
//===----------------------------------------------------------------------===//

TEST(CsParserErrors, MissingSemicolonDiagnosed) {
  StringInterner SI;
  lang::ParseResult R =
      cs::parse("class A { void M() { int x = 1 } }", SI);
  EXPECT_FALSE(R.Diags.empty());
}

TEST(CsParserErrors, GarbageTerminates) {
  StringInterner SI;
  lang::ParseResult R = cs::parse("$$$ class ((", SI);
  ASSERT_TRUE(R.Tree.has_value());
  EXPECT_FALSE(R.Diags.empty());
}

TEST(CsParserErrors, OperatorDriftRaisesDiagnosticNotUB) {
  // `a - - - b` desynchronizes the binary-chain lookahead from the unary
  // parse (see the JS twin test); the guard must be an always-on
  // diagnostic, not a Release-stripped assert.
  StringInterner SI;
  lang::ParseResult R =
      cs::parse("class C { void M() { int x = a - - - b; } }", SI);
  ASSERT_TRUE(R.Tree.has_value());
  bool SawDrift = false;
  for (const lang::Diagnostic &D : R.Diags)
    SawDrift |= D.Message.find("operator drift") != std::string::npos;
  EXPECT_TRUE(SawDrift);
}

//===----------------------------------------------------------------------===//
// Nesting budget
//===----------------------------------------------------------------------===//

TEST(CsParserNesting, AtLimitParsesOneDeeperFailsClosed) {
  // A statement and its expression take two levels; each group, prefix
  // operator, cast or block one more, and the innermost cast's type one.
  const char *Method = "class A { void F() { ";
  const std::pair<const char *, const char *> Nests[] = {
      {"(", ")"}, {"!", ""}, {"~", ""}};
  for (const auto &[Open, Close] : Nests)
    test::expectNestingLimit(cs::parse, Method, Open, "x", Close, "; } }", 2);
  test::expectNestingLimit(cs::parse, Method, "(int) ", "x", "", "; } }", 3);
  test::expectNestingLimit(cs::parse, Method, "{", "x;", "}", " } }", 2);
  // Each generic argument is one more type level.
  test::expectNestingLimit(cs::parse, "class A { ", "List<", "X", ">",
                           " f; }", 1);
}

} // namespace
