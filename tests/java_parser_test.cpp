//===- java_parser_test.cpp - Unit tests for the MiniJava frontend ---------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "lang/java/JavaParser.h"

#include "ParserNesting.h"

#include <gtest/gtest.h>

using namespace pigeon;
using namespace pigeon::ast;

namespace {

std::string sexprOf(std::string_view Source) {
  StringInterner SI;
  lang::ParseResult R = java::parse(Source, SI);
  EXPECT_TRUE(R.Tree.has_value());
  for (const lang::Diagnostic &D : R.Diags)
    ADD_FAILURE() << "diagnostic: " << D.str() << " in: " << Source;
  return R.Tree ? R.Tree->sexpr() : "";
}

/// Wraps a method body in a class shell and returns the sexpr of the whole
/// unit, to keep statement-level tests short.
std::string methodSexpr(std::string_view Body) {
  std::string Src = "class A { void m() { " + std::string(Body) + " } }";
  return sexprOf(Src);
}

TEST(JavaParser, EmptyClass) {
  EXPECT_EQ(sexprOf("class A {}"),
            "(CompilationUnit (ClassOrInterfaceDeclaration (SimpleName A)))");
}

TEST(JavaParser, PackageAndImports) {
  EXPECT_EQ(sexprOf("package com.example;\nimport java.util.List;\nclass A "
                    "{}"),
            "(CompilationUnit (PackageDeclaration (Name com.example)) "
            "(ImportDeclaration (Name java.util.List)) "
            "(ClassOrInterfaceDeclaration (SimpleName A)))");
}

TEST(JavaParser, FieldDeclaration) {
  EXPECT_EQ(sexprOf("class A { private int count; }"),
            "(CompilationUnit (ClassOrInterfaceDeclaration (SimpleName A) "
            "(FieldDeclaration (PrimitiveType int) (VariableDeclarator "
            "(SimpleName count)))))");
}

TEST(JavaParser, FieldWithInitializer) {
  EXPECT_EQ(sexprOf("class A { boolean done = false; }"),
            "(CompilationUnit (ClassOrInterfaceDeclaration (SimpleName A) "
            "(FieldDeclaration (PrimitiveType boolean) (VariableDeclarator "
            "(SimpleName done) (BooleanLiteralExpr false)))))");
}

TEST(JavaParser, MethodWithParams) {
  EXPECT_EQ(
      sexprOf("class A { int add(int a, int b) { return a; } }"),
      "(CompilationUnit (ClassOrInterfaceDeclaration (SimpleName A) "
      "(MethodDeclaration (PrimitiveType int) (SimpleName add) (Parameters "
      "(Parameter (PrimitiveType int) (SimpleName a)) (Parameter "
      "(PrimitiveType int) (SimpleName b))) (BlockStmt (ReturnStmt "
      "(NameExpr (SimpleName a)))))))");
}

TEST(JavaParser, GenericType) {
  EXPECT_EQ(sexprOf("class A { java.util.List<Integer> xs; }"),
            "(CompilationUnit (ClassOrInterfaceDeclaration (SimpleName A) "
            "(FieldDeclaration (ClassOrInterfaceType (TypeName "
            "java.util.List) (TypeArg (ClassOrInterfaceType (TypeName "
            "Integer)))) (VariableDeclarator (SimpleName xs)))))");
}

TEST(JavaParser, ArrayType) {
  EXPECT_EQ(sexprOf("class A { int[] data; }"),
            "(CompilationUnit (ClassOrInterfaceDeclaration (SimpleName A) "
            "(FieldDeclaration (ArrayType (PrimitiveType int)) "
            "(VariableDeclarator (SimpleName data)))))");
}

TEST(JavaParser, LocalDeclarationStatement) {
  EXPECT_NE(methodSexpr("int c = 0;")
                .find("(ExpressionStmt (VariableDeclarationExpr "
                      "(PrimitiveType int) (VariableDeclarator (SimpleName "
                      "c) (IntegerLiteralExpr 0))))"),
            std::string::npos);
}

TEST(JavaParser, PaperCountExample) {
  // Fig. 9's count method shape.
  std::string S = sexprOf(
      "class A { int count(java.util.List<Integer> x, int t) {\n"
      "  int c = 0;\n"
      "  for (int r : x) { if (r == t) { c++; } }\n"
      "  return c;\n"
      "} }");
  EXPECT_NE(S.find("(ForEachStmt (VariableDeclarationExpr (PrimitiveType "
                   "int) (VariableDeclarator (SimpleName r))) (NameExpr "
                   "(SimpleName x))"),
            std::string::npos);
  EXPECT_NE(S.find("(UnaryExprPostfix++ (NameExpr (SimpleName c)))"),
            std::string::npos);
  EXPECT_NE(S.find("(BinaryExpr== (NameExpr (SimpleName r)) (NameExpr "
                   "(SimpleName t)))"),
            std::string::npos);
}

TEST(JavaParser, WhileNotDone) {
  // Fig. 9's done example.
  std::string S = sexprOf("class A { void m() { boolean d = false; while "
                          "(!d) { if (c()) { d = true; } } } }");
  EXPECT_NE(S.find("(WhileStmt (UnaryExpr! (NameExpr (SimpleName d)))"),
            std::string::npos);
  EXPECT_NE(S.find("(Assign= (NameExpr (SimpleName d)) (BooleanLiteralExpr "
                   "true))"),
            std::string::npos);
}

TEST(JavaParser, MethodCallWithReceiver) {
  EXPECT_NE(methodSexpr("items.add(x);")
                .find("(MethodCallExpr (NameExpr (SimpleName items)) "
                      "(SimpleName add) (Arguments (NameExpr (SimpleName "
                      "x))))"),
            std::string::npos);
}

TEST(JavaParser, ChainedCalls) {
  EXPECT_NE(methodSexpr("s.trim().length();")
                .find("(MethodCallExpr (MethodCallExpr (NameExpr (SimpleName "
                      "s)) (SimpleName trim) (Arguments)) (SimpleName "
                      "length) (Arguments))"),
            std::string::npos);
}

TEST(JavaParser, StaticCall) {
  EXPECT_NE(methodSexpr("int x = Math.max(a, b);")
                .find("(MethodCallExpr (NameExpr (SimpleName Math)) "
                      "(SimpleName max) (Arguments (NameExpr (SimpleName "
                      "a)) (NameExpr (SimpleName b))))"),
            std::string::npos);
}

TEST(JavaParser, SystemOutPrintln) {
  EXPECT_NE(methodSexpr("System.out.println(msg);")
                .find("(MethodCallExpr (FieldAccessExpr (NameExpr "
                      "(SimpleName System)) (SimpleName out)) (SimpleName "
                      "println) (Arguments (NameExpr (SimpleName msg))))"),
            std::string::npos);
}

TEST(JavaParser, ObjectCreation) {
  EXPECT_NE(methodSexpr("java.util.ArrayList<String> xs = new "
                        "java.util.ArrayList<String>();")
                .find("(ObjectCreationExpr (ClassOrInterfaceType (TypeName "
                      "java.util.ArrayList) (TypeArg (ClassOrInterfaceType "
                      "(TypeName String)))) (Arguments))"),
            std::string::npos);
}

TEST(JavaParser, DiamondOperator) {
  EXPECT_NE(methodSexpr("java.util.ArrayList<String> xs = new "
                        "java.util.ArrayList<>();")
                .find("(ObjectCreationExpr (ClassOrInterfaceType (TypeName "
                      "java.util.ArrayList)) (Arguments))"),
            std::string::npos);
}

TEST(JavaParser, ArrayCreationAndAccess) {
  std::string S = methodSexpr("int[] a = new int[n]; a[0] = 1;");
  EXPECT_NE(S.find("(ArrayCreationExpr (PrimitiveType int) (NameExpr "
                   "(SimpleName n)))"),
            std::string::npos);
  EXPECT_NE(S.find("(Assign= (ArrayAccessExpr (NameExpr (SimpleName a)) "
                   "(IntegerLiteralExpr 0)) (IntegerLiteralExpr 1))"),
            std::string::npos);
}

TEST(JavaParser, CastExpression) {
  EXPECT_NE(methodSexpr("int x = (int) y;")
                .find("(CastExpr (PrimitiveType int) (NameExpr (SimpleName "
                      "y)))"),
            std::string::npos);
}

TEST(JavaParser, ParensAreNotCasts) {
  EXPECT_NE(methodSexpr("int x = (a) - b;")
                .find("(BinaryExpr- (NameExpr (SimpleName a)) (NameExpr "
                      "(SimpleName b)))"),
            std::string::npos);
}

TEST(JavaParser, TernaryExpression) {
  EXPECT_NE(methodSexpr("int m = a > b ? a : b;")
                .find("(ConditionalExpr (BinaryExpr> (NameExpr (SimpleName "
                      "a)) (NameExpr (SimpleName b))) (NameExpr (SimpleName "
                      "a)) (NameExpr (SimpleName b)))"),
            std::string::npos);
}

TEST(JavaParser, InstanceOf) {
  EXPECT_NE(methodSexpr("boolean b = x instanceof String;")
                .find("(InstanceOfExpr (NameExpr (SimpleName x)) "
                      "(ClassOrInterfaceType (TypeName String)))"),
            std::string::npos);
}

TEST(JavaParser, TryCatchFinally) {
  std::string S = methodSexpr(
      "try { f(); } catch (Exception e) { g(e); } finally { h(); }");
  EXPECT_NE(S.find("(TryStmt (BlockStmt"), std::string::npos);
  EXPECT_NE(S.find("(CatchClause (Parameter (ClassOrInterfaceType (TypeName "
                   "Exception)) (SimpleName e))"),
            std::string::npos);
  EXPECT_NE(S.find("(FinallyBlock"), std::string::npos);
}

TEST(JavaParser, Constructor) {
  std::string S = sexprOf("class Point { int x; Point(int x) { this.x = x; "
                          "} }");
  EXPECT_NE(S.find("(ConstructorDeclaration (SimpleName Point)"),
            std::string::npos);
  EXPECT_NE(S.find("(Assign= (FieldAccessExpr (ThisExpr) (SimpleName x)) "
                   "(NameExpr (SimpleName x)))"),
            std::string::npos);
}

TEST(JavaParser, InterfaceWithAbstractMethod) {
  EXPECT_EQ(sexprOf("interface Shape { double area(); }"),
            "(CompilationUnit (InterfaceDeclaration (SimpleName Shape) "
            "(MethodDeclaration (PrimitiveType double) (SimpleName area) "
            "(Parameters))))");
}

TEST(JavaParser, ExtendsClause) {
  EXPECT_NE(sexprOf("class B extends A {}")
                .find("(ExtendedType (ClassOrInterfaceType (TypeName A)))"),
            std::string::npos);
}

TEST(JavaParser, StringConcat) {
  EXPECT_NE(methodSexpr("String s = \"a\" + name;")
                .find("(BinaryExpr+ (StringLiteralExpr a) (NameExpr "
                      "(SimpleName name)))"),
            std::string::npos);
}

TEST(JavaParser, ModifiersAreSkipped) {
  EXPECT_EQ(sexprOf("public final class A { public static void m() {} }"),
            "(CompilationUnit (ClassOrInterfaceDeclaration (SimpleName A) "
            "(MethodDeclaration (PrimitiveType void) (SimpleName m) "
            "(Parameters) (BlockStmt))))");
}

TEST(JavaParser, CompoundAssignAndIncrement) {
  std::string S = methodSexpr("total += x; i++; --j;");
  EXPECT_NE(S.find("(Assign+= (NameExpr (SimpleName total)) (NameExpr "
                   "(SimpleName x)))"),
            std::string::npos);
  EXPECT_NE(S.find("(UnaryExprPostfix++ (NameExpr (SimpleName i)))"),
            std::string::npos);
  EXPECT_NE(S.find("(UnaryExpr-- (NameExpr (SimpleName j)))"),
            std::string::npos);
}

TEST(JavaParser, GenericVsComparisonDisambiguation) {
  // `a < b` must stay a comparison even though `<` could open generics.
  EXPECT_NE(methodSexpr("boolean r = a < b;")
                .find("(BinaryExpr< (NameExpr (SimpleName a)) (NameExpr "
                      "(SimpleName b)))"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Element linking
//===----------------------------------------------------------------------===//

TEST(JavaParserElements, FieldUsesResolveAcrossMethods) {
  StringInterner SI;
  lang::ParseResult R = java::parse(
      "class A { int count; void inc() { count++; } int get() { return "
      "count; } }",
      SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    if (SI.str(T.element(E).Name) != "count")
      continue;
    EXPECT_EQ(T.element(E).Kind, ElementKind::Field);
    EXPECT_EQ(T.occurrences(E).size(), 3u)
        << "declaration + two uses must merge";
  }
}

TEST(JavaParserElements, ThisFieldAccessLinksToField) {
  StringInterner SI;
  lang::ParseResult R = java::parse(
      "class A { int x; void set(int x) { this.x = x; } }", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  int FieldOcc = 0;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    const ElementInfo &Info = T.element(E);
    if (SI.str(Info.Name) == "x" && Info.Kind == ElementKind::Field)
      FieldOcc = static_cast<int>(T.occurrences(E).size());
  }
  EXPECT_EQ(FieldOcc, 2) << "field decl + this.x must merge";
}

TEST(JavaParserElements, MethodForwardReferenceResolves) {
  StringInterner SI;
  lang::ParseResult R = java::parse(
      "class A { void a() { helper(); } void helper() {} }", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    if (SI.str(T.element(E).Name) != "helper")
      continue;
    EXPECT_EQ(T.element(E).Kind, ElementKind::Method);
    EXPECT_TRUE(T.element(E).Predictable);
    EXPECT_EQ(T.occurrences(E).size(), 2u)
        << "call before declaration must link via member pre-scan";
  }
}

TEST(JavaParserElements, ParamsAndLocalsArePredictable) {
  StringInterner SI;
  lang::ParseResult R =
      java::parse("class A { int f(int input) { int result = input; return "
                  "result; } }",
                  SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  bool SawParam = false, SawLocal = false;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    const ElementInfo &Info = T.element(E);
    if (SI.str(Info.Name) == "input") {
      SawParam = true;
      EXPECT_EQ(Info.Kind, ElementKind::Parameter);
      EXPECT_TRUE(Info.Predictable);
    }
    if (SI.str(Info.Name) == "result") {
      SawLocal = true;
      EXPECT_EQ(Info.Kind, ElementKind::LocalVar);
      EXPECT_TRUE(Info.Predictable);
    }
  }
  EXPECT_TRUE(SawParam);
  EXPECT_TRUE(SawLocal);
}

TEST(JavaParserElements, ClassNameIsNotPredictable) {
  StringInterner SI;
  lang::ParseResult R = java::parse("class Widget {}", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E)
    if (SI.str(T.element(E).Name) == "Widget") {
      EXPECT_FALSE(T.element(E).Predictable);
    }
}

//===----------------------------------------------------------------------===//
// Error handling
//===----------------------------------------------------------------------===//

TEST(JavaParserErrors, MissingSemicolonDiagnosed) {
  StringInterner SI;
  lang::ParseResult R = java::parse("class A { void m() { int x = 1 } }", SI);
  EXPECT_FALSE(R.Diags.empty());
}

TEST(JavaParserErrors, GarbageInputTerminates) {
  StringInterner SI;
  lang::ParseResult R = java::parse("%%%% class ((", SI);
  ASSERT_TRUE(R.Tree.has_value());
  EXPECT_FALSE(R.Diags.empty());
}

TEST(JavaParserErrors, OperatorDriftRaisesDiagnosticNotUB) {
  // `a - - - b` desynchronizes the binary-chain lookahead from the unary
  // parse (see the JS twin test); the guard must be an always-on
  // diagnostic, not a Release-stripped assert.
  StringInterner SI;
  lang::ParseResult R =
      java::parse("class C { void m() { int x = a - - - b; } }", SI);
  ASSERT_TRUE(R.Tree.has_value());
  bool SawDrift = false;
  for (const lang::Diagnostic &D : R.Diags)
    SawDrift |= D.Message.find("operator drift") != std::string::npos;
  EXPECT_TRUE(SawDrift);
}

//===----------------------------------------------------------------------===//
// Nesting budget
//===----------------------------------------------------------------------===//

TEST(JavaParserNesting, AtLimitParsesOneDeeperFailsClosed) {
  // A statement and its expression take two levels; each group, prefix
  // operator, cast or block one more, and the innermost cast's type one.
  const char *Method = "class A { void f() { ";
  const std::pair<const char *, const char *> Nests[] = {
      {"(", ")"}, {"!", ""}, {"~", ""}};
  for (const auto &[Open, Close] : Nests)
    test::expectNestingLimit(java::parse, Method, Open, "x", Close, "; } }", 2);
  test::expectNestingLimit(java::parse, Method, "(int) ", "x", "", "; } }", 3);
  test::expectNestingLimit(java::parse, Method, "{", "x;", "}", " } }", 2);
  // Each generic argument is one more type level.
  test::expectNestingLimit(java::parse, "class A { ", "List<", "X", ">",
                           " f; }", 1);
}

} // namespace
