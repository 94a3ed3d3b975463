//===- js_parser_test.cpp - Unit tests for the MiniJS frontend -------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "lang/js/JsParser.h"

#include "ParserNesting.h"

#include <gtest/gtest.h>

using namespace pigeon;
using namespace pigeon::ast;

namespace {

/// Parses and returns the sexpr, failing the test on diagnostics.
std::string sexprOf(std::string_view Source) {
  StringInterner SI;
  lang::ParseResult R = js::parse(Source, SI);
  EXPECT_TRUE(R.Tree.has_value());
  for (const lang::Diagnostic &D : R.Diags)
    ADD_FAILURE() << "diagnostic: " << D.str() << " in: " << Source;
  return R.Tree ? R.Tree->sexpr() : "";
}

TEST(JsParser, EmptyProgram) {
  EXPECT_EQ(sexprOf(""), "(Toplevel)");
}

TEST(JsParser, VarDeclWithInit) {
  EXPECT_EQ(sexprOf("var d = false;"),
            "(Toplevel (Var (VarDef (SymbolVar d) (False false))))");
}

TEST(JsParser, MultipleDeclarators) {
  EXPECT_EQ(sexprOf("var a, b;"),
            "(Toplevel (Var (VarDef (SymbolVar a)) (VarDef (SymbolVar b))))");
}

TEST(JsParser, Fig1aWhileLoop) {
  // The paper's running example (Fig. 1a).
  std::string S = sexprOf("while (!d) {\n"
                          "  if (someCondition()) {\n"
                          "    d = true;\n"
                          "  }\n"
                          "}\n");
  EXPECT_EQ(S, "(Toplevel (While (UnaryPrefix! (SymbolRef d)) (Block (If "
               "(Call (SymbolRef someCondition)) (Block (SimpleStatement "
               "(Assign= (SymbolRef d) (True true))))))))");
}

TEST(JsParser, Fig4SubscriptStatement) {
  // Fig. 4: var item = array[i];
  EXPECT_EQ(sexprOf("var item = array[i];"),
            "(Toplevel (Var (VarDef (SymbolVar item) (Sub (SymbolRef array) "
            "(SymbolRef i)))))");
}

TEST(JsParser, FunctionDeclaration) {
  EXPECT_EQ(sexprOf("function f(a, b) { return a; }"),
            "(Toplevel (Defun (SymbolDefun f) (SymbolFunarg a) "
            "(SymbolFunarg b) (Return (SymbolRef a))))");
}

TEST(JsParser, MethodCallChain) {
  // Fig. 8's shape: request.open('GET', url, false);
  EXPECT_EQ(sexprOf("b.open('GET', a, false);"),
            "(Toplevel (SimpleStatement (Call (Dot (SymbolRef b) "
            "(Property open)) (Str GET) (SymbolRef a) (False false))))");
}

TEST(JsParser, BinaryPrecedence) {
  EXPECT_EQ(sexprOf("x = a + b * c;"),
            "(Toplevel (SimpleStatement (Assign= (SymbolRef x) (Binary+ "
            "(SymbolRef a) (Binary* (SymbolRef b) (SymbolRef c))))))");
}

TEST(JsParser, BinaryLeftAssociativity) {
  EXPECT_EQ(sexprOf("x = a - b - c;"),
            "(Toplevel (SimpleStatement (Assign= (SymbolRef x) (Binary- "
            "(Binary- (SymbolRef a) (SymbolRef b)) (SymbolRef c)))))");
}

TEST(JsParser, ParenthesesOverridePrecedence) {
  EXPECT_EQ(sexprOf("x = (a + b) * c;"),
            "(Toplevel (SimpleStatement (Assign= (SymbolRef x) (Binary* "
            "(Binary+ (SymbolRef a) (SymbolRef b)) (SymbolRef c)))))");
}

TEST(JsParser, LogicalOperators) {
  EXPECT_EQ(sexprOf("x = a && b || c;"),
            "(Toplevel (SimpleStatement (Assign= (SymbolRef x) (Binary|| "
            "(Binary&& (SymbolRef a) (SymbolRef b)) (SymbolRef c)))))");
}

TEST(JsParser, Comparison) {
  EXPECT_EQ(sexprOf("x = i < n;"),
            "(Toplevel (SimpleStatement (Assign= (SymbolRef x) (Binary< "
            "(SymbolRef i) (SymbolRef n)))))");
}

TEST(JsParser, StrictEquality) {
  EXPECT_EQ(sexprOf("x = a === b;"),
            "(Toplevel (SimpleStatement (Assign= (SymbolRef x) (Binary=== "
            "(SymbolRef a) (SymbolRef b)))))");
}

TEST(JsParser, UnaryNot) {
  EXPECT_EQ(sexprOf("x = !a;"),
            "(Toplevel (SimpleStatement (Assign= (SymbolRef x) (UnaryPrefix! "
            "(SymbolRef a)))))");
}

TEST(JsParser, PrefixIncrement) {
  EXPECT_EQ(sexprOf("++i;"),
            "(Toplevel (SimpleStatement (UnaryPrefix++ (SymbolRef i))))");
}

TEST(JsParser, PostfixIncrement) {
  EXPECT_EQ(sexprOf("i++;"),
            "(Toplevel (SimpleStatement (UnaryPostfix++ (SymbolRef i))))");
}

TEST(JsParser, CompoundAssignment) {
  EXPECT_EQ(sexprOf("total += x;"),
            "(Toplevel (SimpleStatement (Assign+= (SymbolRef total) "
            "(SymbolRef x))))");
}

TEST(JsParser, AssignmentToMember) {
  EXPECT_EQ(sexprOf("obj.field = 1;"),
            "(Toplevel (SimpleStatement (Assign= (Dot (SymbolRef obj) "
            "(Property field)) (Num 1))))");
}

TEST(JsParser, AssignmentToSubscript) {
  EXPECT_EQ(sexprOf("arr[i] = v;"),
            "(Toplevel (SimpleStatement (Assign= (Sub (SymbolRef arr) "
            "(SymbolRef i)) (SymbolRef v))))");
}

TEST(JsParser, ConditionalExpression) {
  EXPECT_EQ(sexprOf("x = a ? b : c;"),
            "(Toplevel (SimpleStatement (Assign= (SymbolRef x) (Conditional "
            "(SymbolRef a) (SymbolRef b) (SymbolRef c)))))");
}

TEST(JsParser, ClassicForLoop) {
  EXPECT_EQ(sexprOf("for (var i = 0; i < n; i++) { f(i); }"),
            "(Toplevel (For (Var (VarDef (SymbolVar i) (Num 0))) (Binary< "
            "(SymbolRef i) (SymbolRef n)) (UnaryPostfix++ (SymbolRef i)) "
            "(Block (SimpleStatement (Call (SymbolRef f) (SymbolRef i))))))");
}

TEST(JsParser, ForInLoop) {
  EXPECT_EQ(sexprOf("for (var k in obj) { f(k); }"),
            "(Toplevel (ForIn (SymbolVar k) (SymbolRef obj) (Block "
            "(SimpleStatement (Call (SymbolRef f) (SymbolRef k))))))");
}

TEST(JsParser, ForOfLoop) {
  EXPECT_EQ(sexprOf("for (var v of items) { f(v); }"),
            "(Toplevel (ForOf (SymbolVar v) (SymbolRef items) (Block "
            "(SimpleStatement (Call (SymbolRef f) (SymbolRef v))))))");
}

TEST(JsParser, DoWhile) {
  EXPECT_EQ(sexprOf("do { f(); } while (x);"),
            "(Toplevel (Do (Block (SimpleStatement (Call (SymbolRef f)))) "
            "(SymbolRef x)))");
}

TEST(JsParser, IfElse) {
  EXPECT_EQ(sexprOf("if (a) { f(); } else { g(); }"),
            "(Toplevel (If (SymbolRef a) (Block (SimpleStatement (Call "
            "(SymbolRef f)))) (Block (SimpleStatement (Call "
            "(SymbolRef g))))))");
}

TEST(JsParser, BreakContinue) {
  EXPECT_EQ(sexprOf("while (a) { break; }"),
            "(Toplevel (While (SymbolRef a) (Block (Break))))");
  EXPECT_EQ(sexprOf("while (a) { continue; }"),
            "(Toplevel (While (SymbolRef a) (Block (Continue))))");
}

TEST(JsParser, ThrowTryCatch) {
  EXPECT_EQ(sexprOf("try { f(); } catch (e) { g(e); }"),
            "(Toplevel (Try (Block (SimpleStatement (Call (SymbolRef f)))) "
            "(Catch (SymbolCatch e) (Block (SimpleStatement (Call "
            "(SymbolRef g) (SymbolRef e)))))))");
  EXPECT_EQ(sexprOf("throw err;"),
            "(Toplevel (Throw (SymbolRef err)))");
}

TEST(JsParser, ArrayLiteral) {
  EXPECT_EQ(sexprOf("var a = [1, 2];"),
            "(Toplevel (Var (VarDef (SymbolVar a) (Array (Num 1) "
            "(Num 2)))))");
}

TEST(JsParser, ObjectLiteral) {
  EXPECT_EQ(sexprOf("var o = {x: 1, y: b};"),
            "(Toplevel (Var (VarDef (SymbolVar o) (Object (ObjectKeyVal "
            "(ObjectKey x) (Num 1)) (ObjectKeyVal (ObjectKey y) "
            "(SymbolRef b))))))");
}

TEST(JsParser, FunctionExpression) {
  EXPECT_EQ(sexprOf("var f = function(x) { return x; };"),
            "(Toplevel (Var (VarDef (SymbolVar f) (Function (SymbolFunarg "
            "x) (Return (SymbolRef x))))))");
}

TEST(JsParser, NewExpression) {
  EXPECT_EQ(sexprOf("var r = new Client(url);"),
            "(Toplevel (Var (VarDef (SymbolVar r) (New (SymbolRef Client) "
            "(SymbolRef url)))))");
}

TEST(JsParser, NestedCallChains) {
  EXPECT_EQ(sexprOf("a.b.c(1)(2);"),
            "(Toplevel (SimpleStatement (Call (Call (Dot (Dot (SymbolRef a) "
            "(Property b)) (Property c)) (Num 1)) (Num 2))))");
}

TEST(JsParser, SubscriptChain) {
  EXPECT_EQ(sexprOf("m[i][j] = 0;"),
            "(Toplevel (SimpleStatement (Assign= (Sub (Sub (SymbolRef m) "
            "(SymbolRef i)) (SymbolRef j)) (Num 0))))");
}

TEST(JsParser, StringEscapes) {
  EXPECT_EQ(sexprOf("var s = 'a\\'b';"),
            "(Toplevel (Var (VarDef (SymbolVar s) (Str a\\'b))))");
}

TEST(JsParser, CommentsAreIgnored) {
  EXPECT_EQ(sexprOf("// line\nvar x = 1; /* block */"),
            "(Toplevel (Var (VarDef (SymbolVar x) (Num 1))))");
}

TEST(JsParser, TypeofOperator) {
  EXPECT_EQ(sexprOf("x = typeof v;"),
            "(Toplevel (SimpleStatement (Assign= (SymbolRef x) "
            "(UnaryPrefixtypeof (SymbolRef v)))))");
}

//===----------------------------------------------------------------------===//
// Element linking
//===----------------------------------------------------------------------===//

TEST(JsParserElements, DeclaredVarOccurrencesShareElement) {
  StringInterner SI;
  lang::ParseResult R =
      js::parse("var d = false; while (!d) { d = true; }", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  // Find the element named "d": must be a predictable local with 3 uses.
  bool Found = false;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    if (SI.str(T.element(E).Name) != "d")
      continue;
    Found = true;
    EXPECT_EQ(T.element(E).Kind, ElementKind::LocalVar);
    EXPECT_TRUE(T.element(E).Predictable);
    EXPECT_EQ(T.occurrences(E).size(), 3u);
  }
  EXPECT_TRUE(Found);
}

TEST(JsParserElements, UndeclaredCalleeIsKnownMethod) {
  StringInterner SI;
  lang::ParseResult R = js::parse("while (!d) { someCondition(); }", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    const ElementInfo &Info = T.element(E);
    if (SI.str(Info.Name) == "someCondition") {
      EXPECT_EQ(Info.Kind, ElementKind::Method);
      EXPECT_FALSE(Info.Predictable);
    }
    if (SI.str(Info.Name) == "d") {
      EXPECT_EQ(Info.Kind, ElementKind::LocalVar);
      EXPECT_TRUE(Info.Predictable);
    }
  }
}

TEST(JsParserElements, ShadowingCreatesDistinctElements) {
  StringInterner SI;
  lang::ParseResult R =
      js::parse("var x = 1; function f(x) { return x; }", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  int XElements = 0;
  for (ElementId E = 0; E < T.elements().size(); ++E)
    if (SI.str(T.element(E).Name) == "x")
      ++XElements;
  EXPECT_EQ(XElements, 2) << "outer var and parameter must be distinct";
}

TEST(JsParserElements, FunctionNameIsPredictableMethod) {
  StringInterner SI;
  lang::ParseResult R = js::parse("function count(xs) { return xs; }", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  bool Found = false;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    if (SI.str(T.element(E).Name) != "count")
      continue;
    Found = true;
    EXPECT_EQ(T.element(E).Kind, ElementKind::Method);
    EXPECT_TRUE(T.element(E).Predictable);
  }
  EXPECT_TRUE(Found);
}

TEST(JsParserElements, LocalCallResolvesToDefun) {
  StringInterner SI;
  lang::ParseResult R =
      js::parse("function helper() { return 1; } helper();", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    if (SI.str(T.element(E).Name) == "helper") {
      EXPECT_EQ(T.occurrences(E).size(), 2u)
          << "definition and call site must be merged";
    }
  }
}

TEST(JsParserElements, PropertiesAreNotElements) {
  StringInterner SI;
  lang::ParseResult R = js::parse("obj.send(x);", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E)
    EXPECT_NE(SI.str(T.element(E).Name), "send");
}

//===----------------------------------------------------------------------===//
// Error handling
//===----------------------------------------------------------------------===//

TEST(JsParserErrors, ReportsUnterminatedString) {
  StringInterner SI;
  lang::ParseResult R = js::parse("var s = 'oops", SI);
  EXPECT_FALSE(R.Diags.empty());
}

TEST(JsParserErrors, ReportsMissingParen) {
  StringInterner SI;
  lang::ParseResult R = js::parse("if (a { f(); }", SI);
  EXPECT_FALSE(R.Diags.empty());
}

TEST(JsParserErrors, RecoversAndKeepsParsing) {
  StringInterner SI;
  lang::ParseResult R = js::parse("var = 1; var ok = 2;", SI);
  ASSERT_TRUE(R.Tree.has_value());
  EXPECT_FALSE(R.Diags.empty());
  // The second statement must still be present.
  EXPECT_NE(R.Tree->sexpr().find("(SymbolVar ok)"), std::string::npos);
}

TEST(JsParserErrors, NeverInfiniteLoopsOnGarbage) {
  StringInterner SI;
  lang::ParseResult R = js::parse("@@@@ ### $$$$", SI);
  ASSERT_TRUE(R.Tree.has_value());
  EXPECT_FALSE(R.Diags.empty());
}

TEST(JsParserRecovery, OperatorDriftRaisesDiagnosticNotUB) {
  // `a - - - b`: the binary-chain lookahead counts two '-' at the additive
  // level (the second minus re-arms PrevWasOperand), but the parser's
  // unary path consumes `- - b` whole — the replay then meets ';' where it
  // expected '-'. Pre-fix this was a bare assert, compiled out of Release
  // builds, silently producing a wrong AST; it must now surface as an
  // always-on "operator drift" diagnostic so the pipeline drops the file.
  StringInterner SI;
  lang::ParseResult R = js::parse("var x = a - - - b;", SI);
  ASSERT_TRUE(R.Tree.has_value());
  bool SawDrift = false;
  for (const lang::Diagnostic &D : R.Diags)
    SawDrift |= D.Message.find("operator drift") != std::string::npos;
  EXPECT_TRUE(SawDrift) << "drift must raise a diagnostic: "
                        << (R.Diags.empty() ? "(none)" : R.Diags[0].str());
}

//===----------------------------------------------------------------------===//
// Nesting budget
//===----------------------------------------------------------------------===//

TEST(JsParserNesting, AtLimitParsesOneDeeperFailsClosed) {
  // A statement and its expression take two levels; each group, prefix
  // operator or block one more.
  const std::pair<const char *, const char *> Nests[] = {
      {"(", ")"}, {"[", "]"}, {"!", ""}, {"~", ""}, {"{", "}"}};
  for (const auto &[Open, Close] : Nests)
    test::expectNestingLimit(js::parse, "", Open, "x", Close, ";", 2);
}

} // namespace
