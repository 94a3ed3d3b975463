//===- py_parser_test.cpp - Unit tests for the MiniPy frontend -------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "lang/python/PyParser.h"

#include "ParserNesting.h"

#include <gtest/gtest.h>

using namespace pigeon;
using namespace pigeon::ast;

namespace {

std::string sexprOf(std::string_view Source) {
  StringInterner SI;
  lang::ParseResult R = py::parse(Source, SI);
  EXPECT_TRUE(R.Tree.has_value());
  for (const lang::Diagnostic &D : R.Diags)
    ADD_FAILURE() << "diagnostic: " << D.str() << " in: " << Source;
  return R.Tree ? R.Tree->sexpr() : "";
}

TEST(PyParser, EmptyModule) { EXPECT_EQ(sexprOf(""), "(Module)"); }

TEST(PyParser, SimpleAssignment) {
  EXPECT_EQ(sexprOf("x = 1\n"),
            "(Module (Assign (Name x) (Num 1)))");
}

TEST(PyParser, TupleAssignment) {
  // Fig. 7's `o, e = p.communicate()` shape.
  EXPECT_EQ(sexprOf("o, e = p.communicate()\n"),
            "(Module (Assign (Tuple (Name o) (Name e)) (Call (Attribute "
            "(Name p) (attr communicate)))))");
}

TEST(PyParser, AugmentedAssignment) {
  EXPECT_EQ(sexprOf("total += x\n"),
            "(Module (AugAssign+= (Name total) (Name x)))");
}

TEST(PyParser, FunctionDef) {
  EXPECT_EQ(sexprOf("def f(a, b):\n    return a\n"),
            "(Module (FunctionDef (FunctionName f) (arguments (arg a) (arg "
            "b)) (Body (Return (Name a)))))");
}

TEST(PyParser, DefaultParameter) {
  EXPECT_EQ(sexprOf("def f(a=1):\n    pass\n"),
            "(Module (FunctionDef (FunctionName f) (arguments (arg a) "
            "(default (Num 1))) (Body (Pass))))");
}

TEST(PyParser, Fig7Sh3Shape) {
  // The paper's Fig. 7 Python example (abbreviated).
  std::string S = sexprOf(
      "def sh3(c):\n"
      "    p = Popen(c, stdout=PIPE, stderr=PIPE, shell=True)\n"
      "    o, e = p.communicate()\n"
      "    r = p.returncode\n"
      "    if r:\n"
      "        raise CalledProcessError(r, c)\n"
      "    else:\n"
      "        return o.rstrip(), e.rstrip()\n");
  EXPECT_NE(S.find("(FunctionDef (FunctionName sh3) (arguments (arg c))"),
            std::string::npos);
  EXPECT_NE(S.find("(keyword (KeywordArg stdout) (Name PIPE))"),
            std::string::npos);
  EXPECT_NE(S.find("(Raise (Call (Name CalledProcessError) (Name r) (Name "
                   "c)))"),
            std::string::npos);
  EXPECT_NE(S.find("(Return (Tuple (Call (Attribute (Name o) (attr "
                   "rstrip))) (Call (Attribute (Name e) (attr rstrip)))))"),
            std::string::npos);
}

TEST(PyParser, IfElifElse) {
  EXPECT_EQ(
      sexprOf("if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n"),
      "(Module (If (Name a) (Body (Assign (Name x) (Num 1))) (OrElse (If "
      "(Name b) (Body (Assign (Name x) (Num 2))) (OrElse (Body (Assign "
      "(Name x) (Num 3))))))))");
}

TEST(PyParser, WhileLoop) {
  EXPECT_EQ(sexprOf("while not done:\n    step()\n"),
            "(Module (While (UnaryOpNot (Name done)) (Body (Expr (Call "
            "(Name step))))))");
}

TEST(PyParser, ForLoop) {
  EXPECT_EQ(sexprOf("for item in items:\n    use(item)\n"),
            "(Module (For (Name item) (Name items) (Body (Expr (Call (Name "
            "use) (Name item))))))");
}

TEST(PyParser, ForWithTupleTarget) {
  EXPECT_EQ(sexprOf("for k, v in pairs:\n    pass\n"),
            "(Module (For (Tuple (Name k) (Name v)) (Name pairs) (Body "
            "(Pass))))");
}

TEST(PyParser, ComparisonOperators) {
  EXPECT_EQ(sexprOf("r = i < n\n"),
            "(Module (Assign (Name r) (Compare< (Name i) (Name n))))");
  EXPECT_EQ(sexprOf("r = x == y\n"),
            "(Module (Assign (Name r) (Compare== (Name x) (Name y))))");
}

TEST(PyParser, MembershipAndIdentity) {
  EXPECT_EQ(sexprOf("r = k in d\n"),
            "(Module (Assign (Name r) (Comparein (Name k) (Name d))))");
  EXPECT_EQ(sexprOf("r = x is None\n"),
            "(Module (Assign (Name r) (Compareis (Name x) (NameConstant "
            "None))))");
  EXPECT_EQ(sexprOf("r = x is not None\n"),
            "(Module (Assign (Name r) (Compareis not (Name x) "
            "(NameConstant None))))");
}

TEST(PyParser, BooleanPrecedence) {
  EXPECT_EQ(sexprOf("r = a or b and c\n"),
            "(Module (Assign (Name r) (BoolOpOr (Name a) (BoolOpAnd (Name "
            "b) (Name c)))))");
}

TEST(PyParser, ArithmeticPrecedence) {
  EXPECT_EQ(sexprOf("r = a + b * c\n"),
            "(Module (Assign (Name r) (BinOp+ (Name a) (BinOp* (Name b) "
            "(Name c)))))");
}

TEST(PyParser, ParenthesesGrouping) {
  EXPECT_EQ(sexprOf("r = (a + b) * c\n"),
            "(Module (Assign (Name r) (BinOp* (BinOp+ (Name a) (Name b)) "
            "(Name c))))");
}

TEST(PyParser, FloorDivAndPower) {
  EXPECT_EQ(sexprOf("r = a // b\n"),
            "(Module (Assign (Name r) (BinOp// (Name a) (Name b))))");
  EXPECT_EQ(sexprOf("r = a ** 2\n"),
            "(Module (Assign (Name r) (BinOp** (Name a) (Num 2))))");
  // A looser operator ends the `**` chain's scan.
  EXPECT_EQ(sexprOf("r = a * b ** c\n"),
            "(Module (Assign (Name r) (BinOp* (Name a) "
            "(BinOp** (Name b) (Name c)))))");
}

TEST(PyParser, UnaryMinus) {
  EXPECT_EQ(sexprOf("r = -x\n"),
            "(Module (Assign (Name r) (UnaryOpUSub (Name x))))");
}

TEST(PyParser, TernaryIfExp) {
  EXPECT_EQ(sexprOf("r = a if cond else b\n"),
            "(Module (Assign (Name r) (IfExp (Name a) (Name cond) (Name "
            "b))))");
}

TEST(PyParser, ListAndDictLiterals) {
  EXPECT_EQ(sexprOf("xs = [1, 2]\n"),
            "(Module (Assign (Name xs) (List (Num 1) (Num 2))))");
  EXPECT_EQ(sexprOf("d = {'a': 1}\n"),
            "(Module (Assign (Name d) (Dict (DictItem (Str a) (Num 1)))))");
}

TEST(PyParser, SubscriptAndSlice) {
  EXPECT_EQ(sexprOf("v = xs[i]\n"),
            "(Module (Assign (Name v) (Subscript (Name xs) (Name i))))");
  EXPECT_EQ(sexprOf("v = xs[1:2]\n"),
            "(Module (Assign (Name v) (Subscript (Name xs) (Slice (Num 1) "
            "(Num 2)))))");
}

TEST(PyParser, ClassWithMethods) {
  std::string S = sexprOf("class Counter:\n"
                          "    def __init__(self):\n"
                          "        self.count = 0\n"
                          "    def inc(self):\n"
                          "        self.count += 1\n");
  EXPECT_NE(S.find("(ClassDef (ClassName Counter)"), std::string::npos);
  EXPECT_NE(S.find("(Assign (Attribute (Name self) (attr count)) (Num 0))"),
            std::string::npos);
  EXPECT_NE(S.find("(AugAssign+= (Attribute (Name self) (attr count)) (Num "
                   "1))"),
            std::string::npos);
}

TEST(PyParser, TryExceptFinally) {
  std::string S = sexprOf("try:\n    f()\nexcept ValueError as e:\n    "
                          "g(e)\nfinally:\n    h()\n");
  EXPECT_NE(S.find("(Try (Body (Expr (Call (Name f)))) (ExceptHandler "
                   "(ExceptType (Name ValueError)) (ExceptName e) (Body "
                   "(Expr (Call (Name g) (Name e)))))"),
            std::string::npos);
  EXPECT_NE(S.find("(FinallyBody (Body (Expr (Call (Name h)))))"),
            std::string::npos);
}

TEST(PyParser, Imports) {
  EXPECT_EQ(sexprOf("import os.path\n"),
            "(Module (Import (alias os.path)))");
  EXPECT_EQ(sexprOf("from subprocess import Popen, PIPE\n"),
            "(Module (ImportFrom (module subprocess) (alias Popen) (alias "
            "PIPE)))");
}

TEST(PyParser, InlineSuite) {
  EXPECT_EQ(sexprOf("if x: y = 1\n"),
            "(Module (If (Name x) (Body (Assign (Name y) (Num 1)))))");
}

TEST(PyParser, BracketsAllowMultilineCalls) {
  EXPECT_EQ(sexprOf("r = f(a,\n      b)\n"),
            "(Module (Assign (Name r) (Call (Name f) (Name a) (Name b))))");
}

TEST(PyParser, CommentsIgnored) {
  EXPECT_EQ(sexprOf("# header\nx = 1  # trailing\n"),
            "(Module (Assign (Name x) (Num 1)))");
}

TEST(PyParser, ChainedAssignment) {
  EXPECT_EQ(sexprOf("a = b = 1\n"),
            "(Module (Assign (Name a) (Name b) (Num 1)))");
}

//===----------------------------------------------------------------------===//
// Element linking
//===----------------------------------------------------------------------===//

TEST(PyParserElements, AssignedNamesBecomeLocals) {
  StringInterner SI;
  lang::ParseResult R =
      py::parse("def f(c):\n    r = c + 1\n    return r\n", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    const ElementInfo &Info = T.element(E);
    if (SI.str(Info.Name) == "r") {
      EXPECT_EQ(Info.Kind, ElementKind::LocalVar);
      EXPECT_TRUE(Info.Predictable);
      EXPECT_EQ(T.occurrences(E).size(), 2u);
    }
    if (SI.str(Info.Name) == "c") {
      EXPECT_EQ(Info.Kind, ElementKind::Parameter);
      EXPECT_TRUE(Info.Predictable);
    }
  }
}

TEST(PyParserElements, SelfIsNotPredictable) {
  StringInterner SI;
  lang::ParseResult R = py::parse(
      "class A:\n    def m(self):\n        return self\n", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E)
    if (SI.str(T.element(E).Name) == "self") {
      EXPECT_FALSE(T.element(E).Predictable);
    }
}

TEST(PyParserElements, UnresolvedCalleeIsKnownFunction) {
  StringInterner SI;
  lang::ParseResult R = py::parse("x = len(items)\n", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    const ElementInfo &Info = T.element(E);
    if (SI.str(Info.Name) == "len") {
      EXPECT_EQ(Info.Kind, ElementKind::Method);
      EXPECT_FALSE(Info.Predictable);
    }
    if (SI.str(Info.Name) == "items") {
      EXPECT_FALSE(Info.Predictable) << "unresolved read is a known global";
    }
  }
}

TEST(PyParserElements, SelfAttrLinksAcrossMethods) {
  StringInterner SI;
  lang::ParseResult R = py::parse("class A:\n"
                                  "    def set(self, v):\n"
                                  "        self.value = v\n"
                                  "    def get(self):\n"
                                  "        return self.value\n",
                                  SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E) {
    if (SI.str(T.element(E).Name) != "value")
      continue;
    EXPECT_EQ(T.element(E).Kind, ElementKind::Field);
    EXPECT_EQ(T.occurrences(E).size(), 2u)
        << "self.value write and read must merge";
  }
}

TEST(PyParserElements, ModuleFunctionCallLinksToDef) {
  StringInterner SI;
  lang::ParseResult R =
      py::parse("def helper():\n    return 1\nx = helper()\n", SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  for (ElementId E = 0; E < T.elements().size(); ++E)
    if (SI.str(T.element(E).Name) == "helper") {
      EXPECT_EQ(T.occurrences(E).size(), 2u);
    }
}

TEST(PyParserElements, FunctionScopesAreIsolated) {
  StringInterner SI;
  lang::ParseResult R = py::parse(
      "def f():\n    x = 1\n    return x\ndef g():\n    x = 2\n    return "
      "x\n",
      SI);
  ASSERT_TRUE(R.Tree.has_value());
  const Tree &T = *R.Tree;
  int XCount = 0;
  for (ElementId E = 0; E < T.elements().size(); ++E)
    if (SI.str(T.element(E).Name) == "x")
      ++XCount;
  EXPECT_EQ(XCount, 2) << "x in f and x in g are distinct elements";
}

TEST(PyParser, CommasAndColonsInsideBracketsKeepOperatorChains) {
  // Operator lookahead skips bracket groups whole: a ',' or ':' inside one
  // does not end the chain.
  const std::pair<const char *, const char *> Cases[] = {
      {"y = [a, b] + [b]\n",
       "(Module (Assign (Name y) (BinOp+ (List (Name a) (Name b)) "
       "(List (Name b)))))"},
      {"x = a + g(b, a) + b\n",
       "(Module (Assign (Name x) (BinOp+ (BinOp+ (Name a) "
       "(Call (Name g) (Name b) (Name a))) (Name b))))"},
      {"x = a + d[1:2] + b\n",
       "(Module (Assign (Name x) (BinOp+ (BinOp+ (Name a) "
       "(Subscript (Name d) (Slice (Num 1) (Num 2)))) (Name b))))"},
      {"x = a or g(b, a) or b\n",
       "(Module (Assign (Name x) (BoolOpOr (Name a) "
       "(Call (Name g) (Name b) (Name a)) (Name b))))"},
      {"def f():\n    return a * g(b, a) * b\n",
       "(Module (FunctionDef (FunctionName f) (arguments) (Body (Return "
       "(BinOp* (BinOp* (Name a) (Call (Name g) (Name b) (Name a))) "
       "(Name b))))))"},
  };
  for (const auto &[Source, Expected] : Cases)
    EXPECT_EQ(sexprOf(Source), Expected) << Source;
}

//===----------------------------------------------------------------------===//
// Error handling
//===----------------------------------------------------------------------===//

TEST(PyParserErrors, MissingColonDiagnosed) {
  StringInterner SI;
  lang::ParseResult R = py::parse("if x\n    y = 1\n", SI);
  EXPECT_FALSE(R.Diags.empty());
}

TEST(PyParserErrors, BadIndentationDiagnosed) {
  StringInterner SI;
  lang::ParseResult R = py::parse("if x:\n        y = 1\n   z = 2\n", SI);
  EXPECT_FALSE(R.Diags.empty());
}

TEST(PyParserErrors, GarbageTerminates) {
  StringInterner SI;
  lang::ParseResult R = py::parse("&& ^^ ~~\n", SI);
  ASSERT_TRUE(R.Tree.has_value());
  EXPECT_FALSE(R.Diags.empty());
}

//===----------------------------------------------------------------------===//
// Nesting budget
//===----------------------------------------------------------------------===//

TEST(PyParserNesting, AtLimitParsesOneDeeperFailsClosed) {
  // A statement and its expression take two levels; each group or prefix
  // operator one more.
  const std::pair<const char *, const char *> Nests[] = {
      {"(", ")"}, {"[", "]"}, {"not ", ""}, {"- ", ""}};
  for (const auto &[Open, Close] : Nests)
    test::expectNestingLimit(py::parse, "x = ", Open, "y", Close, "\n", 2);
}

} // namespace
