//===- tests/scheme/compiler_test.cpp - Bytecode compiler internals ------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "scheme/Compiler.h"
#include "scheme/Printer.h"
#include "scheme/Reader.h"
#include "scheme/VM.h"

#include <gtest/gtest.h>

using namespace gengc;

namespace {

HeapConfig testConfig() {
  HeapConfig C;
  C.ArenaBytes = 64u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

class CompilerTest : public ::testing::Test {
protected:
  CompilerTest() : H(testConfig()), I(H), Program(H) {}

  /// Compiles one form; returns the disassembly of the unit that
  /// \p UnitOffset units before the entry (0 = the entry unit itself,
  /// 1 = the most recently created nested unit, ...).
  std::string compileAndDisassemble(const std::string &Src,
                                    size_t UnitOffset = 0) {
    Root Form(H, readDatum(H, Src));
    Compiler C(I, Program);
    size_t Entry = C.compileTopLevel(Form);
    EXPECT_FALSE(C.hadError()) << C.error();
    if (C.hadError() || Entry == SIZE_MAX)
      return "";
    // Nested units are created before the entry unit finishes.
    size_t Index = Entry - UnitOffset;
    return disassemble(Program, Program.unit(Index));
  }

  Heap H;
  Interpreter I;
  CompiledProgram Program;
};

TEST_F(CompilerTest, ConstantsAndImmediates) {
  std::string D = compileAndDisassemble("42");
  EXPECT_NE(D.find("const"), std::string::npos);
  EXPECT_NE(D.find("{42}"), std::string::npos);
  EXPECT_NE(compileAndDisassemble("#t").find("push-true"),
            std::string::npos);
  // Quoted data always goes through the constant pool.
  EXPECT_NE(compileAndDisassemble("'()").find("{()}"),
            std::string::npos);
}

TEST_F(CompilerTest, ConstantsAreDeduplicated) {
  std::string D = compileAndDisassemble("(cons 'x 'x)");
  // 'x appears twice in the source but once in the pool: both const
  // instructions reference operand index of the same slot.
  size_t First = D.find("{x}");
  ASSERT_NE(First, std::string::npos);
  size_t Second = D.find("{x}", First + 1);
  ASSERT_NE(Second, std::string::npos);
  // Extract the operand numbers preceding both {x} occurrences.
  auto OperandBefore = [&](size_t Pos) {
    size_t SpaceBefore = D.rfind(' ', Pos - 2);
    return D.substr(SpaceBefore + 1, Pos - SpaceBefore - 2);
  };
  EXPECT_EQ(OperandBefore(First), OperandBefore(Second));
}

TEST_F(CompilerTest, GlobalVsLexicalResolution) {
  std::string Global = compileAndDisassemble("some-global");
  EXPECT_NE(Global.find("global-ref"), std::string::npos);
  // Inside the lambda (nested unit), x resolves lexically.
  std::string Lambda = compileAndDisassemble("(lambda (x) x)", 1);
  EXPECT_NE(Lambda.find("local-ref 0 0"), std::string::npos);
  EXPECT_EQ(Lambda.find("global-ref"), std::string::npos);
}

TEST_F(CompilerTest, LexicalDepthAcrossNestedLambdas) {
  // y is one frame out from the inner lambda's body. Units are
  // finished innermost-first: inner lambda, outer lambda, entry -- so
  // the inner body is two units before the entry.
  std::string Inner =
      compileAndDisassemble("(lambda (y) (lambda (x) (+ y x)))", 2);
  EXPECT_NE(Inner.find("local-ref 1 0"), std::string::npos)
      << "y at depth 1, index 0:\n"
      << Inner;
  EXPECT_NE(Inner.find("local-ref 0 0"), std::string::npos)
      << "x at depth 0, index 0:\n"
      << Inner;
}

TEST_F(CompilerTest, TailPositionsUseTailCall) {
  std::string D =
      compileAndDisassemble("(lambda (n) (if (zero? n) 1 (f n)))", 1);
  EXPECT_NE(D.find("tail-call 1"), std::string::npos)
      << "call in tail position:\n"
      << D;
  EXPECT_NE(D.find("call 1"), std::string::npos)
      << "(zero? n) is not in tail position";
}

TEST_F(CompilerTest, CaseLambdaEmitsArityDispatch) {
  std::string D =
      compileAndDisassemble("(case-lambda [() 0] [(x) x])", 1);
  EXPECT_NE(D.find("arity-jump 0 0"), std::string::npos);
  EXPECT_NE(D.find("arity-jump 1 0"), std::string::npos);
  EXPECT_NE(D.find("arity-fail"), std::string::npos);
}

TEST_F(CompilerTest, RestParameterMarksBind) {
  std::string D = compileAndDisassemble("(lambda (a . r) r)", 1);
  EXPECT_NE(D.find("bind 1 1"), std::string::npos)
      << "one fixed parameter plus a rest list:\n"
      << D;
}

TEST_F(CompilerTest, LetCompilesToScopes) {
  std::string D = compileAndDisassemble("(let ([x 1]) x)");
  EXPECT_NE(D.find("enter-scope 1"), std::string::npos);
  EXPECT_NE(D.find("exit-scope"), std::string::npos);
  std::string DRec = compileAndDisassemble("(letrec ([x 1]) x)");
  EXPECT_NE(DRec.find("enter-scope-undef 1"), std::string::npos);
}

TEST_F(CompilerTest, GoldenLetrec) {
  // Golden text for a letrec: a fresh frame of unbound slots, each init
  // stored into its slot (a constant, then a call's result), then the
  // body's reference.
  EXPECT_EQ(compileAndDisassemble("(letrec ([a 1] [b (f)]) b)"),
            ";; unit 'top-level'\n"
            "0: bind 0 0\n"
            "3: enter-scope-undef 2\n"
            "5: const 0 {1}\n"
            "7: local-set 0 0\n"
            "10: pop\n"
            "11: global-ref 1 {f}\n"
            "13: call 0\n"
            "15: local-set 0 1\n"
            "18: pop\n"
            "19: local-ref 0 1\n"
            "22: exit-scope\n"
            "23: return\n");
}

TEST_F(CompilerTest, CompileErrors) {
  {
    Root Form(H, readDatum(H, "(lambda (\"s\") 1)"));
    Compiler C(I, Program);
    C.compileTopLevel(Form);
    EXPECT_TRUE(C.hadError());
  }
  {
    Root Form(H, readDatum(H, "(define 42 1)"));
    Compiler C(I, Program);
    C.compileTopLevel(Form);
    EXPECT_TRUE(C.hadError());
  }
}

TEST_F(CompilerTest, CompilationSurvivesCollection) {
  // Constants frozen into pools must be traced: compile, collect
  // everything, then run.
  Interpreter I2(H);
  VirtualMachine VM(I2);
  Value V = VM.evalString("(define (greet) '(hello guarded world))");
  ASSERT_FALSE(VM.hadError()) << VM.errorMessage();
  H.collectFull();
  H.collectFull();
  V = VM.evalString("(greet)");
  ASSERT_FALSE(VM.hadError()) << VM.errorMessage();
  EXPECT_EQ(writeToString(H, V), "(hello guarded world)");
  H.verifyHeap();
}

} // namespace
