//===- tests/scheme/vm_test.cpp - Bytecode compiler and VM ---------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
// The VM is a second execution engine over the same collected heap;
// the differential suite at the bottom runs a corpus through both the
// tree-walking interpreter and the VM and demands identical printed
// results -- cross-checking evaluator semantics AND the collector
// underneath two very different allocation patterns.
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
  C.ArenaBytes = 128u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

class VmTest : public ::testing::Test {
protected:
  VmTest() : H(testConfig()), I(H), VM(I) {}

  std::string run(const std::string &Src) {
    Value V = VM.evalString(Src);
    EXPECT_FALSE(VM.hadError()) << VM.errorMessage() << " in: " << Src;
    return writeToString(H, V);
  }

  Heap H;
  Interpreter I;
  VirtualMachine VM;
};

TEST_F(VmTest, SelfEvaluatingAndQuote) {
  EXPECT_EQ(run("42"), "42");
  EXPECT_EQ(run("#t"), "#t");
  EXPECT_EQ(run("'(1 2 3)"), "(1 2 3)");
  EXPECT_EQ(run("\"hi\""), "\"hi\"");
  EXPECT_EQ(run("'sym"), "sym");
}

TEST_F(VmTest, PrimitiveCalls) {
  EXPECT_EQ(run("(+ 1 2 3)"), "6");
  EXPECT_EQ(run("(cons 1 (cons 2 '()))"), "(1 2)");
  EXPECT_EQ(run("(length '(a b c))"), "3");
}

TEST_F(VmTest, GlobalsAndLambdas) {
  EXPECT_EQ(run("(define x 10) x"), "10");
  EXPECT_EQ(run("(set! x 20) x"), "20");
  EXPECT_EQ(run("(define (sq n) (* n n)) (sq 9)"), "81");
  EXPECT_EQ(run("((lambda (a b) (- a b)) 10 4)"), "6");
  EXPECT_EQ(run("((lambda args args) 1 2 3)"), "(1 2 3)");
  EXPECT_EQ(run("((lambda (a . r) (cons a r)) 1 2 3)"), "(1 2 3)");
}

TEST_F(VmTest, LexicalCapture) {
  EXPECT_EQ(run("(define (adder n) (lambda (m) (+ n m)))"
                "((adder 10) 5)"),
            "15");
  EXPECT_EQ(run("(define (counter)"
                "  (let ([n 0])"
                "    (lambda () (set! n (+ n 1)) n)))"
                "(define c (counter))"
                "(c) (c) (c)"),
            "3");
}

TEST_F(VmTest, CaseLambdaArityDispatch) {
  EXPECT_EQ(run("(define f (case-lambda"
                "  [() 'zero]"
                "  [(x) x]"
                "  [(x . rest) (cons x rest)]))"
                "(list (f) (f 1) (f 1 2 3))"),
            "(zero 1 (1 2 3))");
}

TEST_F(VmTest, LetForms) {
  EXPECT_EQ(run("(let ([x 1] [y 2]) (+ x y))"), "3");
  EXPECT_EQ(run("(let* ([x 1] [y (+ x 1)]) (* x y))"), "2");
  EXPECT_EQ(run("(letrec ([even? (lambda (n) (if (zero? n) #t (odd? "
                "(- n 1))))]"
                "         [odd? (lambda (n) (if (zero? n) #f (even? "
                "(- n 1))))])"
                "  (even? 20))"),
            "#t");
  EXPECT_EQ(run("(let loop ([i 0] [acc 1])"
                "  (if (= i 5) acc (loop (+ i 1) (* acc 2))))"),
            "32");
}

TEST_F(VmTest, TailCallsRunInConstantStack) {
  EXPECT_EQ(run("(let loop ([i 0])"
                "  (if (= i 2000000) i (loop (+ i 1))))"),
            "2000000");
}

TEST_F(VmTest, ConditionalsShortCircuit) {
  EXPECT_EQ(run("(and 1 2 3)"), "3");
  EXPECT_EQ(run("(and 1 #f 3)"), "#f");
  EXPECT_EQ(run("(and)"), "#t");
  EXPECT_EQ(run("(or #f 'found 'not-this)"), "found");
  EXPECT_EQ(run("(or #f #f)"), "#f");
  EXPECT_EQ(run("(define calls 0)"
                "(define (bump!) (set! calls (+ calls 1)) #f)"
                "(or (bump!) (bump!) 'done)"
                "calls"),
            "2")
      << "or must evaluate each arm exactly once";
  EXPECT_EQ(run("(cond (#f 1) (2) (else 3))"), "2")
      << "(cond (test)) yields the test value";
  EXPECT_EQ(run("(when (= 1 1) 'a 'b)"), "b");
  EXPECT_EQ(run("(unless (= 1 1) 'a 'b)"), "#<void>");
}

TEST_F(VmTest, GuardiansFromCompiledCode) {
  EXPECT_EQ(run("(define G (make-guardian))"
                "(define x (cons 'a 'b))"
                "(G x)"
                "(G)"),
            "#f");
  EXPECT_EQ(run("(set! x #f) (collect 3) (G)"), "(a . b)");
  EXPECT_EQ(run("(G)"), "#f");
  H.verifyHeap();
}

TEST_F(VmTest, CrossEngineCalls) {
  // The prelude's `map` is an interpreter closure; the mapped
  // procedure here is a VM closure -- and vice versa.
  EXPECT_EQ(run("(map (lambda (x) (* x x)) '(1 2 3))"), "(1 4 9)");
  // A VM closure stored globally and applied via the interpreter.
  run("(define vm-double (lambda (x) (* 2 x)))");
  Value V = I.evalString("(vm-double 21)");
  ASSERT_FALSE(I.hadError()) << I.errorMessage();
  EXPECT_EQ(writeToString(H, V), "42");
  EXPECT_EQ(writeToString(H, I.evalString("(procedure? vm-double)")),
            "#t");
}

TEST_F(VmTest, ErrorsSurfaceAndUnwind) {
  VM.evalString("(car 5)");
  EXPECT_TRUE(VM.hadError());
  VM.clearError();
  VM.evalString("undefined-variable");
  EXPECT_TRUE(VM.hadError());
  VM.clearError();
  VM.evalString("((lambda (x) x) 1 2)");
  EXPECT_TRUE(VM.hadError());
  VM.clearError();
  // The machine still works after unwinding.
  EXPECT_EQ(run("(+ 1 1)"), "2");
}

TEST_F(VmTest, DisassemblerProducesText) {
  CompiledProgram &P = VM.program();
  run("(define (f x) (+ x 1))");
  ASSERT_GT(P.unitCount(), 0u);
  std::string Text = disassemble(P, P.unit(0));
  EXPECT_NE(Text.find("bind"), std::string::npos);
  EXPECT_NE(Text.find("return"), std::string::npos);
}

TEST_F(VmTest, CompileErrorsReported) {
  VM.evalString("(lambda (1 2) 3)"); // Non-symbol formals.
  EXPECT_TRUE(VM.hadError());
  EXPECT_NE(VM.errorMessage().find("compile error"), std::string::npos);
}

TEST_F(VmTest, VmUnderGcPressure) {
  HeapConfig C = testConfig();
  C.AutoCollect = true;
  C.Gen0CollectBytes = 32 * 1024;
  Heap H2(C);
  Interpreter I2(H2);
  VirtualMachine VM2(I2);
  Value V = VM2.evalString(
      "(define (iota n) (let loop ([i 0] [acc '()])"
      "  (if (= i n) (reverse acc) (loop (+ i 1) (cons i acc)))))"
      "(define (sum lst) (let loop ([l lst] [acc 0])"
      "  (if (null? l) acc (loop (cdr l) (+ acc (car l))))))"
      "(sum (map (lambda (x) (* x x)) (iota 500)))");
  ASSERT_FALSE(VM2.hadError()) << VM2.errorMessage();
  EXPECT_EQ(V.asFixnum(), 499 * 500 * 999 / 6);
  EXPECT_GT(H2.collectionCount(), 0u);
  H2.verifyHeap();
}

TEST_F(VmTest, Figure1GuardedHashTableCompiled) {
  // The paper's make-guarded-hash-table, compiled to bytecode.
  const char *Fig1 = R"scheme(
    (define make-guarded-hash-table
      (lambda (hash size)
        (let ([g (make-guardian)]
              [v (make-vector size '())])
          (lambda (key value)
            (let loop ([z (g)])
              (if z
                  (begin
                    (let ([h (hash z size)])
                      (let ([bucket (vector-ref v h)])
                        (vector-set! v h
                          (remq (assq z bucket) bucket))))
                    (loop (g)))))
            (let ([h (hash key size)])
              (let ([bucket (vector-ref v h)])
                (let ([a (assq key bucket)])
                  (if a
                      (cdr a)
                      (let ([a (weak-cons key value)])
                        (vector-set! v h (cons a bucket))
                        (g key)
                        value)))))))))
    (define table (make-guarded-hash-table
      (lambda (k size) (modulo (car k) size)) 8))
    (define k1 (cons 1 'k1))
    (table k1 'v1)
  )scheme";
  VM.evalString(Fig1);
  ASSERT_FALSE(VM.hadError()) << VM.errorMessage();
  EXPECT_EQ(run("(table k1 'other)"), "v1");
  run("(set! k1 #f) (collect 3)");
  EXPECT_EQ(run("(table (cons 1 'k1) 'fresh)"), "fresh")
      << "dead key's association removed by the compiled clean-up loop";
  H.verifyHeap();
}

//===----------------------------------------------------------------------===//
// Differential corpus: interpreter vs. VM, fresh heaps each.
//===----------------------------------------------------------------------===//

class DifferentialTest : public ::testing::TestWithParam<const char *> {};

TEST_P(DifferentialTest, InterpreterAndVmAgree) {
  const char *Src = GetParam();
  std::string InterpResult, VmResult;
  {
    Heap H(testConfig());
    Interpreter I(H);
    Value V = I.evalString(Src);
    ASSERT_FALSE(I.hadError()) << "interp: " << I.errorMessage();
    InterpResult = writeToString(H, V);
    H.collectFull();
    H.verifyHeap();
  }
  {
    Heap H(testConfig());
    Interpreter I(H);
    VirtualMachine VM(I);
    Value V = VM.evalString(Src);
    ASSERT_FALSE(VM.hadError()) << "vm: " << VM.errorMessage();
    VmResult = writeToString(H, V);
    H.collectFull();
    H.verifyHeap();
  }
  EXPECT_EQ(InterpResult, VmResult) << "engines disagree on: " << Src;
}

const char *Corpus[] = {
    "(+ 1 (* 2 3) (- 10 4))",
    "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 12)",
    "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) "
    "(fib 15)",
    "(let loop ([i 0] [acc '()]) (if (= i 10) acc (loop (+ i 1) "
    "(cons i acc))))",
    "(define (compose f g) (lambda (x) (f (g x)))) "
    "((compose (lambda (x) (* 2 x)) (lambda (x) (+ x 3))) 10)",
    "(map (lambda (p) (car p)) '((1 . a) (2 . b) (3 . c)))",
    "(filter (lambda (x) (< x 5)) '(9 1 8 2 7 3))",
    "(append '(1 2) '(3 4) '() '(5))",
    "(reverse '(a b c d e))",
    "(assq 'c '((a . 1) (b . 2) (c . 3)))",
    "(remq 'x '(x y x z x))",
    "(let* ([a 1] [b (+ a 1)] [c (* b b)]) (list a b c))",
    "(letrec ([ev? (lambda (n) (if (zero? n) #t (od? (- n 1))))]"
    "         [od? (lambda (n) (if (zero? n) #f (ev? (- n 1))))])"
    "  (list (ev? 9) (od? 9)))",
    "(define v (make-vector 5 0))"
    "(let loop ([i 0]) (if (< i 5) (begin (vector-set! v i (* i i)) "
    "(loop (+ i 1))) v))",
    "(vector->list (list->vector '(1 2 3)))",
    "(define f (case-lambda [() 0] [(a) 1] [(a b) 2] [(a . r) 99])) "
    "(list (f) (f 'x) (f 'x 'y) (f 1 2 3 4))",
    "(cond ((assq 'z '((a 1) (b 2))) 'assq-hit) ((memq 'c '(a b c)) "
    "'found) (else 'none))",
    "(and 1 'two \"three\")",
    "(or #f (and #t 'inner) 'outer)",
    "(define x 5) (define (bump) (set! x (+ x 1)) x) (bump) (bump) x",
    "(apply + '(1 2 3 4 5))",
    "(apply cons '(head (tail)))",
    "(define G (make-guardian)) (G (cons 'a 'b)) (collect 3) (G)",
    "(define g (make-guardian))"
    "(define (reg n) (if (zero? n) 'done (begin (g (cons n n)) "
    "(reg (- n 1))))) (reg 50) (collect 3) (collect 3)"
    "(let loop ([x (g)] [n 0]) (if x (loop (g) (+ n 1)) n))",
    "(define w (weak-cons (cons 1 2) 'tail)) (collect 3) (car w)",
    "(let ([keep (cons 1 2)])"
    "  (let ([w (weak-cons keep '())]) (collect 3) (eq? (car w) keep)))",
    "(string-append \"a\" (symbol->string 'b) (number->string 12))",
    "(equal? '(1 (2 #(3 4))) '(1 (2 #(3 4))))",
    "(let loop ([i 0] [sum 0])"
    "  (if (= i 100000) sum (loop (+ i 1) (+ sum i))))",
    "(define (make-counter)"
    "  (let ([n 0]) (lambda () (set! n (+ n 1)) n)))"
    "(define c1 (make-counter)) (define c2 (make-counter))"
    "(c1) (c1) (c2) (list (c1) (c2))",
    "(define (tree-sum t)"
    "  (cond ((null? t) 0)"
    "        ((pair? t) (+ (tree-sum (car t)) (tree-sum (cdr t))))"
    "        ((number? t) t)"
    "        (else 0)))"
    "(tree-sum '((1 2) (3 (4 5)) 6))",
    "(when (> 3 2) 'yes)",
    "(unless (> 3 2) 'no)",
    "(modulo -17 5)",
    "(list (quotient 17 5) (remainder 17 5))",
    // Named let in non-tail position, result consumed by arithmetic.
    "(+ 1 (let loop ([i 0] [acc 0])"
    "  (if (= i 50) acc (loop (+ i 1) (+ acc i)))) 1)",
    // Closure captures a let-bound variable mutated after capture.
    "(define f #f)"
    "(let ([x 10]) (set! f (lambda () x)) (set! x 42))"
    "(f)",
    // Lexical shadowing of a global by a parameter.
    "(define shadow 'global)"
    "((lambda (shadow) shadow) 'local)",
    // Nested lets sharing names at different depths.
    "(let ([x 1]) (let ([x (+ x 1)]) (let ([x (* x 3)]) x)))",
    // Guardian with agent from compiled code (Section 5 extension).
    "(define G (make-guardian))"
    "(define obj (cons 'o '())) (G obj 'agent-payload)"
    "(set! obj #f) (collect 3) (G)",
    // Weak pair inside a vector, target dropped.
    "(define v (make-vector 1 #f))"
    "(vector-set! v 0 (weak-cons (cons 'dead '()) 'keep))"
    "(collect 3)"
    "(list (car (vector-ref v 0)) (cdr (vector-ref v 0)))",
    // case-lambda selecting the rest clause over the fixed one.
    "(define g (case-lambda [(a b) 'two] [args (length args)]))"
    "(list (g 1 2) (g 1 2 3 4))",
    // String and character round-trips.
    "(list (string-ref \"xyz\" 2) (char->integer #\\A) "
    "(integer->char 66))",
    // Deep non-tail recursion (within the interpreter's depth limit).
    "(define (depth n) (if (zero? n) 0 (+ 1 (depth (- n 1))))) "
    "(depth 500)",
    // begin sequencing with side effects.
    "(define acc '())"
    "(begin (set! acc (cons 1 acc)) (set! acc (cons 2 acc)) acc)",
};

INSTANTIATE_TEST_SUITE_P(Corpus, DifferentialTest,
                         ::testing::ValuesIn(Corpus));

} // namespace
