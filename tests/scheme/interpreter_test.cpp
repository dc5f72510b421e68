//===- tests/scheme/interpreter_test.cpp - Evaluator basics --------------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "scheme/Interpreter.h"
#include "scheme/Printer.h"
#include "scheme/Reader.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

using namespace gengc;

namespace {

HeapConfig testConfig() {
  HeapConfig C;
  C.ArenaBytes = 128u * 1024 * 1024;
  C.AutoCollect = false;
  return C;
}

class SchemeTest : public ::testing::Test {
protected:
  SchemeTest() : H(testConfig()), I(H) {}

  std::string evalToString(const std::string &Src) {
    Value V = I.evalString(Src);
    EXPECT_FALSE(I.hadError()) << I.errorMessage() << " in: " << Src;
    return writeToString(H, V);
  }

  Heap H;
  Interpreter I;
};

//===----------------------------------------------------------------------===//
// Reader.
//===----------------------------------------------------------------------===//

TEST_F(SchemeTest, ReaderBasics) {
  EXPECT_EQ(writeToString(H, readDatum(H, "42")), "42");
  EXPECT_EQ(writeToString(H, readDatum(H, "-7")), "-7");
  EXPECT_EQ(writeToString(H, readDatum(H, "#t")), "#t");
  EXPECT_EQ(writeToString(H, readDatum(H, "#f")), "#f");
  EXPECT_EQ(writeToString(H, readDatum(H, "foo")), "foo");
  EXPECT_EQ(writeToString(H, readDatum(H, "(1 2 3)")), "(1 2 3)");
  EXPECT_EQ(writeToString(H, readDatum(H, "(1 . 2)")), "(1 . 2)");
  EXPECT_EQ(writeToString(H, readDatum(H, "(1 2 . 3)")), "(1 2 . 3)");
  EXPECT_EQ(writeToString(H, readDatum(H, "'x")), "(quote x)");
  EXPECT_EQ(writeToString(H, readDatum(H, "\"hi\\n\"")), "\"hi\\n\"");
  EXPECT_EQ(writeToString(H, readDatum(H, "#\\a")), "#\\a");
  EXPECT_EQ(writeToString(H, readDatum(H, "#\\space")), "#\\space");
  EXPECT_EQ(writeToString(H, readDatum(H, "; comment\n  9")), "9");
  EXPECT_EQ(writeToString(H, readDatum(H, "(a (b (c)) d)")),
            "(a (b (c)) d)");
}

TEST_F(SchemeTest, ReaderErrors) {
  {
    Reader R(H, "(1 2");
    R.read();
    EXPECT_TRUE(R.hadError());
  }
  {
    Reader R(H, ")");
    R.read();
    EXPECT_TRUE(R.hadError());
  }
  {
    Reader R(H, "\"abc");
    R.read();
    EXPECT_TRUE(R.hadError());
  }
}

//===----------------------------------------------------------------------===//
// Core evaluation.
//===----------------------------------------------------------------------===//

TEST_F(SchemeTest, SelfEvaluatingAndQuote) {
  EXPECT_EQ(evalToString("42"), "42");
  EXPECT_EQ(evalToString("#t"), "#t");
  EXPECT_EQ(evalToString("\"s\""), "\"s\"");
  EXPECT_EQ(evalToString("'sym"), "sym");
  EXPECT_EQ(evalToString("'(1 2)"), "(1 2)");
}

TEST_F(SchemeTest, Arithmetic) {
  EXPECT_EQ(evalToString("(+ 1 2 3)"), "6");
  EXPECT_EQ(evalToString("(- 10 3 2)"), "5");
  EXPECT_EQ(evalToString("(- 5)"), "-5");
  EXPECT_EQ(evalToString("(* 2 3 4)"), "24");
  EXPECT_EQ(evalToString("(quotient 17 5)"), "3");
  EXPECT_EQ(evalToString("(remainder 17 5)"), "2");
  EXPECT_EQ(evalToString("(modulo -7 3)"), "2");
  EXPECT_EQ(evalToString("(< 1 2 3)"), "#t");
  EXPECT_EQ(evalToString("(< 1 3 2)"), "#f");
  EXPECT_EQ(evalToString("(= 2 2 2)"), "#t");
}

TEST_F(SchemeTest, DefineAndSet) {
  EXPECT_EQ(evalToString("(define x 10) x"), "10");
  EXPECT_EQ(evalToString("(set! x 20) x"), "20");
  EXPECT_EQ(evalToString("(define (sq n) (* n n)) (sq 7)"), "49");
}

TEST_F(SchemeTest, LambdaAndClosures) {
  EXPECT_EQ(evalToString("((lambda (x y) (+ x y)) 3 4)"), "7");
  EXPECT_EQ(evalToString("(define (adder n) (lambda (m) (+ n m)))"
                         "((adder 10) 5)"),
            "15");
  EXPECT_EQ(evalToString("((lambda args args) 1 2 3)"), "(1 2 3)");
  EXPECT_EQ(evalToString("((lambda (a . rest) rest) 1 2 3)"), "(2 3)");
}

TEST_F(SchemeTest, CaseLambda) {
  EXPECT_EQ(evalToString("(define f (case-lambda"
                         "  [() 'zero]"
                         "  [(x) x]"
                         "  [(x y) (+ x y)]))"
                         "(list (f) (f 5) (f 5 6))"),
            "(zero 5 11)"); // Note: [] read as ()? -- see reader.
}

TEST_F(SchemeTest, ConditionalsAndBooleans) {
  EXPECT_EQ(evalToString("(if #t 1 2)"), "1");
  EXPECT_EQ(evalToString("(if #f 1 2)"), "2");
  EXPECT_EQ(evalToString("(if 0 'yes 'no)"), "yes") << "0 is truthy";
  EXPECT_EQ(evalToString("(and 1 2 3)"), "3");
  EXPECT_EQ(evalToString("(and 1 #f 3)"), "#f");
  EXPECT_EQ(evalToString("(and)"), "#t");
  EXPECT_EQ(evalToString("(or #f 2)"), "2");
  EXPECT_EQ(evalToString("(or #f #f)"), "#f");
  EXPECT_EQ(evalToString("(cond (#f 1) (#t 2) (else 3))"), "2");
  EXPECT_EQ(evalToString("(cond (#f 1) (else 3))"), "3");
  EXPECT_EQ(evalToString("(when #t 1 2)"), "2");
  EXPECT_EQ(evalToString("(unless #t 1 2)"), "#<void>");
}

TEST_F(SchemeTest, LetForms) {
  EXPECT_EQ(evalToString("(let ((x 1) (y 2)) (+ x y))"), "3");
  EXPECT_EQ(evalToString("(let* ((x 1) (y (+ x 1))) (* x y))"), "2");
  EXPECT_EQ(evalToString("(letrec ((even? (lambda (n) (if (zero? n) #t "
                         "(odd? (- n 1)))))"
                         "         (odd? (lambda (n) (if (zero? n) #f "
                         "(even? (- n 1))))))"
                         "  (even? 10))"),
            "#t");
  EXPECT_EQ(evalToString("(let loop ((i 0) (acc 0))"
                         "  (if (= i 10) acc (loop (+ i 1) (+ acc i))))"),
            "45");
}

TEST_F(SchemeTest, TailCallsDoNotOverflow) {
  EXPECT_EQ(evalToString("(let loop ((i 0))"
                         "  (if (= i 1000000) i (loop (+ i 1))))"),
            "1000000");
}

TEST_F(SchemeTest, ListPrimitives) {
  EXPECT_EQ(evalToString("(length '(a b c))"), "3");
  EXPECT_EQ(evalToString("(reverse '(1 2 3))"), "(3 2 1)");
  EXPECT_EQ(evalToString("(append '(1 2) '(3) '(4 5))"), "(1 2 3 4 5)");
  EXPECT_EQ(evalToString("(assq 'b '((a . 1) (b . 2)))"), "(b . 2)");
  EXPECT_EQ(evalToString("(assq 'z '((a . 1)))"), "#f");
  EXPECT_EQ(evalToString("(memq 'b '(a b c))"), "(b c)");
  EXPECT_EQ(evalToString("(remq 'b '(a b c b))"), "(a c)");
  EXPECT_EQ(evalToString("(map (lambda (x) (* x x)) '(1 2 3))"),
            "(1 4 9)");
  EXPECT_EQ(evalToString("(filter (lambda (x) (< x 3)) '(1 4 2 5))"),
            "(1 2)");
}

TEST_F(SchemeTest, PreludeLibrary) {
  EXPECT_EQ(evalToString("(even? 4)"), "#t");
  EXPECT_EQ(evalToString("(odd? 4)"), "#f");
  EXPECT_EQ(evalToString("(abs -7)"), "7");
  EXPECT_EQ(evalToString("(max2 3 9)"), "9");
  EXPECT_EQ(evalToString("(min2 3 9)"), "3");
  EXPECT_EQ(evalToString("(list-tail '(a b c d) 2)"), "(c d)");
  EXPECT_EQ(evalToString("(member '(1) '((0) (1) (2)))"), "((1) (2))")
      << "member uses equal?, unlike memq";
  EXPECT_EQ(evalToString("(member 'z '(a b))"), "#f");
  EXPECT_EQ(evalToString("(weak-car (weak-cons 'x 'y))"), "x");
  EXPECT_EQ(evalToString("(weak-cdr (weak-cons 'x 'y))"), "y");
  EXPECT_EQ(evalToString("(vector->list #(1 2 3))"), "(1 2 3)");
  EXPECT_EQ(evalToString("(list->vector '(a b))"), "#(a b)");
  EXPECT_EQ(evalToString("(string-ref \"abc\" 1)"), "#\\b");
  EXPECT_EQ(evalToString("(char->integer #\\a)"), "97");
  EXPECT_EQ(evalToString("(integer->char 98)"), "#\\b");
}

TEST_F(SchemeTest, VectorsAndStrings) {
  EXPECT_EQ(evalToString("(define v (make-vector 3 0))"
                         "(vector-set! v 1 'x) v"),
            "#(0 x 0)");
  EXPECT_EQ(evalToString("(vector-length (vector 1 2 3 4))"), "4");
  EXPECT_EQ(evalToString("(string-append \"foo\" \"bar\")"),
            "\"foobar\"");
  EXPECT_EQ(evalToString("(string=? \"a\" \"a\")"), "#t");
  EXPECT_EQ(evalToString("(symbol->string 'hello)"), "\"hello\"");
  EXPECT_EQ(evalToString("(string->symbol \"hi\")"), "hi");
  EXPECT_EQ(evalToString("(number->string 42)"), "\"42\"");
}

TEST_F(SchemeTest, EqualityPredicates) {
  EXPECT_EQ(evalToString("(eq? 'a 'a)"), "#t");
  EXPECT_EQ(evalToString("(eq? '(1) '(1))"), "#f");
  EXPECT_EQ(evalToString("(equal? '(1 (2)) '(1 (2)))"), "#t");
  EXPECT_EQ(evalToString("(equal? \"ab\" \"ab\")"), "#t");
}

TEST_F(SchemeTest, Apply) {
  EXPECT_EQ(evalToString("(apply + '(1 2 3))"), "6");
  EXPECT_EQ(evalToString("(apply cons '(1 2))"), "(1 . 2)");
}

TEST_F(SchemeTest, DisplayOutput) {
  I.evalString("(display \"hello \") (display 42) (newline)");
  EXPECT_EQ(I.takeOutput(), "hello 42\n");
  I.evalString("(write \"s\")");
  EXPECT_EQ(I.takeOutput(), "\"s\"");
}

TEST_F(SchemeTest, Errors) {
  I.evalString("(car 5)");
  EXPECT_TRUE(I.hadError());
  EXPECT_NE(I.errorMessage().find("car"), std::string::npos);
  I.clearError();
  I.evalString("undefined-var");
  EXPECT_TRUE(I.hadError());
  I.clearError();
  I.evalString("(error \"boom\" 1 2)");
  EXPECT_TRUE(I.hadError());
  EXPECT_NE(I.errorMessage().find("boom"), std::string::npos);
  I.clearError();
  I.evalString("((lambda (x) x) 1 2)");
  EXPECT_TRUE(I.hadError());
}

TEST_F(SchemeTest, GuardiansAreFirstClassProcedures) {
  EXPECT_EQ(evalToString("(define g (make-guardian)) (guardian? g)"),
            "#t");
  EXPECT_EQ(evalToString("(procedure? g)"), "#t");
  EXPECT_EQ(evalToString("(g)"), "#f");
}

TEST_F(SchemeTest, WeakPairsInScheme) {
  EXPECT_EQ(evalToString("(define w (weak-cons 'a 'b)) (weak-pair? w)"),
            "#t");
  EXPECT_EQ(evalToString("(car w)"), "a");
  EXPECT_EQ(evalToString("(cdr w)"), "b");
  EXPECT_EQ(evalToString("(weak-pair? (cons 1 2))"), "#f");
  EXPECT_EQ(evalToString("(pair? w)"), "#t");
}

TEST_F(SchemeTest, EvaluationUnderGcPressure) {
  // Run a list-heavy computation with a tiny GC budget: every
  // allocation path in the evaluator must be rooted correctly.
  HeapConfig C = testConfig();
  C.AutoCollect = true;
  C.Gen0CollectBytes = 32 * 1024;
  Heap H2(C);
  Interpreter I2(H2);
  Value V = I2.evalString(
      "(define (iota n) (let loop ((i 0) (acc '()))"
      "  (if (= i n) (reverse acc) (loop (+ i 1) (cons i acc)))))"
      "(define (sum lst) (let loop ((l lst) (acc 0))"
      "  (if (null? l) acc (loop (cdr l) (+ acc (car l))))))"
      "(sum (map (lambda (x) (* x x)) (iota 500)))");
  EXPECT_FALSE(I2.hadError()) << I2.errorMessage();
  EXPECT_EQ(V.asFixnum(), 499 * 500 * 999 / 6);
  EXPECT_GT(H2.collectionCount(), 0u) << "the test must actually collect";
  H2.verifyHeap();
}

TEST_F(SchemeTest, PortsFromScheme) {
  EXPECT_EQ(evalToString("(make-file \"in.txt\" \"abc\")"
                         "(define p (open-input-file \"in.txt\"))"
                         "(read-char p)"),
            "#\\a");
  EXPECT_EQ(evalToString("(read-char p)"), "#\\b");
  EXPECT_EQ(evalToString("(read-char p)"), "#\\c");
  EXPECT_EQ(evalToString("(eof-object? (read-char p))"), "#t");
  EXPECT_EQ(evalToString("(close-input-port p) (open-port-count)"), "0");
  EXPECT_EQ(evalToString("(define q (open-output-file \"out.txt\"))"
                         "(write-string \"xyz\" q)"
                         "(close-output-port q)"
                         "(file-contents \"out.txt\")"),
            "\"xyz\"");
}

//===----------------------------------------------------------------------===//
// (gc-stats): its key set is a contract, and its counters are the
// heap's own records.
//===----------------------------------------------------------------------===//

TEST_F(SchemeTest, GcStatsKeysAndValuesMatchTheHeap) {
  // Garbage, a dropped guardian registration and a weak pair whose car
  // dies, so the guardian and weak counters are not all zero.
  evalToString("(define g (make-guardian)) (g (list 3 4))"
               "(define w (weak-cons (list 1 2) 'x))");
  H.collect(0);
  H.collect(0);
  H.collectFull();
  const GcTotals &T = H.totals();
  const GcStats &L = H.lastStats();
  EXPECT_GT(T.GuardianObjectsSaved, 0u);
  EXPECT_GT(T.WeakPointersBroken, 0u);

  // AutoCollect is off, so building the list runs no collection.
  Value Alist = I.evalString("(gc-stats)");
  ASSERT_FALSE(I.hadError()) << I.errorMessage();
  std::map<std::string, Value> Stats;
  for (Value Rest = Alist; Rest.isPair(); Rest = pairCdr(Rest))
    EXPECT_TRUE(Stats.emplace(H.symbolName(pairCar(pairCar(Rest))),
                              pairCdr(pairCar(Rest)))
                    .second);

  // Key order is not part of the contract; the set is. The Added keys
  // came with the counter table (every exported counter is reported as
  // a total and as a last value); they appear all together or not at all.
  const std::set<std::string> Pinned = {
      "collections", "full-collections", "bytes-allocated",
      "total-bytes-allocated", "segments-in-use", "total-objects-copied",
      "total-bytes-copied", "total-objects-promoted",
      "total-guardian-objects-saved", "total-weak-pointers-broken",
      "total-finalizer-thunks-run", "total-gc-nanos", "barriers-executed",
      "barriers-elided", "last-generation", "last-target-generation",
      "last-duration-nanos", "last-objects-copied", "last-bytes-copied",
      "last-bytes-in-from-space", "last-segments-freed", "scope-opens",
      "scope-closes", "scope-max-depth", "scope-objects-evacuated",
      "scope-bytes-evacuated", "scope-bytes-in-scopes",
      "scope-bytes-reclaimed", "scope-close-nanos", "mmu-1ms", "mmu-10ms",
      "mmu-100ms", "slo-max-pause-nanos", "slo-pause-violations",
      "last-phase-nanos", "generations"};
  const std::set<std::string> Added = {
      "total-bytes-in-from-space", "total-segments-freed",
      "last-objects-promoted", "last-guardian-objects-saved",
      "last-weak-pointers-broken", "last-finalizer-thunks-run"};
  size_t AddedPresent = 0;
  for (const auto &KV : Stats) {
    AddedPresent += Added.count(KV.first);
    EXPECT_TRUE(Pinned.count(KV.first) || Added.count(KV.first)) << KV.first;
  }
  for (const std::string &Key : Pinned)
    EXPECT_TRUE(Stats.count(Key)) << "missing " << Key;
  EXPECT_TRUE(AddedPresent == 0 || AddedPresent == Added.size());

  // Every total-/last- value read from totals() and lastStats().
  const std::map<std::string, uint64_t> Expected = {
      {"collections", T.Collections}, {"full-collections", T.FullCollections},
      {"total-objects-copied", T.ObjectsCopied},
      {"total-bytes-copied", T.BytesCopied},
      {"total-objects-promoted", T.ObjectsPromoted},
      {"total-bytes-in-from-space", T.BytesInFromSpace},
      {"total-guardian-objects-saved", T.GuardianObjectsSaved},
      {"total-weak-pointers-broken", T.WeakPointersBroken},
      {"total-finalizer-thunks-run", T.FinalizerThunksRun},
      {"total-segments-freed", T.SegmentsFreed},
      {"total-gc-nanos", T.DurationNanos},
      {"last-generation", L.CollectedGeneration},
      {"last-target-generation", L.TargetGeneration},
      {"last-duration-nanos", L.DurationNanos},
      {"last-objects-copied", L.ObjectsCopied},
      {"last-bytes-copied", L.BytesCopied},
      {"last-objects-promoted", L.ObjectsPromoted},
      {"last-bytes-in-from-space", L.BytesInFromSpace},
      {"last-guardian-objects-saved", L.GuardianObjectsSaved},
      {"last-weak-pointers-broken", L.WeakPointersBroken},
      {"last-finalizer-thunks-run", L.FinalizerThunksRun},
      {"last-segments-freed", L.SegmentsFreed}};
  for (const auto &[Key, V] : Stats) {
    bool Record = Key.rfind("total-", 0) == 0 || Key.rfind("last-", 0) == 0;
    if (Key == "total-bytes-allocated" || Key == "last-phase-nanos" ||
        !(Record || Expected.count(Key)))
      continue;
    ASSERT_TRUE(Expected.count(Key) && V.isFixnum()) << Key;
    EXPECT_EQ(static_cast<uint64_t>(V.asFixnum()), Expected.at(Key)) << Key;
  }
  // ((setup . ns) (roots . ns) ...), in phase order.
  Value Phases = Stats.at("last-phase-nanos");
  for (unsigned P = 0; P != NumGcPhases; ++P, Phases = pairCdr(Phases)) {
    EXPECT_EQ(H.symbolName(pairCar(pairCar(Phases))),
              gcPhaseName(static_cast<GcPhase>(P)));
    EXPECT_EQ(static_cast<uint64_t>(pairCdr(pairCar(Phases)).asFixnum()),
              L.Phases.Nanos[P]);
  }
  EXPECT_TRUE(Phases.isNil());
}

} // namespace
