//===- tests/scheme/scheme_gc_stress_test.cpp - Scheme x collector -------===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
// End-to-end stress: real Scheme programs exercising guardians, weak
// pairs, and the guarded hash table while the collector runs
// automatically under a tiny allocation budget. These runs push every
// evaluator allocation path through collection.
//
//===----------------------------------------------------------------------===//

#include "scheme/Interpreter.h"
#include "scheme/Printer.h"

#include <gtest/gtest.h>

using namespace gengc;

namespace {

struct StressParams {
  size_t Gen0Bytes;
  unsigned Generations;
};

class SchemeGcStressTest : public ::testing::TestWithParam<StressParams> {
protected:
  HeapConfig config() const {
    HeapConfig C;
    C.ArenaBytes = 256u * 1024 * 1024;
    C.AutoCollect = true;
    C.Gen0CollectBytes = GetParam().Gen0Bytes;
    C.Generations = GetParam().Generations;
    return C;
  }
};

TEST_P(SchemeGcStressTest, GuardedHashTableChurnInScheme) {
  Heap H(config());
  Interpreter I(H);
  // Figure 1's table, hammered with cons-cell keys that die each round.
  Value V = I.evalString(R"scheme(
    (define make-guarded-hash-table
      (lambda (hash size)
        (let ([g (make-guardian)] [v (make-vector size '())])
          (lambda (key value)
            (let loop ([z (g)])
              (if z
                  (begin
                    (let ([h (hash z size)])
                      (let ([bucket (vector-ref v h)])
                        (vector-set! v h (remq (assq z bucket) bucket))))
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
    (define table
      (make-guarded-hash-table
        (lambda (k size) (modulo (car k) size)) 16))
    (define stable-key (cons 0 'stable))
    (table stable-key 'stable-value)
    ;; 60 rounds of 25 ephemeral keys; each round drops the previous.
    (let rounds ([r 0])
      (if (= r 60)
          'done
          (begin
            (let keys ([i 1])
              (if (= i 26)
                  #t
                  (begin
                    (table (cons i (list r i)) (* r i))
                    (keys (+ i 1)))))
            (collect 1)
            (rounds (+ r 1)))))
    (table stable-key 'ignored)
  )scheme");
  ASSERT_FALSE(I.hadError()) << I.errorMessage();
  EXPECT_EQ(writeToString(H, V), "stable-value")
      << "the stable association must survive 60 churn rounds";
  EXPECT_GT(H.collectionCount(), 10u);
  H.verifyHeap();
}

TEST_P(SchemeGcStressTest, GuardianAccountingInScheme) {
  Heap H(config());
  Interpreter I(H);
  // Register N pairs, drop them all, and count retrievals.
  Value V = I.evalString(R"scheme(
    (define g (make-guardian))
    (define (make-and-register n)
      (if (zero? n)
          'done
          (begin
            (g (cons n n))
            (make-and-register (- n 1)))))
    (make-and-register 300)
    (collect (collect-maximum-generation))
    (collect (collect-maximum-generation))
    (let loop ([x (g)] [count 0] [sum 0])
      (if x
          (loop (g) (+ count 1) (+ sum (car x)))
          (list count sum)))
  )scheme");
  ASSERT_FALSE(I.hadError()) << I.errorMessage();
  EXPECT_EQ(writeToString(H, V), "(300 45150)")
      << "every registered pair retrieved exactly once, contents intact";
  H.verifyHeap();
}

TEST_P(SchemeGcStressTest, WeakPairListInScheme) {
  Heap H(config());
  Interpreter I(H);
  Value V = I.evalString(R"scheme(
    ;; Keep every third object alive; the rest must break.
    (define kept '())
    (define (build n weak-list)
      (if (zero? n)
          weak-list
          (let ([obj (cons n n)])
            (when (zero? (modulo n 3))
              (set! kept (cons obj kept)))
            (build (- n 1) (weak-cons obj weak-list)))))
    (define watchers (build 90 '()))
    (collect (collect-maximum-generation))
    (collect (collect-maximum-generation))
    (let loop ([l watchers] [live 0] [broken 0])
      (if (null? l)
          (list live broken)
          (if (car l)
              (loop (cdr l) (+ live 1) broken)
              (loop (cdr l) live (+ broken 1)))))
  )scheme");
  ASSERT_FALSE(I.hadError()) << I.errorMessage();
  EXPECT_EQ(writeToString(H, V), "(30 60)");
  H.verifyHeap();
}

TEST_P(SchemeGcStressTest, DeepRecursionWithClosures) {
  Heap H(config());
  Interpreter I(H);
  // Build a chain of closures, then collapse it: environments and
  // clauses survive movement at every step.
  Value V = I.evalString(R"scheme(
    (define (compose-n f n)
      (if (zero? n)
          f
          (compose-n (lambda (x) (f (+ x 1))) (- n 1))))
    ((compose-n (lambda (x) x) 2000) 0)
  )scheme");
  ASSERT_FALSE(I.hadError()) << I.errorMessage();
  EXPECT_EQ(V.asFixnum(), 2000);
  H.verifyHeap();
}

TEST_P(SchemeGcStressTest, ErrorInCleanupDoesNotCorrupt) {
  Heap H(config());
  Interpreter I(H);
  // "What happens if a finalization routine signals an error?" With
  // guardians, clean-up runs as ordinary mutator code: an error aborts
  // that clean-up action, and the remaining pending objects stay
  // retrievable afterwards.
  I.evalString("(define g (make-guardian))"
               "(g (cons 1 'one)) (g (cons 2 'two)) (g (cons 3 'three))"
               "(collect (collect-maximum-generation))"
               "(collect (collect-maximum-generation))");
  ASSERT_FALSE(I.hadError()) << I.errorMessage();
  I.evalString("(let ([x (g)]) (error \"cleanup failed for\" x))");
  EXPECT_TRUE(I.hadError());
  I.clearError();
  Value V = I.evalString("(let loop ([x (g)] [n 0])"
                         "  (if x (loop (g) (+ n 1)) n))");
  ASSERT_FALSE(I.hadError()) << I.errorMessage();
  EXPECT_EQ(V.asFixnum(), 2)
      << "the two remaining objects survive the failed clean-up";
  H.verifyHeap();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SchemeGcStressTest,
    ::testing::Values(StressParams{1u << 20, 4}, StressParams{24u * 1024, 4},
                      StressParams{32u * 1024, 2}, StressParams{48u * 1024, 4},
                      StressParams{64u * 1024, 6}),
    // "_tenure1" is the paper's promotion rule (promoted on the first
    // copy), kept so instance names stay stable.
    [](const ::testing::TestParamInfo<StressParams> &Info) {
      return "budget" + std::to_string(Info.param.Gen0Bytes) + "_gens" +
             std::to_string(Info.param.Generations) + "_tenure1";
    });

} // namespace
