//===- scheme/Interpreter.h - Scheme evaluator ----------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small Scheme interpreter over the collected heap, sufficient to run
/// the paper's example programs nearly verbatim: guardians are
/// first-class procedures ((make-guardian) / (G obj) / (G)), weak-cons
/// builds weak pairs, case-lambda works (the paper builds both the
/// guardian representation and the transport guardian with it), and
/// ports are available for the Section 3 guarded-file examples.
///
/// Special forms: quote, if, define (including the procedure shorthand),
/// set!, lambda, case-lambda, begin, let (plain and named), let*,
/// letrec, and, or, cond (with else), when, unless.
///
/// Errors do not unwind with C++ exceptions (library code avoids them);
/// the interpreter sets an error flag that aborts evaluation outward.
/// Environments, closures, and all intermediate values live in the
/// collected heap, so Scheme programs exercise the collector for real --
/// evaluation is safe under automatic collection at any allocation.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_SCHEME_INTERPRETER_H
#define GENGC_SCHEME_INTERPRETER_H

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gc/Heap.h"
#include "gc/Roots.h"
#include "io/PortTable.h"

namespace gengc {

class Interpreter {
public:
  using PrimitiveFn =
      std::function<Value(Interpreter &, RootVector &Args)>;

  explicit Interpreter(Heap &H);

  Heap &heap() { return H; }
  MemoryFileSystem &fileSystem() { return FS; }
  PortTable &ports() { return Ports; }

  /// Reads and evaluates every form in \p Source; returns the last
  /// result (void for an empty program, void on error -- check
  /// hadError()).
  Value evalString(std::string_view Source);

  /// Evaluates one already-read form in the global environment.
  Value evalForm(Value Form);

  /// Applies a Scheme procedure (closure, primitive, or guardian) to
  /// rooted arguments. Used by map/apply-style primitives and by C++
  /// embedders.
  Value applyProcedure(Value Proc, RootVector &Args);

  bool hadError() const { return ErrorFlag; }
  const std::string &errorMessage() const { return ErrorMsg; }
  void clearError() {
    ErrorFlag = false;
    ErrorMsg.clear();
  }

  /// Output accumulated by display/write/newline since the last take.
  std::string takeOutput() {
    std::string Out = std::move(Output);
    Output.clear();
    return Out;
  }
  void emitOutput(const std::string &S) { Output += S; }

  /// Binds \p Name in the global environment.
  void defineGlobal(std::string_view Name, Value V);
  /// Binds \p Symbol in the global environment (used by the bytecode
  /// VM, which shares the interpreter's globals and primitives).
  void defineGlobalSymbol(Value Symbol, Value V);
  /// Looks up \p Symbol in the global environment; Value::unbound() if
  /// absent (no error is signalled).
  Value lookupGlobalSymbol(Value Symbol);
  /// set!s \p Symbol in the global environment; returns false if
  /// unbound.
  bool setGlobalSymbol(Value Symbol, Value V);
  /// Registers a primitive procedure.
  void definePrimitive(std::string_view Name, intptr_t MinArgs,
                       intptr_t MaxArgs, PrimitiveFn Fn);

  /// Signals an evaluation error; returns void for use in tail position.
  Value signalError(const std::string &Message);

  Value globalEnvironment() const { return GlobalEnv.get(); }

  /// Lets an external engine (the bytecode VM) make its own callable
  /// records applicable from tree-walked code: records whose tag field
  /// equals \p Tag are routed to \p Apply. Also honored by the
  /// procedure? predicate.
  using ExternalApplyFn = std::function<Value(Value Proc, RootVector &)>;
  void setExternalApplyHook(Value Tag, ExternalApplyFn Apply) {
    ExternalApplyTag.emplace(H, Tag);
    ExternalApply = std::move(Apply);
  }
  /// True for closures, primitives, guardians, and hook-registered
  /// callable records.
  bool isApplicable(Value V) const;

private:
  friend struct SchemePrimitives;

  Value eval(Value Expr, Value Env);
  Value evalSequence(Value Body, Value Env);
  /// Evaluates \p Body except its last form; returns the last form
  /// (for tail-position continuation) or unbound on error/empty.
  Value evalSequenceButLast(Value Body, Value Env);

  //===--- Environments ---------------------------------------------------===//
  Value makeEnvironment(Value Parent);
  Value lookupVariable(Value Symbol, Value Env);
  bool setVariable(Value Symbol, Value Env, Value V);
  void defineVariable(Value Env, Value Symbol, Value V);

  //===--- Application ----------------------------------------------------===//
  /// Selects the clause of \p Clauses matching \p ArgCount, or unbound.
  Value selectClause(Value Clauses, size_t ArgCount);
  /// Binds \p Formals to Args[From..] in a fresh child of \p ParentEnv.
  Value bindFormals(Value Formals, RootVector &Args, Value ParentEnv);

  void installPrimitives();
  void loadPrelude();

  Heap &H;
  MemoryFileSystem FS;
  PortTable Ports;
  Root GlobalEnv;

  // Cached special-form symbols (rooted: the weak symbol table would
  // otherwise let them lapse).
  Root SymQuote, SymIf, SymDefine, SymSet, SymLambda, SymCaseLambda,
      SymBegin, SymLet, SymLetStar, SymLetrec, SymAnd, SymOr, SymCond,
      SymElse, SymWhen, SymUnless, SymEnvTag;

  std::vector<PrimitiveFn> PrimitiveFns;
  /// External-engine dispatch (see setExternalApplyHook). The tag is a
  /// rooted copy so the record comparison survives symbol movement.
  std::optional<Root> ExternalApplyTag;
  ExternalApplyFn ExternalApply;
  std::string Output;
  std::string ErrorMsg;
  bool ErrorFlag = false;
  unsigned Depth = 0;
};

} // namespace gengc

#endif // GENGC_SCHEME_INTERPRETER_H
