//===- scheme/Compiler.cpp - Scheme-to-bytecode compiler ------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "scheme/Compiler.h"

#include "core/ListOps.h"
#include "gc/NoGcScope.h"
#include "scheme/Printer.h"

using namespace gengc;

// Every intern is a safepoint, so the form symbols are resolved once at
// construction — while the caller still has the source form rooted —
// and live in Root slots from then on. Interning lazily inside
// compileExpr would let a collection move the bare Values the recursive
// walk is holding.
Compiler::RootedForms::RootedForms(Heap &H)
    : Quote(H, H.intern("quote")), If(H, H.intern("if")),
      Define(H, H.intern("define")), Set(H, H.intern("set!")),
      Lambda(H, H.intern("lambda")),
      CaseLambda(H, H.intern("case-lambda")), Begin(H, H.intern("begin")),
      Let(H, H.intern("let")), LetStar(H, H.intern("let*")),
      Letrec(H, H.intern("letrec")), And(H, H.intern("and")),
      Or(H, H.intern("or")), Cond(H, H.intern("cond")),
      Else(H, H.intern("else")), When(H, H.intern("when")),
      Unless(H, H.intern("unless")) {}

size_t Compiler::emitJump(UnitBuilder &B, Op O) {
  emit(B, O);
  B.Code.push_back(0);
  return B.Code.size() - 1;
}

uint32_t Compiler::addConstant(UnitBuilder &B, Value V) {
  RootVector &Constants = *B.Constants;
  for (size_t K = 0; K != Constants.size(); ++K)
    if (Constants[K] == V)
      return static_cast<uint32_t>(K);
  Constants.push_back(V);
  return static_cast<uint32_t>(Constants.size() - 1);
}

//===----------------------------------------------------------------------===//
// Scopes.
//===----------------------------------------------------------------------===//

void Compiler::pushFormalsFrame(Value Formals, uint32_t &NFixed,
                                bool &HasRest) {
  size_t Begin = ScopeSymbols.size();
  NFixed = 0;
  Value F = Formals;
  while (F.isPair()) {
    if (!isSymbol(pairCar(F))) {
      fail("lambda: formal parameters must be symbols");
      break;
    }
    ScopeSymbols.push_back(pairCar(F));
    ++NFixed;
    F = pairCdr(F);
  }
  HasRest = isSymbol(F);
  if (HasRest)
    ScopeSymbols.push_back(F);
  else if (!F.isNil() && ErrorMessage.empty())
    fail("lambda: malformed formals list");
  Scopes.push_back({Begin, ScopeSymbols.size()});
}

void Compiler::pushSymbolsFrame(const std::vector<Value> &Symbols) {
  size_t Begin = ScopeSymbols.size();
  for (Value S : Symbols)
    ScopeSymbols.push_back(S);
  Scopes.push_back({Begin, ScopeSymbols.size()});
}

void Compiler::popFrame() {
  GENGC_ASSERT(!Scopes.empty(), "scope underflow");
  ScopeSymbols.truncate(Scopes.back().Begin);
  Scopes.pop_back();
}

bool Compiler::resolveLexical(Value Symbol, uint32_t &Depth,
                              uint32_t &Index) {
  for (size_t D = 0; D != Scopes.size(); ++D) {
    const Frame &F = Scopes[Scopes.size() - 1 - D];
    for (size_t K = F.Begin; K != F.End; ++K) {
      if (ScopeSymbols[K] == Symbol) {
        Depth = static_cast<uint32_t>(D);
        Index = static_cast<uint32_t>(K - F.Begin);
        return true;
      }
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Expression compilation.
//===----------------------------------------------------------------------===//

void Compiler::compileExpr(UnitBuilder &B, Value Expr, bool Tail) {
  if (hadError())
    return;

  // Self-evaluating data and variables.
  if (isSymbol(Expr)) {
    uint32_t Depth, Index;
    if (resolveLexical(Expr, Depth, Index))
      emit(B, Op::LocalRef, Depth, Index);
    else
      emit(B, Op::GlobalRef, addConstant(B, Expr));
    return;
  }
  if (!Expr.isPair()) {
    if (Expr.isNil())
      emit(B, Op::PushNil);
    else if (Expr.isTrue())
      emit(B, Op::PushTrue);
    else if (Expr.isFalse())
      emit(B, Op::PushFalse);
    else if (Expr.isVoid())
      emit(B, Op::PushVoid);
    else
      emit(B, Op::Const, addConstant(B, Expr));
    return;
  }

  Value Head = pairCar(Expr);
  if (isSymbol(Head)) {
    // Special forms are reserved words, matching the interpreter (which
    // dispatches on the head symbol before considering bindings).
    {
      Value Rest = pairCdr(Expr);
      if (Head == FS.Quote.get()) {
        emit(B, Op::Const, addConstant(B, pairCar(Rest)));
        return;
      }
      if (Head == FS.If.get())
        return compileIf(B, Rest, Tail);
      if (Head == FS.Define.get())
        return compileDefine(B, Rest);
      if (Head == FS.Set.get())
        return compileSet(B, Rest);
      if (Head == FS.Lambda.get()) {
        // One clause: the form's own tail is (formals body...).
        size_t Unit = SIZE_MAX;
        {
          // Wrap the single clause without allocating: compile directly.
          UnitBuilder UB(H);
          UB.Name = "lambda";
          uint32_t NFixed;
          bool HasRest;
          pushFormalsFrame(pairCar(Rest), NFixed, HasRest);
          emit(UB, Op::Bind, NFixed, HasRest ? 1u : 0u);
          compileBody(UB, pairCdr(Rest), /*Tail=*/true);
          emit(UB, Op::Return);
          popFrame();
          Unit = finishUnit(UB);
        }
        emit(B, Op::MakeClosure, static_cast<uint32_t>(Unit));
        return;
      }
      if (Head == FS.CaseLambda.get()) {
        size_t Unit = compileProcedureUnit(Rest, "case-lambda");
        emit(B, Op::MakeClosure, static_cast<uint32_t>(Unit));
        return;
      }
      if (Head == FS.Begin.get()) {
        compileBody(B, Rest, Tail);
        return;
      }
      if (Head == FS.Let.get())
        return compileLet(B, Rest, Tail);
      if (Head == FS.LetStar.get())
        return compileLetStarOrRec(B, Rest, Tail, /*IsRec=*/false);
      if (Head == FS.Letrec.get())
        return compileLetStarOrRec(B, Rest, Tail, /*IsRec=*/true);
      if (Head == FS.And.get())
        return compileAndOr(B, Rest, Tail, /*IsAnd=*/true);
      if (Head == FS.Or.get())
        return compileAndOr(B, Rest, Tail, /*IsAnd=*/false);
      if (Head == FS.Cond.get())
        return compileCond(B, Rest, Tail);
      if (Head == FS.When.get())
        return compileWhenUnless(B, Rest, Tail, /*Negate=*/false);
      if (Head == FS.Unless.get())
        return compileWhenUnless(B, Rest, Tail, /*Negate=*/true);
    }
  }
  compileApplication(B, Expr, Tail);
}

void Compiler::compileBody(UnitBuilder &B, Value Body, bool Tail) {
  if (!Body.isPair()) {
    emit(B, Op::PushVoid);
    return;
  }
  while (pairCdr(Body).isPair()) {
    compileExpr(B, pairCar(Body), /*Tail=*/false);
    emit(B, Op::Pop);
    Body = pairCdr(Body);
  }
  compileExpr(B, pairCar(Body), Tail);
}

void Compiler::compileApplication(UnitBuilder &B, Value Expr, bool Tail) {
  compileExpr(B, pairCar(Expr), /*Tail=*/false);
  uint32_t Argc = 0;
  for (Value A = pairCdr(Expr); A.isPair(); A = pairCdr(A)) {
    compileExpr(B, pairCar(A), /*Tail=*/false);
    ++Argc;
  }
  emit(B, Tail ? Op::TailCall : Op::Call, Argc);
}

void Compiler::compileIf(UnitBuilder &B, Value Rest, bool Tail) {
  compileExpr(B, pairCar(Rest), /*Tail=*/false);
  size_t ElseJump = emitJump(B, Op::JumpIfFalse);
  compileExpr(B, pairCar(pairCdr(Rest)), Tail);
  size_t EndJump = emitJump(B, Op::Jump);
  patchJump(B, ElseJump);
  Value ElseBranch = pairCdr(pairCdr(Rest));
  if (ElseBranch.isPair())
    compileExpr(B, pairCar(ElseBranch), Tail);
  else
    emit(B, Op::PushVoid);
  patchJump(B, EndJump);
}

void Compiler::compileDefine(UnitBuilder &B, Value Rest) {
  Value Target = pairCar(Rest);
  if (Target.isPair()) {
    // (define (name . formals) body...): compile the procedure with the
    // single clause (formals body...), which is Rest's own structure.
    Value Name = pairCar(Target);
    if (!isSymbol(Name)) {
      fail("define: procedure name must be a symbol");
      return;
    }
    UnitBuilder UB(H);
    UB.Name = H.symbolName(Name);
    uint32_t NFixed;
    bool HasRest;
    pushFormalsFrame(pairCdr(Target), NFixed, HasRest);
    emit(UB, Op::Bind, NFixed, HasRest ? 1u : 0u);
    compileBody(UB, pairCdr(Rest), /*Tail=*/true);
    emit(UB, Op::Return);
    popFrame();
    size_t Unit = finishUnit(UB);
    emit(B, Op::MakeClosure, static_cast<uint32_t>(Unit));
    emit(B, Op::GlobalDef, addConstant(B, Name));
    return;
  }
  if (!isSymbol(Target)) {
    fail("define: bad target");
    return;
  }
  compileExpr(B, pairCar(pairCdr(Rest)), /*Tail=*/false);
  emit(B, Op::GlobalDef, addConstant(B, Target));
}

void Compiler::compileSet(UnitBuilder &B, Value Rest) {
  Value Name = pairCar(Rest);
  if (!isSymbol(Name)) {
    fail("set!: target must be a symbol");
    return;
  }
  compileExpr(B, pairCar(pairCdr(Rest)), /*Tail=*/false);
  uint32_t Depth, Index;
  if (resolveLexical(Name, Depth, Index))
    emit(B, Op::LocalSet, Depth, Index);
  else
    emit(B, Op::GlobalSet, addConstant(B, Name));
}

size_t Compiler::compileProcedureUnit(Value Clauses,
                                      const std::string &Name) {
  UnitBuilder UB(H);
  UB.Name = Name;
  for (Value C = Clauses; C.isPair(); C = pairCdr(C)) {
    Value Clause = pairCar(C);
    uint32_t NFixed;
    bool HasRest;
    pushFormalsFrame(pairCar(Clause), NFixed, HasRest);
    size_t NextClause = 0;
    emit(UB, Op::ArityJump, NFixed, HasRest ? 1u : 0u);
    NextClause = UB.Code.size();
    UB.Code.push_back(0);
    emit(UB, Op::Bind, NFixed, HasRest ? 1u : 0u);
    compileBody(UB, pairCdr(Clause), /*Tail=*/true);
    emit(UB, Op::Return);
    popFrame();
    patchJump(UB, NextClause);
  }
  emit(UB, Op::ArityFail);
  return finishUnit(UB);
}

void Compiler::compileLet(UnitBuilder &B, Value Rest, bool Tail) {
  if (isSymbol(pairCar(Rest))) {
    // Named let: bind the loop procedure in a one-slot frame so its
    // body (compiled with that frame in scope) can recur on it.
    Value Name = pairCar(Rest);
    Value Bindings = pairCar(pairCdr(Rest));
    Value Body = pairCdr(pairCdr(Rest));
    std::vector<Value> Vars;
    uint32_t NInits = 0;
    for (Value Bd = Bindings; Bd.isPair(); Bd = pairCdr(Bd))
      Vars.push_back(pairCar(pairCar(Bd)));

    emit(B, Op::EnterScopeUndef, 1);
    pushSymbolsFrame({Name});

    // The loop procedure's unit, compiled with the loop-name frame in
    // scope (its Bind frame chains to it at run time).
    UnitBuilder UB(H);
    UB.Name = H.symbolName(Name);
    pushSymbolsFrame(Vars);
    emit(UB, Op::Bind, static_cast<uint32_t>(Vars.size()), 0);
    compileBody(UB, Body, /*Tail=*/true);
    emit(UB, Op::Return);
    popFrame();
    size_t Unit = finishUnit(UB);

    emit(B, Op::MakeClosure, static_cast<uint32_t>(Unit));
    emit(B, Op::LocalSet, 0, 0);
    emit(B, Op::Pop); // LocalSet pushes void.
    // Initial application: (loop init...).
    emit(B, Op::LocalRef, 0, 0);
    for (Value Bd = Bindings; Bd.isPair(); Bd = pairCdr(Bd)) {
      compileExpr(B, pairCar(pairCdr(pairCar(Bd))), /*Tail=*/false);
      ++NInits;
    }
    // Note: even in tail position this Call cannot be a TailCall,
    // because the EnterScopeUndef frame must be unwound afterwards.
    emit(B, Op::Call, NInits);
    popFrame();
    emit(B, Op::ExitScope);
    if (Tail) {
      // The value is already on the stack; nothing else to do -- the
      // caller's Return (emitted by compileBody) follows.
    }
    return;
  }

  // Plain let: evaluate inits in the outer scope, then enter the frame.
  Value Bindings = pairCar(Rest);
  Value Body = pairCdr(Rest);
  std::vector<Value> Vars;
  uint32_t N = 0;
  for (Value Bd = Bindings; Bd.isPair(); Bd = pairCdr(Bd)) {
    Vars.push_back(pairCar(pairCar(Bd)));
    compileExpr(B, pairCar(pairCdr(pairCar(Bd))), /*Tail=*/false);
    ++N;
  }
  emit(B, Op::EnterScope, N);
  pushSymbolsFrame(Vars);
  compileBody(B, Body, /*Tail=*/false);
  popFrame();
  emit(B, Op::ExitScope);
  (void)Tail;
}

void Compiler::compileLetStarOrRec(UnitBuilder &B, Value Rest, bool Tail,
                                   bool IsRec) {
  Value Bindings = pairCar(Rest);
  Value Body = pairCdr(Rest);
  std::vector<Value> Vars;
  for (Value Bd = Bindings; Bd.isPair(); Bd = pairCdr(Bd))
    Vars.push_back(pairCar(pairCar(Bd)));
  emit(B, Op::EnterScopeUndef, static_cast<uint32_t>(Vars.size()));
  pushSymbolsFrame(Vars);
  // letrec: all names visible while inits run. let*: sequential -- with
  // a single pre-pushed frame this makes later names visible early, but
  // reading them before their init is already an unbound-variable error
  // at run time, so the observable semantics match.
  uint32_t Index = 0;
  for (Value Bd = Bindings; Bd.isPair(); Bd = pairCdr(Bd)) {
    compileExpr(B, pairCar(pairCdr(pairCar(Bd))), /*Tail=*/false);
    emit(B, Op::LocalSet, 0, Index++);
    emit(B, Op::Pop);
  }
  (void)IsRec;
  compileBody(B, Body, /*Tail=*/false);
  popFrame();
  emit(B, Op::ExitScope);
  (void)Tail;
}

void Compiler::compileAndOr(UnitBuilder &B, Value Rest, bool Tail,
                            bool IsAnd) {
  if (!Rest.isPair()) {
    emit(B, IsAnd ? Op::PushTrue : Op::PushFalse);
    return;
  }
  std::vector<size_t> EndJumps;
  std::vector<size_t> FalseJumps; // and: collected short-circuits.
  while (pairCdr(Rest).isPair()) {
    compileExpr(B, pairCar(Rest), /*Tail=*/false);
    if (IsAnd) {
      // A false value short-circuits with result #f (no Dup needed:
      // the short-circuit value of `and` is always #f).
      FalseJumps.push_back(emitJump(B, Op::JumpIfFalse));
    } else {
      // A truthy value IS the result: keep a copy across the test.
      emit(B, Op::Dup);
      size_t Falsy = emitJump(B, Op::JumpIfFalse);
      EndJumps.push_back(emitJump(B, Op::Jump));
      patchJump(B, Falsy);
      emit(B, Op::Pop); // Discard the falsy value; try the next form.
    }
    Rest = pairCdr(Rest);
  }
  compileExpr(B, pairCar(Rest), Tail);
  if (IsAnd && !FalseJumps.empty()) {
    EndJumps.push_back(emitJump(B, Op::Jump));
    for (size_t J : FalseJumps)
      patchJump(B, J);
    emit(B, Op::PushFalse);
  }
  for (size_t J : EndJumps)
    patchJump(B, J);
}

void Compiler::compileCond(UnitBuilder &B, Value Rest, bool Tail) {
  std::vector<size_t> EndJumps;
  for (Value C = Rest; C.isPair(); C = pairCdr(C)) {
    Value Clause = pairCar(C);
    Value Test = pairCar(Clause);
    if (Test == FS.Else.get()) {
      compileBody(B, pairCdr(Clause), Tail);
      size_t End = emitJump(B, Op::Jump);
      EndJumps.push_back(End);
      break;
    }
    compileExpr(B, Test, /*Tail=*/false);
    if (!pairCdr(Clause).isPair()) {
      // (cond (test)): the test value itself is the result when truthy.
      emit(B, Op::Dup);
      size_t Next = emitJump(B, Op::JumpIfFalse);
      EndJumps.push_back(emitJump(B, Op::Jump));
      patchJump(B, Next);
      emit(B, Op::Pop); // Discard the falsy test value.
      continue;
    }
    size_t Next = emitJump(B, Op::JumpIfFalse);
    compileBody(B, pairCdr(Clause), Tail);
    size_t End = emitJump(B, Op::Jump);
    EndJumps.push_back(End);
    patchJump(B, Next);
  }
  emit(B, Op::PushVoid); // No clause matched.
  for (size_t J : EndJumps)
    patchJump(B, J);
}

void Compiler::compileWhenUnless(UnitBuilder &B, Value Rest, bool Tail,
                                 bool Negate) {
  compileExpr(B, pairCar(Rest), /*Tail=*/false);
  if (Negate) {
    // unless: run body when the test is false.
    size_t BodyJump = emitJump(B, Op::JumpIfFalse);
    emit(B, Op::PushVoid);
    size_t End = emitJump(B, Op::Jump);
    patchJump(B, BodyJump);
    compileBody(B, pairCdr(Rest), Tail);
    patchJump(B, End);
    return;
  }
  size_t ElseJump = emitJump(B, Op::JumpIfFalse);
  compileBody(B, pairCdr(Rest), Tail);
  size_t End = emitJump(B, Op::Jump);
  patchJump(B, ElseJump);
  emit(B, Op::PushVoid);
  patchJump(B, End);
}

//===----------------------------------------------------------------------===//
// Units.
//===----------------------------------------------------------------------===//

size_t Compiler::finishUnit(UnitBuilder &B) {
  // No allocation here: the unit's constants stay in their RootVector
  // until freezeConstantPools runs after the whole source walk, so
  // finishing a nested unit cannot move the bare Values the enclosing
  // walk still holds.
  CodeUnit Unit;
  Unit.Code = std::move(B.Code);
  Unit.Name = std::move(B.Name);
  size_t UnitIndex = Program.addUnit(std::move(Unit));
  PendingPools.emplace_back(UnitIndex, std::move(B.Constants));
  return UnitIndex;
}

void Compiler::freezeConstantPools() {
  for (auto &Pending : PendingPools) {
    RootVector &Constants = *Pending.second;
    Root Pool(H, H.makeVector(Constants.size(), Value::nil()));
    for (size_t K = 0; K != Constants.size(); ++K)
      H.vectorSet(Pool, K, Constants[K]);
    Program.setUnitConstants(Pending.first, Program.addConstantPool(Pool));
  }
  PendingPools.clear();
}

size_t Compiler::compileTopLevel(Value Form) {
  Root RForm(H, Form);
  UnitBuilder B(H);
  B.Name = "top-level";
  emit(B, Op::Bind, 0, 0);
  {
    // The walk tracks source structure in bare Values throughout, which
    // is only sound if nothing can trigger a collection; the scope
    // turns any stray allocation into an assertion failure.
    NoGcScope NoAlloc(H);
    compileExpr(B, RForm.get(), /*Tail=*/false);
  }
  emit(B, Op::Return);
  if (hadError())
    return SIZE_MAX;
  size_t Entry = finishUnit(B);
  freezeConstantPools();
  return Entry;
}
