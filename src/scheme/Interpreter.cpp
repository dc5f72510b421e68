//===- scheme/Interpreter.cpp - Scheme evaluator --------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "scheme/Interpreter.h"

#include "core/ListOps.h"
#include "scheme/Printer.h"
#include "scheme/Reader.h"

using namespace gengc;

namespace {
constexpr unsigned MaxEvalDepth = 4000;

/// Field indices of an environment record: {tag, bindings, parent}.
enum EnvField { EnvTagField = 0, EnvBindings = 1, EnvParent = 2 };
} // namespace

Interpreter::Interpreter(Heap &H)
    : H(H), Ports(FS), GlobalEnv(H), SymQuote(H), SymIf(H), SymDefine(H),
      SymSet(H), SymLambda(H), SymCaseLambda(H), SymBegin(H), SymLet(H),
      SymLetStar(H), SymLetrec(H), SymAnd(H), SymOr(H), SymCond(H),
      SymElse(H), SymWhen(H), SymUnless(H), SymEnvTag(H) {
  SymQuote = H.intern("quote");
  SymIf = H.intern("if");
  SymDefine = H.intern("define");
  SymSet = H.intern("set!");
  SymLambda = H.intern("lambda");
  SymCaseLambda = H.intern("case-lambda");
  SymBegin = H.intern("begin");
  SymLet = H.intern("let");
  SymLetStar = H.intern("let*");
  SymLetrec = H.intern("letrec");
  SymAnd = H.intern("and");
  SymOr = H.intern("or");
  SymCond = H.intern("cond");
  SymElse = H.intern("else");
  SymWhen = H.intern("when");
  SymUnless = H.intern("unless");
  SymEnvTag = H.intern("environment");
  GlobalEnv = makeEnvironment(Value::falseV());
  installPrimitives();
  loadPrelude();
}

Value Interpreter::signalError(const std::string &Message) {
  if (!ErrorFlag) {
    ErrorFlag = true;
    ErrorMsg = Message;
  }
  return Value::voidV();
}

//===----------------------------------------------------------------------===//
// Environments.
//===----------------------------------------------------------------------===//

Value Interpreter::makeEnvironment(Value Parent) {
  Root RParent(H, Parent);
  Root Env(H, H.makeRecord(SymEnvTag, 3, Value::nil()));
  H.recordSet(Env, EnvParent, RParent);
  return Env;
}

Value Interpreter::lookupVariable(Value Symbol, Value Env) {
  for (Value E = Env; isRecord(E); E = objectField(E, EnvParent)) {
    Value Entry = listAssq(Symbol, objectField(E, EnvBindings));
    if (Entry.isPair())
      return pairCdr(Entry);
  }
  return signalError("unbound variable: " + H.symbolName(Symbol));
}

bool Interpreter::setVariable(Value Symbol, Value Env, Value V) {
  for (Value E = Env; isRecord(E); E = objectField(E, EnvParent)) {
    Value Entry = listAssq(Symbol, objectField(E, EnvBindings));
    if (Entry.isPair()) {
      H.setCdr(Entry, V);
      return true;
    }
  }
  return false;
}

void Interpreter::defineVariable(Value Env, Value Symbol, Value V) {
  Root REnv(H, Env), RSymbol(H, Symbol), RV(H, V);
  // Redefinition mutates in place, as a REPL expects.
  Value Entry = listAssq(RSymbol, objectField(REnv.get(), EnvBindings));
  if (Entry.isPair()) {
    H.setCdr(Entry, RV);
    return;
  }
  Root NewEntry(H, H.cons(RSymbol, RV));
  Value NewBindings =
      H.cons(NewEntry, objectField(REnv.get(), EnvBindings));
  H.recordSet(REnv, EnvBindings, NewBindings);
}

void Interpreter::defineGlobal(std::string_view Name, Value V) {
  Root RV(H, V);
  Root Sym(H, H.intern(Name));
  defineVariable(GlobalEnv, Sym, RV);
}

void Interpreter::defineGlobalSymbol(Value Symbol, Value V) {
  defineVariable(GlobalEnv, Symbol, V);
}

Value Interpreter::lookupGlobalSymbol(Value Symbol) {
  Value Entry = listAssq(Symbol, objectField(GlobalEnv.get(), EnvBindings));
  if (Entry.isPair())
    return pairCdr(Entry);
  return Value::unbound();
}

bool Interpreter::setGlobalSymbol(Value Symbol, Value V) {
  return setVariable(Symbol, GlobalEnv, V);
}

//===----------------------------------------------------------------------===//
// Application support.
//===----------------------------------------------------------------------===//

Value Interpreter::selectClause(Value Clauses, size_t ArgCount) {
  for (Value L = Clauses; L.isPair(); L = pairCdr(L)) {
    Value Clause = pairCar(L);
    Value Formals = pairCar(Clause);
    size_t Fixed = 0;
    bool Variadic = false;
    Value F = Formals;
    while (F.isPair()) {
      ++Fixed;
      F = pairCdr(F);
    }
    if (isSymbol(F))
      Variadic = true; // (a b . rest) or a bare symbol.
    if (ArgCount == Fixed || (Variadic && ArgCount >= Fixed))
      return Clause;
  }
  return Value::unbound();
}

Value Interpreter::bindFormals(Value Formals, RootVector &Args,
                               Value ParentEnv) {
  Root RFormals(H, Formals);
  Root Env(H, makeEnvironment(ParentEnv));
  size_t I = 0;
  Root F(H, RFormals.get());
  while (F.get().isPair()) {
    GENGC_ASSERT(I < Args.size(), "arity was checked by selectClause");
    defineVariable(Env, pairCar(F.get()), Args[I]);
    ++I;
    F = pairCdr(F.get());
  }
  if (isSymbol(F.get())) {
    // Rest parameter: collect the remaining arguments into a list.
    Root Rest(H, Value::nil());
    for (size_t J = Args.size(); J != I; --J)
      Rest = H.cons(Args[J - 1], Rest.get());
    defineVariable(Env, F.get(), Rest);
  }
  return Env;
}

//===----------------------------------------------------------------------===//
// Evaluation.
//===----------------------------------------------------------------------===//

Value Interpreter::evalSequence(Value Body, Value Env) {
  Root RBody(H, Body), REnv(H, Env);
  Root Result(H, Value::voidV());
  while (RBody.get().isPair()) {
    if (ErrorFlag)
      return Value::voidV();
    Result = eval(pairCar(RBody.get()), REnv);
    RBody = pairCdr(RBody.get());
  }
  return Result;
}

Value Interpreter::evalSequenceButLast(Value Body, Value Env) {
  Root RBody(H, Body), REnv(H, Env);
  if (!RBody.get().isPair())
    return Value::unbound();
  while (pairCdr(RBody.get()).isPair()) {
    if (ErrorFlag)
      return Value::unbound();
    eval(pairCar(RBody.get()), REnv);
    RBody = pairCdr(RBody.get());
  }
  if (ErrorFlag)
    return Value::unbound();
  return pairCar(RBody.get());
}

Value Interpreter::eval(Value ExprIn, Value EnvIn) {
  if (ErrorFlag)
    return Value::voidV();
  if (++Depth > MaxEvalDepth) {
    --Depth;
    return signalError("evaluation depth limit exceeded");
  }
  Root Expr(H, ExprIn), Env(H, EnvIn);
  Value Result = Value::voidV();

  // Tail-call loop: tail positions update Expr/Env and continue.
  for (;;) {
    if (ErrorFlag)
      break;
    Value E = Expr.get();

    // Self-evaluating data.
    if (!E.isPair() && !isSymbol(E)) {
      Result = E;
      break;
    }
    if (isSymbol(E)) {
      Result = lookupVariable(E, Env);
      break;
    }

    Value Head = pairCar(E);
    if (isSymbol(Head)) {
      //===--- Special forms ---------------------------------------------===//
      if (Head == SymQuote.get()) {
        Result = pairCar(pairCdr(E));
        break;
      }
      if (Head == SymIf.get()) {
        Root Rest(H, pairCdr(E));
        Value Test = eval(pairCar(Rest.get()), Env);
        if (ErrorFlag)
          break;
        Value Branches = pairCdr(Rest.get());
        if (Test.isTruthy()) {
          Expr = pairCar(Branches);
          continue;
        }
        Value ElseBranch = pairCdr(Branches);
        if (!ElseBranch.isPair()) {
          Result = Value::voidV();
          break;
        }
        Expr = pairCar(ElseBranch);
        continue;
      }
      if (Head == SymDefine.get()) {
        Root Target(H, pairCar(pairCdr(E)));
        if (Target.get().isPair()) {
          // (define (name . formals) body...)
          Root Name(H, pairCar(Target.get()));
          Root Clause(H, H.cons(pairCdr(Target.get()),
                                pairCdr(pairCdr(Expr.get()))));
          Root Clauses(H, H.cons(Clause, Value::nil()));
          Root Proc(H, H.makeClosure(Clauses, Env, Name));
          defineVariable(Env, Name, Proc);
        } else if (isSymbol(Target.get())) {
          Root V(H, eval(pairCar(pairCdr(pairCdr(Expr.get()))), Env));
          if (ErrorFlag)
            break;
          // Name lambdas defined this way, for better procedure printing.
          if (isClosure(V.get()) &&
              objectField(V.get(), CloName).isFalse())
            H.objectFieldSet(V, CloName, Target);
          defineVariable(Env, Target, V);
        } else {
          signalError("define: bad target");
          break;
        }
        Result = Value::voidV();
        break;
      }
      if (Head == SymSet.get()) {
        Root Name(H, pairCar(pairCdr(E)));
        if (!isSymbol(Name.get())) {
          signalError("set!: target must be a symbol");
          break;
        }
        Root V(H, eval(pairCar(pairCdr(pairCdr(Expr.get()))), Env));
        if (ErrorFlag)
          break;
        if (!setVariable(Name, Env, V))
          signalError("set!: unbound variable: " +
                      H.symbolName(Name.get()));
        Result = Value::voidV();
        break;
      }
      if (Head == SymLambda.get()) {
        // Clause representation: (formals body...), exactly the form's
        // tail; case-lambda clauses share it.
        Root Clauses(H, H.cons(pairCdr(E), Value::nil()));
        Result = H.makeClosure(Clauses, Env, Value::falseV());
        break;
      }
      if (Head == SymCaseLambda.get()) {
        Result = H.makeClosure(pairCdr(E), Env, Value::falseV());
        break;
      }
      if (Head == SymBegin.get()) {
        Value Last = evalSequenceButLast(pairCdr(E), Env);
        if (ErrorFlag || Last.isUnbound()) {
          Result = Value::voidV();
          break;
        }
        Expr = Last;
        continue;
      }
      if (Head == SymLet.get()) {
        Root Rest(H, pairCdr(E));
        if (isSymbol(pairCar(Rest.get()))) {
          // Named let: (let name ((v init)...) body...).
          Root Name(H, pairCar(Rest.get()));
          Root Bindings(H, pairCar(pairCdr(Rest.get())));
          Root Body(H, pairCdr(pairCdr(Rest.get())));
          // Build the loop procedure's formals list.
          RootVector Vars(H);
          RootVector Inits(H);
          for (Value B = Bindings.get(); B.isPair(); B = pairCdr(B)) {
            Vars.push_back(pairCar(pairCar(B)));
            Inits.push_back(pairCar(pairCdr(pairCar(B))));
          }
          Root Formals(H, Value::nil());
          for (size_t I = Vars.size(); I != 0; --I)
            Formals = H.cons(Vars[I - 1], Formals.get());
          Root LoopEnv(H, makeEnvironment(Env));
          Root Clause(H, H.cons(Formals, Body));
          Root Clauses(H, H.cons(Clause, Value::nil()));
          Root Proc(H, H.makeClosure(Clauses, LoopEnv, Name));
          defineVariable(LoopEnv, Name, Proc);
          // Evaluate the initializers in the *outer* environment.
          RootVector Args(H);
          for (size_t I = 0; I != Inits.size(); ++I) {
            Args.push_back(eval(Inits[I], Env));
            if (ErrorFlag)
              break;
          }
          if (ErrorFlag)
            break;
          Env = bindFormals(Formals, Args, LoopEnv);
          Value Last = evalSequenceButLast(Body, Env);
          if (ErrorFlag || Last.isUnbound()) {
            Result = Value::voidV();
            break;
          }
          Expr = Last;
          continue;
        }
        // Plain let.
        Root Bindings(H, pairCar(Rest.get()));
        Root Body(H, pairCdr(Rest.get()));
        RootVector Vars(H);
        RootVector Args(H);
        for (Root B(H, Bindings.get()); B.get().isPair();
             B = pairCdr(B.get())) {
          Vars.push_back(pairCar(pairCar(B.get())));
          Args.push_back(eval(pairCar(pairCdr(pairCar(B.get()))), Env));
          if (ErrorFlag)
            break;
        }
        if (ErrorFlag)
          break;
        Root NewEnv(H, makeEnvironment(Env));
        for (size_t I = 0; I != Vars.size(); ++I)
          defineVariable(NewEnv, Vars[I], Args[I]);
        Env = NewEnv.get();
        Value Last = evalSequenceButLast(Body, Env);
        if (ErrorFlag || Last.isUnbound()) {
          Result = Value::voidV();
          break;
        }
        Expr = Last;
        continue;
      }
      if (Head == SymLetStar.get() || Head == SymLetrec.get()) {
        bool IsRec = Head == SymLetrec.get();
        Root Rest(H, pairCdr(E));
        Root Bindings(H, pairCar(Rest.get()));
        Root Body(H, pairCdr(Rest.get()));
        Root NewEnv(H, makeEnvironment(Env));
        if (IsRec)
          for (Root B(H, Bindings.get()); B.get().isPair();
               B = pairCdr(B.get()))
            defineVariable(NewEnv, pairCar(pairCar(B.get())),
                           Value::unbound());
        for (Root B(H, Bindings.get()); B.get().isPair();
             B = pairCdr(B.get())) {
          Root Var(H, pairCar(pairCar(B.get())));
          Root V(H, eval(pairCar(pairCdr(pairCar(B.get()))), NewEnv));
          if (ErrorFlag)
            break;
          defineVariable(NewEnv, Var, V);
        }
        if (ErrorFlag)
          break;
        Env = NewEnv.get();
        Value Last = evalSequenceButLast(Body, Env);
        if (ErrorFlag || Last.isUnbound()) {
          Result = Value::voidV();
          break;
        }
        Expr = Last;
        continue;
      }
      if (Head == SymAnd.get()) {
        Root Rest(H, pairCdr(E));
        if (!Rest.get().isPair()) {
          Result = Value::trueV();
          break;
        }
        bool ShortCircuit = false;
        while (pairCdr(Rest.get()).isPair()) {
          Value V = eval(pairCar(Rest.get()), Env);
          if (ErrorFlag || !V.isTruthy()) {
            Result = ErrorFlag ? Value::voidV() : Value::falseV();
            ShortCircuit = true;
            break;
          }
          Rest = pairCdr(Rest.get());
        }
        if (ShortCircuit)
          break;
        Expr = pairCar(Rest.get());
        continue;
      }
      if (Head == SymOr.get()) {
        Root Rest(H, pairCdr(E));
        if (!Rest.get().isPair()) {
          Result = Value::falseV();
          break;
        }
        bool ShortCircuit = false;
        while (pairCdr(Rest.get()).isPair()) {
          Value V = eval(pairCar(Rest.get()), Env);
          if (ErrorFlag || V.isTruthy()) {
            Result = ErrorFlag ? Value::voidV() : V;
            ShortCircuit = true;
            break;
          }
          Rest = pairCdr(Rest.get());
        }
        if (ShortCircuit)
          break;
        Expr = pairCar(Rest.get());
        continue;
      }
      if (Head == SymCond.get()) {
        Root Clause(H, Value::nil());
        Root Rest(H, pairCdr(E));
        bool Matched = false, Done = false;
        while (Rest.get().isPair()) {
          Clause = pairCar(Rest.get());
          Value Test = pairCar(Clause.get());
          if (Test == SymElse.get()) {
            Matched = true;
            break;
          }
          Value V = eval(Test, Env);
          if (ErrorFlag) {
            Done = true;
            break;
          }
          if (V.isTruthy()) {
            if (!pairCdr(Clause.get()).isPair()) {
              Result = V; // (cond (test)) yields the test value.
              Done = true;
              break;
            }
            Matched = true;
            break;
          }
          Rest = pairCdr(Rest.get());
        }
        if (Done)
          break;
        if (!Matched) {
          Result = Value::voidV();
          break;
        }
        Value Last = evalSequenceButLast(pairCdr(Clause.get()), Env);
        if (ErrorFlag || Last.isUnbound()) {
          Result = Value::voidV();
          break;
        }
        Expr = Last;
        continue;
      }
      if (Head == SymWhen.get() || Head == SymUnless.get()) {
        bool Negate = Head == SymUnless.get();
        Root Rest(H, pairCdr(E));
        Value Test = eval(pairCar(Rest.get()), Env);
        if (ErrorFlag)
          break;
        if (Test.isTruthy() == Negate) {
          Result = Value::voidV();
          break;
        }
        Value Last = evalSequenceButLast(pairCdr(Rest.get()), Env);
        if (ErrorFlag || Last.isUnbound()) {
          Result = Value::voidV();
          break;
        }
        Expr = Last;
        continue;
      }
    }

    //===--- Application --------------------------------------------------===//
    Root Proc(H, eval(Head, Env));
    if (ErrorFlag)
      break;
    RootVector Args(H);
    Root ArgList(H, pairCdr(Expr.get()));
    while (ArgList.get().isPair()) {
      Args.push_back(eval(pairCar(ArgList.get()), Env));
      if (ErrorFlag)
        break;
      ArgList = pairCdr(ArgList.get());
    }
    if (ErrorFlag)
      break;

    if (isClosure(Proc.get())) {
      // Tail-call the closure: rebind and continue the loop.
      Value Clause = selectClause(objectField(Proc.get(), CloClauses),
                                  Args.size());
      if (Clause.isUnbound()) {
        signalError("wrong number of arguments");
        break;
      }
      Root Body(H, pairCdr(Clause));
      Env = bindFormals(pairCar(Clause), Args,
                        objectField(Proc.get(), CloEnv));
      Value Last = evalSequenceButLast(Body, Env);
      if (ErrorFlag || Last.isUnbound()) {
        Result = Value::voidV();
        break;
      }
      Expr = Last;
      continue;
    }
    Result = applyProcedure(Proc, Args);
    break;
  }

  --Depth;
  return Result;
}

Value Interpreter::applyProcedure(Value ProcIn, RootVector &Args) {
  Root Proc(H, ProcIn);
  if (ErrorFlag)
    return Value::voidV();

  if (isClosure(Proc.get())) {
    Value Clause =
        selectClause(objectField(Proc.get(), CloClauses), Args.size());
    if (Clause.isUnbound())
      return signalError("wrong number of arguments");
    Root Body(H, pairCdr(Clause));
    Root Env(H, bindFormals(pairCar(Clause), Args,
                            objectField(Proc.get(), CloEnv)));
    return evalSequence(Body, Env);
  }

  if (isPrimitive(Proc.get())) {
    intptr_t Min = objectField(Proc.get(), PrimMinArgs).asFixnum();
    intptr_t Max = objectField(Proc.get(), PrimMaxArgs).asFixnum();
    intptr_t N = static_cast<intptr_t>(Args.size());
    if (N < Min || (Max >= 0 && N > Max)) {
      Value Name = objectField(Proc.get(), PrimName);
      return signalError(
          (isSymbol(Name) ? H.symbolName(Name) : "primitive") +
          ": wrong number of arguments");
    }
    size_t Index =
        static_cast<size_t>(objectField(Proc.get(), PrimIndex).asFixnum());
    GENGC_ASSERT(Index < PrimitiveFns.size(), "bad primitive index");
    return PrimitiveFns[Index](*this, Args);
  }

  if (ExternalApplyTag && isRecord(Proc.get()) &&
      objectLength(Proc.get()) >= 1 &&
      objectField(Proc.get(), 0) == ExternalApplyTag->get()) {
    Value R = ExternalApply(Proc.get(), Args);
    return R;
  }

  if (isGuardianObject(Proc.get())) {
    // The Section 3 procedure interface: (G) retrieves, (G obj)
    // registers; (G obj agent) is the Section 5 generalization.
    Value Tconc = objectField(Proc.get(), GuardTconc);
    if (Args.size() == 0)
      return H.guardianRetrieve(Tconc);
    if (Args.size() == 1) {
      H.guardianProtect(Tconc, Args[0]);
      return Value::voidV();
    }
    if (Args.size() == 2) {
      H.guardianProtectWithAgent(Tconc, Args[0], Args[1]);
      return Value::voidV();
    }
    return signalError("guardian: expects zero, one, or two arguments");
  }

  return signalError("attempt to apply a non-procedure: " +
                     writeToString(H, Proc.get()));
}

//===----------------------------------------------------------------------===//
// Entry points.
//===----------------------------------------------------------------------===//

bool Interpreter::isApplicable(Value V) const {
  if (isClosure(V) || isPrimitive(V) || isGuardianObject(V))
    return true;
  return ExternalApplyTag && isRecord(V) && objectLength(V) >= 1 &&
         objectField(V, 0) == ExternalApplyTag->get();
}

Value Interpreter::evalForm(Value Form) {
  Root RForm(H, Form);
  return eval(RForm, GlobalEnv);
}

Value Interpreter::evalString(std::string_view Source) {
  Reader R(H, Source);
  RootVector Forms(H);
  R.readAll(Forms);
  if (R.hadError())
    return signalError("read error: " + R.errorMessage());
  Root Result(H, Value::voidV());
  for (size_t I = 0; I != Forms.size(); ++I) {
    if (ErrorFlag)
      break;
    Result = eval(Forms[I], GlobalEnv);
  }
  return Result;
}
