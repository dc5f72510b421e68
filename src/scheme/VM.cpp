//===- scheme/VM.cpp - Bytecode virtual machine ---------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "scheme/VM.h"

#include "scheme/Compiler.h"
#include "scheme/Printer.h"
#include "scheme/Reader.h"

using namespace gengc;

VirtualMachine::VirtualMachine(Interpreter &I)
    : I(I), H(I.heap()), Program(H), VmClosureTag(H, H.intern("vm-closure")),
      ValueStack(H), EnvStack(H), Profiling(H.allocProfiler().enabled()) {
  // Let tree-walked code apply VM closures (e.g. the prelude's `map`
  // mapping a compiled procedure).
  I.setExternalApplyHook(
      VmClosureTag.get(),
      [this](Value Proc, RootVector &Args) {
        return applyClosure(Proc, Args);
      });
}

bool VirtualMachine::isVmClosure(Value V) const {
  return isRecord(V) && objectLength(V) == 3 &&
         objectField(V, 0) == VmClosureTag.get();
}

Value VirtualMachine::signalError(const std::string &Message) {
  if (!ErrorFlag) {
    ErrorFlag = true;
    ErrorMsg = Message;
  }
  return Value::voidV();
}

void VirtualMachine::pushCallFrame(Value VmClosure, size_t ProcBase,
                                   uint32_t ArgCount) {
  uint32_t Unit =
      static_cast<uint32_t>(objectField(VmClosure, 1).asFixnum());
  Frames.push_back({Unit, 0, ProcBase, ArgCount});
  EnvStack.push_back(objectField(VmClosure, 2));
}

Value VirtualMachine::applyClosure(Value VmClosure, RootVector &Args) {
  GENGC_ASSERT(isVmClosure(VmClosure), "applyClosure on non-VM-closure");
  Root Proc(H, VmClosure);
  const size_t EntryFrames = Frames.size();
  const size_t ProcBase = ValueStack.size();
  ValueStack.push_back(Proc.get());
  for (size_t K = 0; K != Args.size(); ++K)
    ValueStack.push_back(Args[K]);
  pushCallFrame(Proc.get(), ProcBase, static_cast<uint32_t>(Args.size()));
  Value Result = execute(EntryFrames);
  if (ErrorFlag) {
    // Unwind everything this activation left behind.
    Frames.resize(EntryFrames);
    EnvStack.truncate(EntryFrames);
    ValueStack.truncate(ProcBase);
    return Value::voidV();
  }
  (void)Result;
  // execute() left the result at the caller's ProcBase slot.
  Value R = ValueStack[ProcBase];
  ValueStack.truncate(ProcBase);
  return R;
}

uint32_t VirtualMachine::unitSite(uint32_t UnitIndex) {
  if (UnitSites.size() <= UnitIndex)
    UnitSites.resize(Program.unitCount(), UINT32_MAX);
  uint32_t &Site = UnitSites[UnitIndex];
  if (Site == UINT32_MAX)
    Site = H.allocProfiler().internSite("vm;" +
                                        Program.unit(UnitIndex).Name);
  return Site;
}

Value VirtualMachine::execute(size_t BaseFrame) {
  Root Result(H, Value::voidV());

  // Every exit path hands the "runtime" site back to the profiler; a
  // nested activation's caller re-installs its own unit on its next
  // dispatch (ProfiledUnit no longer matches).
  struct ProfSiteReset {
    VirtualMachine &VM;
    ~ProfSiteReset() {
      if (VM.Profiling) {
        VM.H.allocProfiler().setCurrentSite(0);
        VM.ProfiledUnit = UINT32_MAX;
      }
    }
  } SiteReset{*this};

  // Shared return path: truncate to the frame's proc slot, publish the
  // result there, and pop the frame.
  auto ReturnValue = [&](Value R) -> bool {
    Root RR(H, R);
    VmFrame &F = Frames.back();
    ValueStack.truncate(F.ProcBase);
    ValueStack.push_back(RR.get());
    EnvStack.pop_back();
    Frames.pop_back();
    if (Frames.size() == BaseFrame) {
      Result = RR.get();
      return true; // Done: result sits at the caller's ProcBase slot.
    }
    return false;
  };

  while (!ErrorFlag) {
    VmFrame &F = Frames.back();
    // Site attribution: allocations the next instructions perform are
    // charged to the executing procedure. Off-profile this whole block
    // is one never-taken branch.
    if (Profiling && F.UnitIndex != ProfiledUnit) {
      H.allocProfiler().setCurrentSite(unitSite(F.UnitIndex));
      ProfiledUnit = F.UnitIndex;
    }
    const CodeUnit &U = Program.unit(F.UnitIndex);
    GENGC_ASSERT(F.PC < U.Code.size(), "bytecode pc overrun");
    const Op O = static_cast<Op>(U.Code[F.PC++]);
    ++Instructions;

    switch (O) {
    case Op::Const:
      ValueStack.push_back(Program.constantOf(U, U.Code[F.PC++]));
      break;
    case Op::PushNil:
      ValueStack.push_back(Value::nil());
      break;
    case Op::PushTrue:
      ValueStack.push_back(Value::trueV());
      break;
    case Op::PushFalse:
      ValueStack.push_back(Value::falseV());
      break;
    case Op::PushVoid:
      ValueStack.push_back(Value::voidV());
      break;

    case Op::LocalRef: {
      uint32_t Depth = U.Code[F.PC++];
      uint32_t Index = U.Code[F.PC++];
      Value Env = currentEnv();
      for (uint32_t D = 0; D != Depth; ++D)
        Env = envParent(Env);
      Value V = objectField(Env, 1 + Index);
      if (V.isUnbound())
        return signalError("variable used before initialization");
      ValueStack.push_back(V);
      break;
    }
    case Op::LocalSet: {
      uint32_t Depth = U.Code[F.PC++];
      uint32_t Index = U.Code[F.PC++];
      Value V = ValueStack.back();
      ValueStack.pop_back();
      Value Env = currentEnv();
      for (uint32_t D = 0; D != Depth; ++D)
        Env = envParent(Env);
      H.vectorSet(Env, 1 + Index, V);
      ValueStack.push_back(Value::voidV());
      break;
    }
    case Op::GlobalRef: {
      Value Sym = Program.constantOf(U, U.Code[F.PC++]);
      Value V = I.lookupGlobalSymbol(Sym);
      if (V.isUnbound())
        return signalError("unbound variable: " + H.symbolName(Sym));
      ValueStack.push_back(V);
      break;
    }
    case Op::GlobalDef: {
      Value Sym = Program.constantOf(U, U.Code[F.PC++]);
      Value V = ValueStack.back();
      ValueStack.pop_back();
      // Name anonymous VM closures for better diagnostics? The record
      // has no name slot; skip.
      I.defineGlobalSymbol(Sym, V);
      ValueStack.push_back(Value::voidV());
      break;
    }
    case Op::GlobalSet: {
      Value Sym = Program.constantOf(U, U.Code[F.PC++]);
      Value V = ValueStack.back();
      ValueStack.pop_back();
      if (!I.setGlobalSymbol(Sym, V))
        return signalError("set!: unbound variable: " +
                           H.symbolName(Sym));
      ValueStack.push_back(Value::voidV());
      break;
    }

    case Op::MakeClosure: {
      uint32_t Unit = U.Code[F.PC++];
      Root Env(H, currentEnv());
      Root Closure(H, H.makeRecord(VmClosureTag, 3, Value::nil()));
      H.recordSet(Closure, 1, Value::fixnum(Unit));
      H.recordSet(Closure, 2, Env);
      ValueStack.push_back(Closure.get());
      break;
    }

    case Op::Call:
    case Op::TailCall: {
      uint32_t Argc = U.Code[F.PC++];
      size_t ProcBase = ValueStack.size() - Argc - 1;
      Value Proc = ValueStack[ProcBase];
      if (isVmClosure(Proc)) {
        if (O == Op::TailCall) {
          // Slide callee + args over the current activation and reuse
          // its frame: constant stack space for self-recursion.
          Value Env = objectField(Proc, 2);
          uint32_t Unit =
              static_cast<uint32_t>(objectField(Proc, 1).asFixnum());
          for (uint32_t K = 0; K != Argc + 1; ++K)
            ValueStack[F.ProcBase + K] = ValueStack[ProcBase + K];
          ValueStack.truncate(F.ProcBase + Argc + 1);
          F.UnitIndex = Unit;
          F.PC = 0;
          F.ArgCount = Argc;
          setCurrentEnv(Env);
        } else {
          pushCallFrame(Proc, ProcBase, Argc);
        }
        break;
      }
      // Foreign callee: primitive, guardian, or interpreter closure.
      {
        RootVector Args(H);
        for (uint32_t K = 0; K != Argc; ++K)
          Args.push_back(ValueStack[ProcBase + 1 + K]);
        ValueStack.truncate(ProcBase);
        Value R = I.applyProcedure(Proc, Args);
        if (I.hadError()) {
          signalError(I.errorMessage());
          I.clearError();
          return Value::voidV();
        }
        if (O == Op::TailCall) {
          if (ReturnValue(R))
            return Result;
        } else {
          ValueStack.push_back(R);
        }
      }
      break;
    }

    case Op::Return: {
      Value R = ValueStack.back();
      ValueStack.pop_back();
      if (ReturnValue(R))
        return Result;
      break;
    }

    case Op::Jump:
      F.PC = U.Code[F.PC];
      break;
    case Op::JumpIfFalse: {
      uint32_t Target = U.Code[F.PC++];
      Value V = ValueStack.back();
      ValueStack.pop_back();
      if (V.isFalse())
        F.PC = Target;
      break;
    }
    case Op::Pop:
      ValueStack.pop_back();
      break;
    case Op::Dup:
      ValueStack.push_back(ValueStack.back());
      break;

    case Op::ArityJump: {
      uint32_t NFixed = U.Code[F.PC++];
      uint32_t HasRest = U.Code[F.PC++];
      uint32_t Target = U.Code[F.PC++];
      bool Matches = HasRest ? F.ArgCount >= NFixed : F.ArgCount == NFixed;
      if (!Matches)
        F.PC = Target;
      break;
    }
    case Op::Bind: {
      uint32_t NFixed = U.Code[F.PC++];
      uint32_t HasRest = U.Code[F.PC++];
      if (!HasRest && F.ArgCount != NFixed)
        return signalError(U.Name + ": wrong number of arguments");
      if (HasRest && F.ArgCount < NFixed)
        return signalError(U.Name + ": wrong number of arguments");
      const size_t ArgBase = F.ProcBase + 1;
      const size_t Slots = NFixed + (HasRest ? 1 : 0);
      Root NewEnv(H, H.makeVector(1 + Slots, Value::unbound()));
      H.vectorSet(NewEnv, 0, currentEnv());
      for (uint32_t K = 0; K != NFixed; ++K)
        H.vectorSet(NewEnv, 1 + K, ValueStack[ArgBase + K]);
      if (HasRest) {
        Root Rest(H, Value::nil());
        for (uint32_t K = F.ArgCount; K != NFixed; --K)
          Rest = H.cons(ValueStack[ArgBase + K - 1], Rest.get());
        H.vectorSet(NewEnv, 1 + NFixed, Rest);
      }
      setCurrentEnv(NewEnv.get());
      ValueStack.truncate(F.ProcBase);
      break;
    }
    case Op::ArityFail:
      return signalError(U.Name + ": wrong number of arguments");

    case Op::EnterScope: {
      uint32_t N = U.Code[F.PC++];
      Root NewEnv(H, H.makeVector(1 + N, Value::unbound()));
      const size_t Base = ValueStack.size() - N;
      H.vectorSet(NewEnv, 0, currentEnv());
      for (uint32_t K = 0; K != N; ++K)
        H.vectorSet(NewEnv, 1 + K, ValueStack[Base + K]);
      ValueStack.truncate(Base);
      setCurrentEnv(NewEnv.get());
      break;
    }
    case Op::EnterScopeUndef: {
      uint32_t N = U.Code[F.PC++];
      Root NewEnv(H, H.makeVector(1 + N, Value::unbound()));
      H.vectorSet(NewEnv, 0, currentEnv());
      setCurrentEnv(NewEnv.get());
      break;
    }
    case Op::ExitScope:
      setCurrentEnv(envParent(currentEnv()));
      break;
    }
  }
  return Value::voidV();
}

Value VirtualMachine::evalForm(Value Form) {
  Root RForm(H, Form);
  Compiler C(I, Program);
  size_t Unit = C.compileTopLevel(RForm);
  if (C.hadError())
    return signalError("compile error: " + C.error());
  // Wrap the entry unit in a closure over the empty environment. The
  // unit's Bind(0,0) prologue gives it a root frame.
  Root Entry(H, H.makeRecord(VmClosureTag, 3, Value::nil()));
  H.recordSet(Entry, 1, Value::fixnum(static_cast<intptr_t>(Unit)));
  H.recordSet(Entry, 2, Value::nil());
  RootVector NoArgs(H);
  return applyClosure(Entry, NoArgs);
}

Value VirtualMachine::evalString(std::string_view Source) {
  Reader R(H, Source);
  RootVector Forms(H);
  R.readAll(Forms);
  if (R.hadError())
    return signalError("read error: " + R.errorMessage());
  Root Result(H, Value::voidV());
  for (size_t K = 0; K != Forms.size(); ++K) {
    if (ErrorFlag)
      break;
    Result = evalForm(Forms[K]);
  }
  return Result;
}
