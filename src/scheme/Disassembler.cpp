//===- scheme/Disassembler.cpp - Bytecode pretty-printer ------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//

#include "scheme/Bytecode.h"
#include "scheme/Printer.h"

using namespace gengc;

namespace {

struct OpInfo {
  const char *Name;
  bool FirstOperandIsConstant;
};

OpInfo infoFor(Op O) {
  switch (O) {
  case Op::Const:
    return {"const", true};
  case Op::PushNil:
    return {"push-nil", false};
  case Op::PushTrue:
    return {"push-true", false};
  case Op::PushFalse:
    return {"push-false", false};
  case Op::PushVoid:
    return {"push-void", false};
  case Op::LocalRef:
    return {"local-ref", false};
  case Op::LocalSet:
    return {"local-set", false};
  case Op::GlobalRef:
    return {"global-ref", true};
  case Op::GlobalDef:
    return {"global-def", true};
  case Op::GlobalSet:
    return {"global-set", true};
  case Op::MakeClosure:
    return {"make-closure", false};
  case Op::Call:
    return {"call", false};
  case Op::TailCall:
    return {"tail-call", false};
  case Op::Return:
    return {"return", false};
  case Op::Jump:
    return {"jump", false};
  case Op::JumpIfFalse:
    return {"jump-if-false", false};
  case Op::Pop:
    return {"pop", false};
  case Op::Dup:
    return {"dup", false};
  case Op::ArityJump:
    return {"arity-jump", false};
  case Op::Bind:
    return {"bind", false};
  case Op::ArityFail:
    return {"arity-fail", false};
  case Op::EnterScope:
    return {"enter-scope", false};
  case Op::EnterScopeUndef:
    return {"enter-scope-undef", false};
  case Op::ExitScope:
    return {"exit-scope", false};
  }
  return {"??", false};
}

} // namespace

std::string gengc::disassemble(const CompiledProgram &Program,
                               const CodeUnit &Unit) {
  std::string Out = ";; unit '" + Unit.Name + "'\n";
  size_t PC = 0;
  while (PC < Unit.Code.size()) {
    Op O = static_cast<Op>(Unit.Code[PC]);
    OpInfo Info = infoFor(O);
    const unsigned Operands = opOperandCount(O);
    Out += std::to_string(PC) + ": " + Info.Name;
    ++PC;
    for (unsigned K = 0; K != Operands; ++K) {
      Out += " " + std::to_string(Unit.Code[PC]);
      if (K == 0 && Info.FirstOperandIsConstant) {
        Heap &H = const_cast<CompiledProgram &>(Program).heap();
        Out += " {" +
               writeToString(H, Program.constantOf(Unit, Unit.Code[PC])) +
               "}";
      }
      ++PC;
    }
    Out += "\n";
  }
  return Out;
}
