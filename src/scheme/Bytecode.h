//===- scheme/Bytecode.h - Bytecode representation ------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bytecode for the stack VM, a second execution engine over the same
/// collected heap (Chez Scheme itself is a compiler; a bytecode VM is
/// the reproduction-scale analog, and differential testing against the
/// tree-walking interpreter cross-checks both engines' semantics and
/// the collector underneath them).
///
/// Variables are resolved to lexical (depth, index) pairs at compile
/// time; runtime environments are heap vectors [parent, v0, v1, ...],
/// so every VM value the collector can move lives in rooted or traced
/// storage. Each instruction is an opcode word followed by its operand
/// words in a flat uint32_t stream.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_SCHEME_BYTECODE_H
#define GENGC_SCHEME_BYTECODE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gc/Roots.h"

namespace gengc {

enum class Op : uint32_t {
  /// Push constants[k]. Operands: k.
  Const,
  /// Push an immediate without a constant-table slot.
  PushNil,
  PushTrue,
  PushFalse,
  PushVoid,
  /// Push the local at (depth, index) counting frames outward from the
  /// current environment. Operands: depth, index.
  LocalRef,
  /// Pop and store into the local at (depth, index); pushes void.
  /// Operands: depth, index.
  LocalSet,
  /// Push the global bound to the symbol constants[k]; error if
  /// unbound. Operands: k.
  GlobalRef,
  /// Pop and define the global constants[k]; pushes void. Operands: k.
  GlobalDef,
  /// Pop and set! the global constants[k]; error if unbound; pushes
  /// void. Operands: k.
  GlobalSet,
  /// Push a VM closure over code unit u capturing the current
  /// environment. Operands: u.
  MakeClosure,
  /// Call with argc arguments: stack holds [... proc a0 .. a(n-1)].
  /// Operands: argc.
  Call,
  /// Tail call: like Call but replaces the current frame. Operands:
  /// argc.
  TailCall,
  /// Return the top of stack to the caller.
  Return,
  /// Unconditional jump. Operands: target pc.
  Jump,
  /// Pop; jump if the value was #f. Operands: target pc.
  JumpIfFalse,
  /// Drop the top of stack.
  Pop,
  /// Duplicate the top of stack (value-preserving short-circuits in
  /// or/cond).
  Dup,
  /// Arity guard for one case-lambda clause: if the frame's argument
  /// count matches (== nFixed, or >= nFixed when hasRest), fall
  /// through; otherwise jump. Operands: nFixed, hasRest, elseTarget.
  ArityJump,
  /// Bind the frame's arguments into a fresh environment frame
  /// [parent, a0.., rest?]. Operands: nFixed, hasRest.
  Bind,
  /// No clause matched the argument count: signal an arity error.
  ArityFail,
  /// Pop n values into a fresh environment frame [parent, v0..v(n-1)]
  /// (the values were pushed left to right). Used by let. Operands: n.
  EnterScope,
  /// Push a fresh environment frame of n unbound slots (filled by
  /// LocalSet). Used by letrec/let* and named let. Operands: n.
  EnterScopeUndef,
  /// Discard the current environment frame (back to its parent).
  ExitScope,
};

/// Operand words following each opcode word.
constexpr unsigned opOperandCount(Op O) {
  switch (O) {
  case Op::Const:
  case Op::GlobalRef:
  case Op::MakeClosure:
  case Op::Call:
  case Op::TailCall:
  case Op::Jump:
  case Op::JumpIfFalse:
  case Op::EnterScope:
  case Op::EnterScopeUndef:
  case Op::GlobalDef:
  case Op::GlobalSet:
    return 1;
  case Op::LocalRef:
  case Op::LocalSet:
  case Op::Bind:
    return 2;
  case Op::ArityJump:
    return 3;
  case Op::PushNil:
  case Op::PushTrue:
  case Op::PushFalse:
  case Op::PushVoid:
  case Op::Return:
  case Op::Pop:
  case Op::Dup:
  case Op::ArityFail:
  case Op::ExitScope:
    return 0;
  }
  return 0;
}

/// One compiled lambda clause or top-level form.
struct CodeUnit {
  std::vector<uint32_t> Code;
  /// Index of this unit's constants vector within
  /// CompiledProgram::ConstantPools. SIZE_MAX until the compiler
  /// freezes the pool.
  size_t ConstantsIndex = SIZE_MAX;
  /// Diagnostic name (procedure name or "top-level").
  std::string Name;
};

/// A compiled program: code units plus their rooted constant vectors.
/// The constants are heap vectors held in a RootVector, so the
/// collector traces (and updates) every constant a unit references.
class CompiledProgram {
public:
  explicit CompiledProgram(Heap &H) : ConstantPools(H) {}

  Heap &heap() { return ConstantPools.heap(); }

  size_t addUnit(CodeUnit Unit) {
    Units.push_back(std::move(Unit));
    return Units.size() - 1;
  }
  /// Points unit \p UnitIndex at constant pool \p PoolIndex. The
  /// compiler freezes pools only after the source walk (its walk is
  /// allocation-free), so units are added before their pools exist.
  void setUnitConstants(size_t UnitIndex, size_t PoolIndex) {
    GENGC_ASSERT(UnitIndex < Units.size(), "bad code unit index");
    Units[UnitIndex].ConstantsIndex = PoolIndex;
  }
  const CodeUnit &unit(size_t I) const {
    GENGC_ASSERT(I < Units.size(), "bad code unit index");
    return Units[I];
  }
  size_t unitCount() const { return Units.size(); }

  /// Registers a frozen constants vector; returns its pool index.
  size_t addConstantPool(Value HeapVector) {
    ConstantPools.push_back(HeapVector);
    return ConstantPools.size() - 1;
  }
  Value constantPool(size_t I) const { return ConstantPools[I]; }

  /// Constant k of unit \p U.
  Value constantOf(const CodeUnit &U, uint32_t K) const {
    GENGC_ASSERT(U.ConstantsIndex != SIZE_MAX,
                 "code unit used before its constants were frozen");
    return objectField(ConstantPools[U.ConstantsIndex], K);
  }

private:
  RootVector ConstantPools;
  std::vector<CodeUnit> Units;
};

/// Renders a unit's code as readable text (for tests and debugging).
std::string disassemble(const CompiledProgram &Program,
                        const CodeUnit &Unit);

} // namespace gengc

#endif // GENGC_SCHEME_BYTECODE_H
