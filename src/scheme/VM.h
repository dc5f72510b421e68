//===- scheme/VM.h - Bytecode virtual machine -----------------*- C++ -*-===//
//
// Part of the gengc project: a reproduction of "Guardians in a
// Generation-Based Garbage Collector" (Dybvig, Bruggeman, Eby, PLDI 1993).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stack VM executing the Compiler's bytecode over the collected
/// heap. It shares the Interpreter's globals, primitives, and guardian
/// procedures, so VM code and tree-walked code interoperate (a VM
/// closure can be passed to the interpreter's `map` and vice versa).
///
/// GC safety: the value stack and per-frame environments live in
/// RootVectors, constants in traced heap vectors; any instruction may
/// therefore allocate (and trigger automatic collection) without
/// stranding a pointer.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_SCHEME_VM_H
#define GENGC_SCHEME_VM_H

#include <string>
#include <string_view>

#include "scheme/Bytecode.h"
#include "scheme/Interpreter.h"

namespace gengc {

class VirtualMachine {
public:
  /// The VM shares \p I's heap, globals, and primitives. Installing the
  /// VM also registers its apply hook with the interpreter so VM
  /// closures are callable from tree-walked code.
  explicit VirtualMachine(Interpreter &I);

  /// Reads, compiles, and runs every form in \p Source; returns the
  /// last result (void on error; check hadError()).
  Value evalString(std::string_view Source);

  /// Compiles and runs a single form.
  Value evalForm(Value Form);

  /// Applies a VM closure to rooted arguments (also reached through the
  /// interpreter's apply hook).
  Value applyClosure(Value VmClosure, RootVector &Args);

  bool hadError() const { return ErrorFlag; }
  const std::string &errorMessage() const { return ErrorMsg; }
  void clearError() {
    ErrorFlag = false;
    ErrorMsg.clear();
  }

  /// True if \p V is a VM closure record.
  bool isVmClosure(Value V) const;

  Interpreter &interpreter() { return I; }
  CompiledProgram &program() { return Program; }

  /// Instruction-count statistics (test/bench introspection).
  uint64_t instructionsExecuted() const { return Instructions; }

private:
  struct VmFrame {
    uint32_t UnitIndex;
    uint32_t PC;
    /// Value-stack index of the callee value; arguments follow it, and
    /// the return value replaces it.
    size_t ProcBase;
    uint32_t ArgCount;
  };

  Value signalError(const std::string &Message);
  /// Runs frames from \p BaseFrame until it returns; its return value
  /// is left as the result.
  Value execute(size_t BaseFrame);
  /// Allocation-profiler site id for a code unit ("vm;<name>"),
  /// interned once per unit and cached. Profiling-enabled heaps only.
  uint32_t unitSite(uint32_t UnitIndex);
  /// Sets up a frame for \p VmClosure whose arguments are already on
  /// the value stack starting at \p ProcBase + 1.
  void pushCallFrame(Value VmClosure, size_t ProcBase, uint32_t ArgCount);

  Value envParent(Value Env) { return objectField(Env, 0); }
  Value currentEnv() const { return EnvStack[EnvStack.size() - 1]; }
  void setCurrentEnv(Value Env) { EnvStack[EnvStack.size() - 1] = Env; }

  Interpreter &I;
  Heap &H;
  CompiledProgram Program;
  Root VmClosureTag;

  RootVector ValueStack;
  RootVector EnvStack; ///< One environment slot per frame.
  std::vector<VmFrame> Frames;

  /// AllocProfiler::enabled(), cached at construction (it is fixed for
  /// the heap's lifetime): the disabled cost of site attribution is
  /// one predictable branch per dispatched instruction.
  bool Profiling;
  /// The unit whose site is currently installed in the profiler;
  /// UINT32_MAX when the VM is not executing (site = "runtime").
  uint32_t ProfiledUnit = UINT32_MAX;
  /// Per-unit interned site ids, filled lazily (UINT32_MAX = not yet).
  std::vector<uint32_t> UnitSites;

  std::string ErrorMsg;
  bool ErrorFlag = false;
  uint64_t Instructions = 0;
};

} // namespace gengc

#endif // GENGC_SCHEME_VM_H
