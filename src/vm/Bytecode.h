//===- vm/Bytecode.h - The target instruction set -------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode executed by the abstract machine. Both statically compiled
/// code (lowered from the IR) and dynamically generated code (emitted by the
/// run-time specializer) use this single format, executing in the same
/// register frame — this mirrors DyC's seamless treatment of registers
/// across dynamic-region boundaries (paper section 2.1).
///
/// The ISA is deliberately Alpha-flavored: a load/store RISC over 64-bit
/// registers, with separate integer and floating-point operations and
/// reg-immediate forms ("fit integer static operands into instruction
/// immediate fields", section 2.2.7). Each instruction occupies 4 bytes of
/// simulated instruction space for the I-cache model.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_VM_BYTECODE_H
#define DYC_VM_BYTECODE_H

#include "support/OpTable.h"
#include "support/Support.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dyc {
namespace vm {

/// Bytecode operations, one per row of the op table (support/OpTable.def),
/// in its order; the table gives each one's operands and meaning. Register
/// operands name slots in the current frame; branch targets are absolute
/// instruction indices within the current code object.
enum class Op : uint8_t {
#define DYC_OP(Name, Mnemonic, Shape, Cost) Name,
#include "support/OpTable.def"
};

/// Number of distinct opcodes.
constexpr unsigned NumOps = static_cast<unsigned>(Op::Halt) + 1;

/// Sentinel register meaning "no register" (e.g. void returns).
constexpr uint32_t NoReg = 0xffffffffu;

/// One bytecode instruction.
struct Instr {
  Op Opcode = Op::Halt;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t C = 0;
  int64_t Imm = 0;

  Instr() = default;
  Instr(Op O, uint32_t A, uint32_t B = 0, uint32_t C = 0, int64_t Imm = 0)
      : Opcode(O), A(A), B(B), C(C), Imm(Imm) {}
};

/// Whether every register operand of \p I names a slot of a frame of
/// \p NumRegs registers: A, B and C wherever the opcode reads or writes
/// them as registers, the whole Call/CallExt argument window R[B..B+C), and
/// NoReg only where the opcode takes it (the result of a void Call or
/// CallExt, the value of a void Ret). Frames index their registers
/// unchecked, so code from outside the process (a warm-start file) must
/// pass this before it runs.
bool registersInFrame(const Instr &I, uint32_t NumRegs);

/// A compiled unit of bytecode. Static code objects hold a lowered function;
/// each specialization run emits into a code object of its own, the code of
/// one run-time code chain (runtime/RegionExec.h).
struct CodeObject {
  std::vector<Instr> Code;
  uint32_t NumRegs = 0;
  /// Simulated base address for the I-cache model. Each instruction is 4
  /// bytes of instruction space.
  uint64_t BaseAddr = 0;
  /// True for run-time-generated code buffers (unscheduled code pays the
  /// cost model's surcharge).
  bool IsDynamicCode = false;
  /// The owning chain's count of frames executing in this code, or null
  /// for static code. The run-time counts a frame in when it hands out the
  /// code; the VM counts it out whenever the frame durably leaves: at Ret,
  /// at ExitRegion, and just before a Dispatch trap taken from here. A call
  /// made from here does not count out, since the frame resumes here.
  std::atomic<uint32_t> *Executors = nullptr;
  /// Bumped on every rewrite of already-emitted instructions (branch
  /// patching, hole filling). The VM's predecoded translation cache
  /// validates against (BaseAddr, Code.size(), Version), so a rewrite
  /// forces lazy re-decode instead of executing a stale translation.
  uint32_t Version = 0;
  std::string Name;

  uint64_t addrOf(size_t PC) const { return BaseAddr + PC * 4; }
};

/// Returns the mnemonic for \p O.
const char *opName(Op O);

/// True for Br/CondBr/Ret/EnterRegion/Dispatch/ExitRegion/Halt.
bool isTerminatorLike(Op O);

/// Renders \p I for debugging dumps.
std::string toString(const Instr &I);

/// Disassembles a whole code object (one instruction per line, with
/// indices), used by examples to show residual code a la Figures 3 and 4.
std::string disassemble(const CodeObject &CO);

} // namespace vm
} // namespace dyc

#endif // DYC_VM_BYTECODE_H
