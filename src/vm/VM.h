//===- vm/VM.h - The abstract machine --------------------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate standing in for the paper's DEC Alpha 21164
/// workstation. The VM interprets bytecode deterministically, charging
/// cycles per the CostModel and simulating an L1 instruction cache.
/// Execution cycles and dynamic-compilation cycles are accounted
/// separately, replacing the paper's getrusage/cycle-counter measurements
/// with exact deterministic counts.
///
/// The DyC run-time attaches through the RuntimeHook interface: the
/// EnterRegion and Dispatch instructions trap into it, and it returns the
/// generated code to continue executing.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_VM_VM_H
#define DYC_VM_VM_H

#include "vm/Bytecode.h"
#include "vm/CostModel.h"
#include "vm/Decoded.h"
#include "vm/ExternalFunctions.h"
#include "vm/ICache.h"

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace dyc {
namespace vm {

/// A complete executable: the static code objects plus the external
/// function table and a simulated-code address allocator (generated code
/// claims address ranges here so the I-cache sees its true footprint).
class Program {
public:
  /// Adds a function; assigns its simulated base address. Returns its index.
  uint32_t addFunction(CodeObject CO);

  /// Reserves \p Bytes of simulated instruction-address space (for
  /// dynamically generated code buffers). Returns the base address.
  uint64_t allocCodeAddr(uint64_t Bytes);

  int findFunction(const std::string &Name) const;

  CodeObject &function(uint32_t Idx) {
    assert(Idx < Funcs.size() && "function index out of range");
    return Funcs[Idx];
  }
  const CodeObject &function(uint32_t Idx) const {
    assert(Idx < Funcs.size() && "function index out of range");
    return Funcs[Idx];
  }
  size_t numFunctions() const { return Funcs.size(); }

  ExternalRegistry Externals;

private:
  /// Deque, not vector: the speculative run-time appends synthesized twin
  /// functions while frames hold CodeObject pointers into the program, so
  /// growth must never relocate existing elements.
  std::deque<CodeObject> Funcs;
  /// Name -> index; first registration of a name wins, matching the old
  /// linear scan's front-to-back resolution order.
  std::unordered_map<std::string, uint32_t> FuncIndex;
  uint64_t NextCodeAddr = 0x10000;
};

class VM;

/// Interface the DyC run-time implements; invoked when the machine executes
/// EnterRegion or Dispatch.
class RuntimeHook {
public:
  virtual ~RuntimeHook();

  /// Where execution continues after a trap.
  struct Target {
    const CodeObject *CO = nullptr;
    uint32_t PC = 0;
    /// Cold-tier request: execute this frame instruction-by-instruction in
    /// the stepOne switch loop instead of through the predecoded engine.
    /// No translation is built for the frame while the flag is set; it
    /// clears when the frame leaves the target code (Ret/ExitRegion) or a
    /// later dispatch returns a Target without it. Host-only — simulated
    /// counters are engine-invariant by the parity contract.
    bool Interpret = false;
  };

  /// Handles an EnterRegion/Dispatch trap. \p PointId is the instruction's
  /// Imm; \p Regs is the live register frame (promoted values are read from
  /// it). Implementations charge dispatch cycles via VM::chargeExec and
  /// compilation cycles via VM::chargeDynComp.
  virtual Target dispatch(VM &M, int64_t PointId, std::vector<Word> &Regs) = 0;

  /// Invoked whenever control durably leaves a dynamically generated code
  /// object \p CO: at ExitRegion, at a Ret executed from generated code,
  /// and immediately before a Dispatch trap taken from generated code.
  /// Nested Calls made *from* generated code do not notify — the frame
  /// resumes in \p CO afterwards. The SpecServer uses this to keep
  /// active-executor reference counts on code chains so the capacity
  /// manager can tell when evicted code has drained. Default: no-op.
  virtual void onDynamicCodeExit(VM &M, const CodeObject *CO);

  /// Invoked for a call to a guarded function (see VM::setCallGuard)
  /// *before* the callee frame is built, with the live argument values.
  /// Returns the function index to actually call — \p Callee to proceed
  /// generically, or a different index to redirect the call (speculative
  /// promotion enters a synthesized twin this way). The implementation may
  /// charge simulated cycles and may add functions to the program, but the
  /// returned index must accept the same \p NArgs arguments. \p Args
  /// points into the caller's register frame buffer, which stays valid
  /// across program growth. Default: returns \p Callee.
  virtual uint32_t onGuardedCall(VM &M, uint32_t Callee, const Word *Args,
                                 uint32_t NArgs);

  /// Invoked at an armed OSR safe point (a back-edge arrival at the watched
  /// block head; see VM::armOsr). Returns a Target with a non-null CO to
  /// transfer the current frame there — the watch is then erased — or a
  /// null CO to keep spinning in the generic code. Implementations must
  /// NOT re-enter the VM and must charge any simulated cost themselves;
  /// an unanswered poll costs nothing. Default: never transfers.
  virtual Target onOsrPoll(VM &M, uint64_t Token, std::vector<Word> &Regs);

  /// Invoked when the VM discards an armed OSR watch without a transfer
  /// (frame returned, left the region, or re-dispatched). Default: no-op.
  virtual void onOsrDrop(VM &M, uint64_t Token);
};

/// Per-function execution statistics (inclusive cycles let the harness
/// compute Table 4's "% of execution in the dynamic region").
struct FunctionStats {
  uint64_t Calls = 0;
  uint64_t InclusiveCycles = 0;
};

/// The bytecode interpreter.
class VM {
public:
  /// Which execution engine run() uses. Both produce bit-identical
  /// ExecCycles/DynCompCycles/InstrsExecuted, function statistics, and
  /// I-cache hit/miss counts; Predecoded is simply faster on the host.
  enum class EngineKind {
    Legacy,    ///< the original fetch/decode/charge-per-instruction switch
    Predecoded ///< superblock-charging engine over the translation cache
  };

  explicit VM(Program &P, const CostModel &CM = CostModel(),
              const ICacheConfig &IC = ICacheConfig());

  /// Calls function \p FuncIdx with \p Args and runs to completion.
  /// Halts the process on machine errors (out-of-range memory, stack
  /// overflow, fuel exhaustion) — these are bugs in compiled code.
  Word run(uint32_t FuncIdx, const std::vector<Word> &Args);

  // --- Memory ---------------------------------------------------------------
  std::vector<Word> &memory() { return Mem; }
  const std::vector<Word> &memory() const { return Mem; }

  /// Bump-allocates \p Cells words of VM memory; returns the base address.
  int64_t allocMemory(int64_t Cells);

  // --- Cycle accounting -------------------------------------------------------
  void chargeExec(uint64_t Cycles) { ExecCycles += Cycles; }
  void chargeDynComp(uint64_t Cycles) { DynCompCycles += Cycles; }
  uint64_t execCycles() const { return ExecCycles; }
  uint64_t dynCompCycles() const { return DynCompCycles; }

  /// Moves all execution cycles accrued since \p Mark into the
  /// dynamic-compilation account. The specializer brackets nested VM runs
  /// (static calls to bytecode functions executed at specialize time) with
  /// execCycles()/reattributeExecToDynComp so their cost lands in DC
  /// overhead, as the paper accounts it.
  void reattributeExecToDynComp(uint64_t Mark) {
    assert(Mark <= ExecCycles && "mark from the future");
    uint64_t Delta = ExecCycles - Mark;
    ExecCycles = Mark;
    DynCompCycles += Delta;
  }
  uint64_t instrsExecuted() const { return InstrsExecuted; }

  const FunctionStats &functionStats(uint32_t FuncIdx) const;

  ICache &icache() { return IC; }
  const CostModel &costModel() const { return CM; }
  Program &program() { return Prog; }

  /// Flushes the I-cache (called by the run-time after emitting code, for
  /// coherence, as the paper lists among dynamic-compilation costs).
  void flushICache() { IC.flush(); }

  /// Drops the predecoded translation of \p CO. The inline run-time calls
  /// this when it unpublishes a chain (capacity eviction, one-slot
  /// displacement) so a later chain reusing nothing but the allocator's
  /// monotonic address space can never observe stale decode state, and so
  /// the cache does not pin freed chains' translations.
  void invalidateDecoded(const CodeObject &CO) { Decoded.invalidate(CO); }

  /// Translation-cache introspection (tests and benchmarks).
  size_t decodedObjects() const { return Decoded.size(); }
  uint64_t decodeBuilds() const { return Decoded.builds(); }
  uint64_t decodeAdopts() const { return Decoded.adopts(); }

  /// Connects this VM to a front end's shared translation table (null
  /// disconnects): the VM publishes the translations it builds of
  /// generated code and adopts those other VMs published; see
  /// SharedTranslations for the contract. Front ends call
  /// runtime::RegionExecutionCore::attachVM rather than this directly.
  void setSharedTranslations(std::shared_ptr<SharedTranslations> T) {
    Shared = std::move(T);
    Decoded.setTable(Shared.get());
  }

  /// Engine selection; Predecoded by default.
  EngineKind Engine = EngineKind::Predecoded;

  /// How the predecoded engine's inner dispatch was compiled: "threaded"
  /// (computed goto) or "switch". Reported by benchmarks so artifacts are
  /// self-describing.
  static const char *dispatchMode();

  RuntimeHook *Hook = nullptr;

  /// Which tenant this machine belongs to (multi-tenant SpecServer
  /// clients; 0 — the default tenant — everywhere else). Purely an
  /// identity tag the dispatch hook reads: the VM itself never consults
  /// it, so single-tenant behavior is unchanged.
  uint32_t Tenant = 0;

  /// Marks \p Func so calls to it consult RuntimeHook::onGuardedCall. The
  /// flag array is sparse and branch-free to test on the call path; calls
  /// to unguarded functions cost nothing extra.
  void setCallGuard(uint32_t Func, bool On) {
    if (CallGuards.size() <= Func)
      CallGuards.resize(Func + 1, 0);
    CallGuards[Func] = On ? 1 : 0;
  }
  bool callGuard(uint32_t Func) const {
    return Func < CallGuards.size() && CallGuards[Func] != 0;
  }

  /// Optional observer invoked at every function entry (both top-level
  /// runs and internal calls) with the argument values. Used by the value
  /// profiler; null by default and free when unset.
  std::function<void(uint32_t Func, const Word *Args, uint32_t N)> OnCall;

  /// Execution fuel: aborts if exceeded (guards against miscompiled loops).
  uint64_t MaxInstructions = 4ULL << 30;

  /// Arms an OSR watch on the *current* (innermost) frame: when that frame
  /// next arrives at \p HeadPC of the code object with base address
  /// \p Base via a branch back edge, RuntimeHook::onOsrPoll fires with
  /// \p Token. Callable only from inside a RuntimeHook::dispatch (the
  /// frame being armed is the one the dispatch returns into). Watches are
  /// host-only bookkeeping: polls charge no simulated cycles.
  void armOsr(uint64_t Base, uint32_t HeadPC, uint64_t Token);

  /// Removes the watch carrying \p Token, if still armed. No drop callback.
  void disarmOsr(uint64_t Token);

private:
  struct Frame {
    const CodeObject *CurCode = nullptr;  ///< may be a generated-code buffer
    const CodeObject *FuncCode = nullptr; ///< the function's static code
    uint32_t FuncIdx = 0;
    uint32_t PC = 0;
    uint32_t RetReg = NoReg; ///< caller register receiving the result
    uint64_t StartCycles = 0;
    /// Cold-tier flag (see RuntimeHook::Target::Interpret): the predecoded
    /// engine single-steps this frame through stepOne without translating.
    bool Interpret = false;
    std::vector<Word> Regs;
  };

  /// An armed OSR watch: fires when frame \p Depth is back at \p HeadPC of
  /// the code object based at \p Base after taking a branch.
  struct OsrWatch {
    uint64_t Base = 0;
    uint32_t HeadPC = 0;
    uint64_t Token = 0;
    size_t Depth = 0;
  };

  /// Executes exactly one instruction with the original per-instruction
  /// fetch/charge sequence. The Legacy engine is a loop around this; the
  /// Predecoded engine falls back to it for the rare cases the block fast
  /// path must not handle (imminent fuel exhaustion, mid-block entry past
  /// the leader-promotion budget).
  void stepOne(size_t BaseDepth);
  Word runLegacy(size_t BaseDepth);
  Word runPredecoded(size_t BaseDepth);

  /// Checks the armed watches against the innermost frame's current
  /// position; on a match asks Hook->onOsrPoll and, if it answers with a
  /// target, transfers the frame. Returns true when a transfer happened
  /// (the caller must re-enter its frame loop). Cold path — callers gate
  /// on !OsrWatches.empty().
  bool osrPoll();

  /// Drops (with RuntimeHook::onOsrDrop notification) every watch armed at
  /// depth >= \p MinDepth. Called when frames pop or leave dynamic code.
  void dropOsrWatches(size_t MinDepth);
  [[noreturn]] void machineError(const std::string &Msg, const Frame &F);
  [[noreturn]] void memOutOfRange(int64_t Addr, const Frame &F);

  /// Bounds-checked access to VM memory. The failure path (message
  /// formatting and abort) lives out of line in memOutOfRange so the hot
  /// Load/Store path is a compare and an index.
  Word &mem(int64_t Addr, const Frame &F) {
    if (Addr < 0 || static_cast<uint64_t>(Addr) >= Mem.size()) [[unlikely]]
      memOutOfRange(Addr, F);
    return Mem[static_cast<size_t>(Addr)];
  }

  Program &Prog;
  CostModel CM;
  ICache IC;
  std::vector<Word> Mem;
  int64_t MemBrk = 16; // low addresses reserved (address 0 acts as "null")
  std::vector<Frame> Frames;
  /// Armed OSR watches; empty in non-tiered runs so both engines' poll
  /// sites reduce to one branch. At most a handful are live at once (one
  /// per frame running fallback code), so a flat vector beats a map.
  std::vector<OsrWatch> OsrWatches;
  std::vector<FunctionStats> FuncStats;
  /// Per-function guarded-call flags (see setCallGuard).
  std::vector<uint8_t> CallGuards;
  DecodedCache Decoded;
  /// Keeps the connected shared translation table alive for as long as
  /// the DecodedCache holds a raw pointer to it.
  std::shared_ptr<SharedTranslations> Shared;
  /// OnCall presence, latched at run() entry so the per-call path tests a
  /// bool instead of a std::function.
  bool HasOnCall = false;
  uint64_t ExecCycles = 0;
  uint64_t DynCompCycles = 0;
  uint64_t InstrsExecuted = 0;
  Word LastResult;
};

} // namespace vm
} // namespace dyc

#endif // DYC_VM_VM_H
