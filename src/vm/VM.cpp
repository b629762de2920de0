//===- vm/VM.cpp - Bytecode interpreter ------------------------------------===//
//
// Two execution engines share this file:
//
//  * Legacy — the fetch/decode/charge-per-instruction switch loop in
//    stepOne(), the accounting reference and the slow path of the fast
//    engine.
//
//  * Predecoded — executes the DecodedCache translation of each code
//    object: cycles, fuel, and I-cache fetches are charged once per
//    superblock (ICache::chargeBlock, over line segments whose set and tag
//    the translation precomputed, replays the per-instruction access
//    order exactly), and dispatch runs over pre-resolved handlers —
//    computed-goto when DYC_THREADED_DISPATCH is on, a dense switch
//    otherwise. Both engines produce bit-identical counters; the parity
//    test (tests/InterpParityTest.cpp) enforces this on every workload.
//
// Neither engine states an operation's value: both expand their pure-op
// handlers from the op table (support/OpTable.def) and compute through
// the opsem functions the IR's evaluator uses too, and both run calls,
// returns and the region traps through one helper each.
//
// Handler-safety rules for the predecoded engine:
//  - copy any DecodedInstr fields you need into locals before invoking a
//    hook, OnCall, or push/pop of Frames (nested runs can reallocate
//    Frames, and hooks can invalidate the current translation);
//  - after any hook returns, re-derive everything from Frames.back() via
//    `goto restart_frame` — never touch cached Fr/R/IP pointers;
//  - set Fr.PC before any machineError so the diagnostic carries the
//    faulting pc (the fast path leaves Fr.PC stale on purpose).
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include <cstring>
#include <sys/mman.h>

namespace dyc {
namespace vm {

namespace {

/// Maps \p Words zero words, private and anonymous. MAP_NORESERVE: pages
/// nobody touches need no swap reservation either.
Word *mapWords(size_t Words) {
  void *P = mmap(nullptr, Words * sizeof(Word), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    fatal(formatString("cannot map %zu words of VM memory", Words));
  return static_cast<Word *>(P);
}

/// The value of the op table's comparison \p O on \p A and \p B: the
/// fused compare-and-branch handlers carry the compare's Op.
inline Word compareValue(Op O, Word A, Word B) {
  switch (O) {
#define DYC_CMP(Name, Mnemonic, Shape, OpTy, Cost, Value)                      \
  case Op::Name:                                                               \
    return opsem::Name(A, B);
#define DYC_CMPI(Name, Mnemonic, Shape, RegForm, Cost)                         \
  case Op::Name:                                                               \
    return opsem::RegForm(A, B);
#include "support/OpTable.def"
  default:
    return Word();
  }
}

} // namespace

Memory::Memory(size_t Words) : Base(mapWords(Words)), Size(Words) {}

Memory::~Memory() { munmap(Base, Size * sizeof(Word)); }

void Memory::grow(size_t Words) {
  assert(Words > Size && "grow must enlarge the image");
  Word *NewBase = mapWords(Words);
  std::memcpy(NewBase, Base, Size * sizeof(Word));
  munmap(Base, Size * sizeof(Word));
  Base = NewBase;
  Size = Words;
}

RuntimeHook::~RuntimeHook() = default;

uint32_t RuntimeHook::onGuardedCall(VM &, uint32_t Callee, const Word *,
                                    uint32_t) {
  return Callee;
}

RuntimeHook::Target RuntimeHook::onOsrPoll(VM &, uint64_t,
                                           std::vector<Word> &) {
  return Target();
}

void RuntimeHook::onOsrDrop(VM &, uint64_t) {}

void VM::armOsr(uint64_t Base, uint32_t HeadPC, uint64_t Token) {
  assert(!Frames.empty() && "armOsr with no live frame");
  OsrWatch W;
  W.Base = Base;
  W.HeadPC = HeadPC;
  W.Token = Token;
  W.Depth = Frames.size() - 1;
  OsrWatches.push_back(W);
}

void VM::disarmOsr(uint64_t Token) {
  for (size_t I = 0; I != OsrWatches.size(); ++I)
    if (OsrWatches[I].Token == Token) {
      OsrWatches.erase(OsrWatches.begin() + static_cast<ptrdiff_t>(I));
      return;
    }
}

void VM::dropOsrWatches(size_t MinDepth) {
  for (size_t I = OsrWatches.size(); I-- != 0;)
    if (OsrWatches[I].Depth >= MinDepth) {
      uint64_t Token = OsrWatches[I].Token;
      OsrWatches.erase(OsrWatches.begin() + static_cast<ptrdiff_t>(I));
      if (Hook)
        Hook->onOsrDrop(*this, Token);
    }
}

bool VM::osrPoll() {
  Frame &Fr = Frames.back();
  size_t Depth = Frames.size() - 1;
  for (size_t I = 0; I != OsrWatches.size(); ++I) {
    const OsrWatch &W = OsrWatches[I];
    if (W.Depth != Depth || W.HeadPC != Fr.PC ||
        W.Base != Fr.CurCode->BaseAddr)
      continue;
    if (!Hook)
      return false;
    uint64_t Token = W.Token;
    // The hook must not re-enter the VM (contract on onOsrPoll), so Fr
    // stays valid across the call even though it may mutate Regs.
    RuntimeHook::Target T = Hook->onOsrPoll(*this, Token, Fr.Regs);
    if (!T.CO)
      return false;
    disarmOsr(Token);
    Fr.CurCode = T.CO;
    Fr.PC = T.PC;
    Fr.Interpret = T.Interpret;
    return true;
  }
  return false;
}

uint32_t Program::addFunction(CodeObject CO) {
  CO.BaseAddr = allocCodeAddr(CO.Code.size() * 4 + 64);
  uint32_t Idx = static_cast<uint32_t>(Funcs.size());
  FuncIndex.emplace(CO.Name, Idx);
  Funcs.push_back(std::move(CO));
  return Idx;
}

uint64_t Program::allocCodeAddr(uint64_t Bytes) {
  uint64_t Base = NextCodeAddr;
  // Keep code objects block-aligned so footprints are easy to reason about.
  NextCodeAddr += (Bytes + 63) & ~63ULL;
  return Base;
}

int Program::findFunction(const std::string &Name) const {
  auto It = FuncIndex.find(Name);
  return It == FuncIndex.end() ? -1 : static_cast<int>(It->second);
}

VM::VM(Program &P, const CostModel &CMIn, const ICacheConfig &ICIn)
    : Prog(P), CM(CMIn), IC(ICIn), Mem(1 << 20) {
  FuncStats.resize(P.numFunctions());
}

const FunctionStats &VM::functionStats(uint32_t FuncIdx) const {
  assert(FuncIdx < FuncStats.size() && "function index out of range");
  return FuncStats[FuncIdx];
}

int64_t VM::allocMemory(int64_t Cells) {
  assert(Cells >= 0 && "negative allocation");
  int64_t Base = MemBrk;
  MemBrk += Cells;
  if (static_cast<uint64_t>(MemBrk) > Mem.size()) {
    size_t NewSize = Mem.size();
    while (static_cast<uint64_t>(MemBrk) > NewSize)
      NewSize *= 2;
    Mem.grow(NewSize);
  }
  return Base;
}

void VM::machineError(const std::string &Msg, const Frame &F) {
  fatal(formatString("machine error in '%s' at pc %u: %s",
                     F.CurCode ? F.CurCode->Name.c_str() : "<none>", F.PC,
                     Msg.c_str()));
}

void VM::memOutOfRange(int64_t Addr, const Frame &F) {
  machineError(formatString("memory access out of range: %lld",
                            (long long)Addr),
               F);
}

Word VM::run(uint32_t FuncIdx, const std::vector<Word> &Args) {
  if (FuncStats.size() < Prog.numFunctions()) [[unlikely]]
    FuncStats.resize(Prog.numFunctions());
  HasOnCall = static_cast<bool>(OnCall);
  size_t BaseDepth = Frames.size();
  // Safe point for wholesale translation-cache trimming: with no live
  // frames, nothing references a translation. SpecServer worker VMs churn
  // through many short-lived chains; this bounds their decode footprint.
  if (BaseDepth == 0 && Decoded.size() > 4096)
    Decoded.clear();
  if (Hook && callGuard(FuncIdx)) [[unlikely]] {
    FuncIdx = Hook->onGuardedCall(*this, FuncIdx, Args.data(),
                                  static_cast<uint32_t>(Args.size()));
    // The hook may have added functions (synthesized twins).
    if (FuncStats.size() < Prog.numFunctions()) [[unlikely]]
      FuncStats.resize(Prog.numFunctions());
  }
  Frame F;
  F.FuncCode = F.CurCode = &Prog.function(FuncIdx);
  F.FuncIdx = FuncIdx;
  F.Regs.assign(F.FuncCode->NumRegs, Word());
  assert(Args.size() <= F.Regs.size() && "too many arguments");
  for (size_t I = 0; I != Args.size(); ++I)
    F.Regs[I] = Args[I];
  F.StartCycles = ExecCycles;
  ++FuncStats[FuncIdx].Calls;
  if (HasOnCall)
    OnCall(FuncIdx, F.Regs.data(), static_cast<uint32_t>(Args.size()));
  Frames.push_back(std::move(F));

  if (Engine == EngineKind::Legacy)
    return runLegacy(BaseDepth);
  return runPredecoded(BaseDepth);
}

Word VM::runLegacy(size_t BaseDepth) {
  while (Frames.size() > BaseDepth)
    stepOne(BaseDepth);
  return LastResult;
}

//===----------------------------------------------------------------------===//
// The control operations both engines share. Each acts on the innermost
// frame, whose PC holds the instruction's own pc on entry.
//===----------------------------------------------------------------------===//

[[gnu::always_inline]] inline void VM::call(uint32_t RetReg, uint32_t ArgBase,
                                            uint32_t NArgs, int64_t Imm) {
  Frame &Fr = Frames.back();
  if (Frames.size() > 4096)
    machineError("call stack overflow", Fr);
  uint32_t Callee = static_cast<uint32_t>(Imm);
  if (Callee >= Prog.numFunctions())
    machineError("call to nonexistent function", Fr);
  ++Fr.PC; // the return pc
  // The caller's register *buffer* is stable even if the hook below
  // re-enters the VM and Frames reallocates (the vector object moves, its
  // heap storage does not) — so the argument copy reads through ArgPtr,
  // and Fr is never touched past this point.
  const Word *ArgPtr = Fr.Regs.data() + ArgBase;
  if (Hook && callGuard(Callee)) [[unlikely]] {
    Callee = Hook->onGuardedCall(*this, Callee, ArgPtr, NArgs);
    if (FuncStats.size() < Prog.numFunctions()) [[unlikely]]
      FuncStats.resize(Prog.numFunctions());
  }
  Frame NF;
  NF.FuncCode = NF.CurCode = &Prog.function(Callee);
  NF.FuncIdx = Callee;
  NF.Regs.assign(NF.FuncCode->NumRegs, Word());
  for (uint32_t K = 0; K != NArgs; ++K)
    NF.Regs[K] = ArgPtr[K];
  NF.RetReg = RetReg;
  NF.StartCycles = ExecCycles;
  ++FuncStats[Callee].Calls;
  if (HasOnCall)
    OnCall(Callee, NF.Regs.data(), NArgs);
  Frames.push_back(std::move(NF));
}

[[gnu::always_inline]] inline void VM::callExt(uint32_t RetReg,
                                               uint32_t ArgBase,
                                               uint32_t NArgs, int64_t Imm) {
  std::vector<Word> &R = Frames.back().Regs;
  const ExternalFunction &E = Prog.Externals.get(static_cast<unsigned>(Imm));
  assert(NArgs == E.NumArgs && "external call arity mismatch");
  Word ArgBuf[8];
  assert(NArgs <= 8 && "too many external arguments");
  for (uint32_t K = 0; K != NArgs; ++K)
    ArgBuf[K] = R[ArgBase + K];
  ExecCycles += E.CostCycles;
  Word Res = E.Fn(ArgBuf);
  if (RetReg != NoReg)
    R[RetReg] = Res;
}

[[gnu::always_inline]] inline bool VM::ret(uint32_t ValReg,
                                           size_t BaseDepth) {
  Frame &Fr = Frames.back();
  Word Res = ValReg == NoReg ? Word() : Fr.Regs[ValReg];
  FuncStats[Fr.FuncIdx].InclusiveCycles += ExecCycles - Fr.StartCycles;
  uint32_t RetReg = Fr.RetReg;
  countOut(Fr);
  Frames.pop_back();
  if (!OsrWatches.empty()) [[unlikely]]
    dropOsrWatches(Frames.size());
  if (Frames.size() == BaseDepth) {
    LastResult = Res;
    return true;
  }
  if (RetReg != NoReg)
    Frames.back().Regs[RetReg] = Res;
  return false;
}

[[gnu::always_inline]] inline void VM::regionTrap(int64_t PointId) {
  Frame &Fr = Frames.back();
  if (!Hook)
    machineError("region trap with no run-time attached", Fr);
  countOut(Fr);
  // A re-dispatch supersedes any OSR watch armed for this frame.
  if (!OsrWatches.empty()) [[unlikely]]
    dropOsrWatches(Frames.size() - 1);
  RuntimeHook::Target T = Hook->dispatch(*this, PointId, Frames.back().Regs);
  // The hook may have re-entered the VM (static calls during
  // specialization) and emitted or evicted code; re-derive the frame.
  Frame &Fr2 = Frames.back();
  if (!T.CO)
    machineError("run-time returned no target", Fr2);
  Fr2.CurCode = T.CO;
  Fr2.PC = T.PC;
  Fr2.Interpret = T.Interpret;
}

[[gnu::always_inline]] inline void VM::exitRegion(uint32_t Resume) {
  Frame &Fr = Frames.back();
  countOut(Fr);
  if (!OsrWatches.empty()) [[unlikely]]
    dropOsrWatches(Frames.size() - 1);
  Frame &Fr2 = Frames.back();
  Fr2.CurCode = Fr2.FuncCode;
  Fr2.PC = Resume;
  Fr2.Interpret = false;
}

// The second operand of a pure operation, by its op-table shape: none for
// RR, R[C] for RRR, the immediate's bit pattern for RRI and RRF. \p D is an
// Instr or a DecodedInstr.
#define DYC_OPERAND_B_RR(R, D) Word()
#define DYC_OPERAND_B_RRR(R, D) R[(D).C]
#define DYC_OPERAND_B_RRI(R, D) Word{static_cast<uint64_t>((D).Imm)}
#define DYC_OPERAND_B_RRF(R, D) Word{static_cast<uint64_t>((D).Imm)}

void VM::stepOne(size_t BaseDepth) {
  Frame &Fr = Frames.back();
  const CodeObject &CO = *Fr.CurCode;
  if (Fr.PC >= CO.Code.size())
    machineError("fell off the end of the code object", Fr);
  if (++InstrsExecuted > MaxInstructions)
    machineError("instruction fuel exhausted (runaway loop?)", Fr);

  const Instr I = CO.Code[Fr.PC];
  if (!IC.access(CO.addrOf(Fr.PC)))
    ExecCycles += CM.ICacheMissPenalty;
  ExecCycles += CM.costOf(I, CO.IsDynamicCode);

  std::vector<Word> &R = Fr.Regs;
  uint32_t NextPC = Fr.PC + 1;

  switch (I.Opcode) {
  case Op::ConstI:
    R[I.A] = Word::fromInt(I.Imm);
    break;
  case Op::ConstF:
    R[I.A] = Word{static_cast<uint64_t>(I.Imm)};
    break;
  case Op::Mov:
  case Op::FMov:
    R[I.A] = R[I.B];
    break;

    // The op table's pure operations: A <- Fn(R[B], operand B).
#define DYC_STEP(Name, Shape, Fn, Fault, Msg)                                  \
  case Op::Name: {                                                             \
    Word Y = DYC_OPERAND_B_##Shape(R, I);                                      \
    if (opFaults(OpFault::Fault, Y)) [[unlikely]]                              \
      machineError(Msg, Fr);                                                   \
    R[I.A] = opsem::Fn(R[I.B], Y);                                             \
    break;                                                                     \
  }
#define DYC_PURE(Name, Mnemonic, Shape, OpTy, ResTy, Cost, Fault, Msg, Value)  \
  DYC_STEP(Name, Shape, Name, Fault, Msg)
#define DYC_IMM(Name, Mnemonic, Shape, RegForm, Cost, Fault, Msg)              \
  DYC_STEP(Name, Shape, RegForm, Fault, Msg)
#include "support/OpTable.def"
#undef DYC_STEP

  case Op::Load:
    R[I.A] = mem(wrapAdd(R[I.B].asInt(), I.Imm), Fr);
    break;
  case Op::LoadAbs:
    R[I.A] = mem(I.Imm, Fr);
    break;
  case Op::Store:
    mem(wrapAdd(R[I.B].asInt(), I.Imm), Fr) = R[I.A];
    break;
  case Op::StoreAbs:
    mem(I.Imm, Fr) = R[I.A];
    break;

  case Op::Call:
    call(I.A, I.B, I.C, I.Imm);
    return;
  case Op::CallExt:
    callExt(I.A, I.B, I.C, I.Imm);
    break;

  case Op::Br:
    NextPC = I.B;
    break;
  case Op::CondBr:
    NextPC = R[I.A].asInt() != 0 ? I.B : I.C;
    break;

  case Op::Ret:
    ret(I.A, BaseDepth);
    return;
  case Op::EnterRegion:
  case Op::Dispatch:
    regionTrap(I.Imm);
    return;
  case Op::ExitRegion:
    exitRegion(I.B);
    return;

  case Op::Halt:
    machineError("halt executed", Fr);
  }

  Fr.PC = NextPC;
  // OSR safe point: arrival at a pc via a taken branch. Gating on branch
  // opcodes keeps the legacy engine's poll sites identical to the
  // predecoded engine's block boundaries (every block transition there is
  // reached through Br/CondBr), so OSR decisions are engine-invariant.
  if ((I.Opcode == Op::Br || I.Opcode == Op::CondBr) &&
      !OsrWatches.empty()) [[unlikely]]
    osrPoll();
}

//===----------------------------------------------------------------------===//
// The predecoded superblock engine.
//===----------------------------------------------------------------------===//

#ifndef DYC_THREADED_DISPATCH
#define DYC_THREADED_DISPATCH 0
#endif
#if DYC_THREADED_DISPATCH && (defined(__GNUC__) || defined(__clang__))
#define DYC_USE_CGOTO 1
#else
#define DYC_USE_CGOTO 0
#endif

#if DYC_USE_CGOTO
#define CASE(N) L_##N:
#define DISPATCH() goto *HTable[IP->H]
#else
#define CASE(N) case DOp::N:
#define DISPATCH() goto dispatch_top
#endif

// Record the faulting pc before any machineError / mem() fault path; the
// fast path leaves Fr.PC stale between block boundaries on purpose.
#define SETPC() (Fr.PC = static_cast<uint32_t>(IP - Instrs))

// Advance one (or, for superinstructions, two) decoded slots. Falling off
// the block's end re-enters the block loop at the following pc — either the
// next block's leader or the end-of-code bounds check.
#define NEXT()                                                                 \
  do {                                                                         \
    if (++IP == BlockEnd) {                                                    \
      PC = static_cast<uint32_t>(IP - Instrs);                                 \
      goto block_done;                                                         \
    }                                                                          \
    DISPATCH();                                                                \
  } while (0)
#define NEXT2()                                                                \
  do {                                                                         \
    IP += 2;                                                                   \
    if (IP == BlockEnd) {                                                      \
      PC = static_cast<uint32_t>(IP - Instrs);                                 \
      goto block_done;                                                         \
    }                                                                          \
    DISPATCH();                                                                \
  } while (0)
#define BRANCH(T)                                                              \
  do {                                                                         \
    PC = (T);                                                                  \
    goto block_done;                                                           \
  } while (0)

const char *VM::dispatchMode() {
#if DYC_USE_CGOTO
  return "threaded";
#else
  return "switch";
#endif
}

Word VM::runPredecoded(size_t BaseDepth) {
#if DYC_USE_CGOTO
  static const void *const HTable[] = {
#define DYC_OP(Name, Mnemonic, Shape, Cost) &&L_##Name,
#include "support/OpTable.def"
      &&L_ConstIConstI, &&L_ConstIAdd, &&L_MovBr, &&L_CmpICondBr,
      &&L_CmpCondBr, &&L_ConstIDispatch};
  static_assert(sizeof(HTable) / sizeof(HTable[0]) ==
                    static_cast<size_t>(DOp::NumHandlers),
                "handler table out of sync with DOp");
#endif

restart_frame:
  while (Frames.size() > BaseDepth) {
    Frame &Fr = Frames.back();
    if (Fr.Interpret) [[unlikely]] {
      // Cold tier: single-step this frame through the switch loop without
      // building a translation. stepOne handles traps, calls, and pops
      // itself; callees it pushes run predecoded (Interpret is per-frame).
      stepOne(BaseDepth);
      continue;
    }
    const CodeObject *CO = Fr.CurCode;
    const DecodedCode *DC = Decoded.get(*CO, CM, IC.config());
    const DecodedInstr *Instrs = DC->Instrs.data();
    Word *R = Fr.Regs.data();
    uint32_t PC = Fr.PC;

    for (;;) {
      if (PC >= DC->CodeSize) [[unlikely]] {
        Fr.PC = PC;
        machineError("fell off the end of the code object", Fr);
      }
      int32_t BI = DC->BlockOf[PC];
      if (BI < 0) [[unlikely]] {
        // Mid-block entry (a Dispatch target or ExitRegion resume offset
        // decode didn't predict): promote this pc to a leader, or
        // single-step past it once the promotion budget is gone.
        const DecodedCode *ND = Decoded.promoteLeader(*CO, PC, CM, IC.config());
        if (!ND) {
          Fr.PC = PC;
          stepOne(BaseDepth);
          goto restart_frame;
        }
        DC = ND;
        Instrs = DC->Instrs.data();
        BI = DC->BlockOf[PC];
      }
      {
        const DecodedBlock &B = DC->Blocks[BI];
        if (InstrsExecuted + B.Count > MaxInstructions) [[unlikely]] {
          // Fuel will run out inside this block; single-step so the error
          // fires at the exact instruction and counter values the legacy
          // engine would report.
          Fr.PC = PC;
          stepOne(BaseDepth);
          goto restart_frame;
        }
        InstrsExecuted += B.Count;
        const DecodedLineSeg *Segs = DC->Segs.data();
        uint32_t Missed =
            IC.chargeBlock(Segs + B.SegBegin, Segs + B.SegEnd, B.Count);
        ExecCycles +=
            B.CostSum + static_cast<uint64_t>(Missed) * CM.ICacheMissPenalty;

        const DecodedInstr *IP = Instrs + B.First;
        const DecodedInstr *const BlockEnd = IP + B.Count;

#if DYC_USE_CGOTO
        DISPATCH();
#else
      dispatch_top:
        switch (static_cast<DOp>(IP->H)) {
#endif

        CASE(ConstI) {
          R[IP->A] = Word::fromInt(IP->Imm);
          NEXT();
        }
        CASE(ConstF) {
          R[IP->A] = Word{static_cast<uint64_t>(IP->Imm)};
          NEXT();
        }
        CASE(Mov)
        CASE(FMov) {
          R[IP->A] = R[IP->B];
          NEXT();
        }

        // The op table's pure operations: A <- Fn(R[B], operand B).
#define DYC_RUN(Name, Shape, Fn, Fault, Msg)                                   \
  CASE(Name) {                                                                 \
    Word Y = DYC_OPERAND_B_##Shape(R, *IP);                                    \
    if (opFaults(OpFault::Fault, Y)) [[unlikely]] {                            \
      SETPC();                                                                 \
      machineError(Msg, Fr);                                                   \
    }                                                                          \
    R[IP->A] = opsem::Fn(R[IP->B], Y);                                         \
    NEXT();                                                                    \
  }
#define DYC_PURE(Name, Mnemonic, Shape, OpTy, ResTy, Cost, Fault, Msg, Value)  \
  DYC_RUN(Name, Shape, Name, Fault, Msg)
#define DYC_IMM(Name, Mnemonic, Shape, RegForm, Cost, Fault, Msg)              \
  DYC_RUN(Name, Shape, RegForm, Fault, Msg)
#include "support/OpTable.def"
#undef DYC_RUN

        CASE(Load) {
          SETPC();
          R[IP->A] = mem(wrapAdd(R[IP->B].asInt(), IP->Imm), Fr);
          NEXT();
        }
        CASE(LoadAbs) {
          SETPC();
          R[IP->A] = mem(IP->Imm, Fr);
          NEXT();
        }
        CASE(Store) {
          SETPC();
          mem(wrapAdd(R[IP->B].asInt(), IP->Imm), Fr) = R[IP->A];
          NEXT();
        }
        CASE(StoreAbs) {
          SETPC();
          mem(IP->Imm, Fr) = R[IP->A];
          NEXT();
        }

        CASE(Call) {
          SETPC();
          call(IP->A, IP->B, IP->C, IP->Imm);
          goto restart_frame;
        }
        CASE(CallExt) {
          callExt(IP->A, IP->B, IP->C, IP->Imm);
          NEXT();
        }

        CASE(Br) { BRANCH(IP->B); }
        CASE(CondBr) { BRANCH(R[IP->A].asInt() != 0 ? IP->B : IP->C); }

        CASE(Ret) {
          SETPC();
          if (ret(IP->A, BaseDepth))
            return LastResult;
          goto restart_frame;
        }
        CASE(EnterRegion)
        CASE(Dispatch) {
          SETPC();
          regionTrap(IP->Imm);
          goto restart_frame;
        }
        CASE(ExitRegion) {
          SETPC();
          exitRegion(IP->B);
          goto restart_frame;
        }

        CASE(Halt) {
          SETPC();
          machineError("halt executed", Fr);
        }

        // --- Superinstructions: counters were charged at block level, so
        // --- these only fuse the execute phase of two adjacent slots.

        CASE(ConstIConstI) {
          // ConstI and ConstF both materialize Imm's bit pattern.
          R[IP->A] = Word{static_cast<uint64_t>(IP->Imm)};
          R[IP[1].A] = Word{static_cast<uint64_t>(IP[1].Imm)};
          NEXT2();
        }
        CASE(ConstIAdd) {
          R[IP->A] = Word{static_cast<uint64_t>(IP->Imm)};
          R[IP[1].A] =
              Word::fromInt(wrapAdd(R[IP[1].B].asInt(), R[IP[1].C].asInt()));
          NEXT2();
        }
        CASE(MovBr) {
          R[IP->A] = R[IP->B];
          BRANCH(IP[1].B);
        }
        CASE(CmpICondBr) {
          Word V = compareValue(static_cast<Op>(IP->X), R[IP->B],
                                DYC_OPERAND_B_RRI(R, *IP));
          R[IP->A] = V;
          BRANCH(V.asInt() != 0 ? IP[1].B : IP[1].C);
        }
        CASE(CmpCondBr) {
          Word V = compareValue(static_cast<Op>(IP->X), R[IP->B],
                                DYC_OPERAND_B_RRR(R, *IP));
          R[IP->A] = V;
          BRANCH(V.asInt() != 0 ? IP[1].B : IP[1].C);
        }
        CASE(ConstIDispatch) {
          // The promoted key's last constant materialization falling into
          // the region trap, whose operands are in IP[1]; the key register
          // is written into the frame storage the hook reads.
          R[IP->A] = Word{static_cast<uint64_t>(IP->Imm)};
          Fr.PC = static_cast<uint32_t>(IP + 1 - Instrs);
          regionTrap(IP[1].Imm);
          goto restart_frame;
        }

#if !DYC_USE_CGOTO
        default:
          SETPC();
          machineError("corrupt predecoded translation", Fr);
        } // switch
#endif
      }

    block_done:
      // OSR safe point: every block transition (the legacy engine's
      // equivalent poll fires after Br/CondBr). A transfer rewrites the
      // frame's position, so re-derive everything from scratch.
      if (!OsrWatches.empty()) [[unlikely]] {
        Fr.PC = PC;
        if (osrPoll())
          goto restart_frame;
      }
      continue;
    }
  }
  return LastResult;
}

#undef CASE
#undef DISPATCH
#undef SETPC
#undef NEXT
#undef NEXT2
#undef BRANCH
#undef DYC_OPERAND_B_RR
#undef DYC_OPERAND_B_RRR
#undef DYC_OPERAND_B_RRI
#undef DYC_OPERAND_B_RRF

} // namespace vm
} // namespace dyc
