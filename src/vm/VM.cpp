//===- vm/VM.cpp - Bytecode interpreter ------------------------------------===//
//
// Two execution engines share this file:
//
//  * Legacy — the original fetch/decode/charge-per-instruction switch loop,
//    kept verbatim as stepOne() both as the reference semantics and as the
//    slow path of the fast engine.
//
//  * Predecoded — executes the DecodedCache translation of each code
//    object: cycles, fuel, and I-cache probes are charged once per
//    superblock (ICache::accessRun replays the per-instruction access
//    order exactly), and dispatch runs over pre-resolved handlers —
//    computed-goto when DYC_THREADED_DISPATCH is on, a dense switch
//    otherwise. Both engines produce bit-identical counters; the parity
//    test (tests/InterpParityTest.cpp) enforces this on every workload.
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

void RuntimeHook::onDynamicCodeExit(VM &, const CodeObject *) {}

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

  case Op::Add: R[I.A] = Word::fromInt(wrapAdd(R[I.B].asInt(), R[I.C].asInt())); break;
  case Op::Sub: R[I.A] = Word::fromInt(wrapSub(R[I.B].asInt(), R[I.C].asInt())); break;
  case Op::Mul: R[I.A] = Word::fromInt(wrapMul(R[I.B].asInt(), R[I.C].asInt())); break;
  case Op::Div:
    if (R[I.C].asInt() == 0)
      machineError("integer divide by zero", Fr);
    R[I.A] = Word::fromInt(wrapDiv(R[I.B].asInt(), R[I.C].asInt()));
    break;
  case Op::Rem:
    if (R[I.C].asInt() == 0)
      machineError("integer remainder by zero", Fr);
    R[I.A] = Word::fromInt(wrapRem(R[I.B].asInt(), R[I.C].asInt()));
    break;
  case Op::And: R[I.A] = Word::fromInt(R[I.B].asInt() & R[I.C].asInt()); break;
  case Op::Or:  R[I.A] = Word::fromInt(R[I.B].asInt() | R[I.C].asInt()); break;
  case Op::Xor: R[I.A] = Word::fromInt(R[I.B].asInt() ^ R[I.C].asInt()); break;
  case Op::Shl:
    R[I.A] = Word::fromInt(R[I.B].asInt() << (R[I.C].asInt() & 63));
    break;
  case Op::Shr:
    R[I.A] = Word::fromInt(R[I.B].asInt() >> (R[I.C].asInt() & 63));
    break;
  case Op::Neg: R[I.A] = Word::fromInt(wrapNeg(R[I.B].asInt())); break;

  case Op::AddI: R[I.A] = Word::fromInt(wrapAdd(R[I.B].asInt(), I.Imm)); break;
  case Op::SubI: R[I.A] = Word::fromInt(wrapSub(R[I.B].asInt(), I.Imm)); break;
  case Op::MulI: R[I.A] = Word::fromInt(wrapMul(R[I.B].asInt(), I.Imm)); break;
  case Op::DivI:
    if (I.Imm == 0)
      machineError("integer divide by zero immediate", Fr);
    R[I.A] = Word::fromInt(wrapDiv(R[I.B].asInt(), I.Imm));
    break;
  case Op::RemI:
    if (I.Imm == 0)
      machineError("integer remainder by zero immediate", Fr);
    R[I.A] = Word::fromInt(wrapRem(R[I.B].asInt(), I.Imm));
    break;
  case Op::AndI: R[I.A] = Word::fromInt(R[I.B].asInt() & I.Imm); break;
  case Op::OrI:  R[I.A] = Word::fromInt(R[I.B].asInt() | I.Imm); break;
  case Op::XorI: R[I.A] = Word::fromInt(R[I.B].asInt() ^ I.Imm); break;
  case Op::ShlI: R[I.A] = Word::fromInt(R[I.B].asInt() << (I.Imm & 63)); break;
  case Op::ShrI: R[I.A] = Word::fromInt(R[I.B].asInt() >> (I.Imm & 63)); break;

  case Op::FAdd: R[I.A] = Word::fromFloat(R[I.B].asFloat() + R[I.C].asFloat()); break;
  case Op::FSub: R[I.A] = Word::fromFloat(R[I.B].asFloat() - R[I.C].asFloat()); break;
  case Op::FMul: R[I.A] = Word::fromFloat(R[I.B].asFloat() * R[I.C].asFloat()); break;
  case Op::FDiv: R[I.A] = Word::fromFloat(R[I.B].asFloat() / R[I.C].asFloat()); break;
  case Op::FNeg: R[I.A] = Word::fromFloat(-R[I.B].asFloat()); break;

  case Op::FAddI:
    R[I.A] = Word::fromFloat(R[I.B].asFloat() +
                             Word{(uint64_t)I.Imm}.asFloat());
    break;
  case Op::FSubI:
    R[I.A] = Word::fromFloat(R[I.B].asFloat() -
                             Word{(uint64_t)I.Imm}.asFloat());
    break;
  case Op::FMulI:
    R[I.A] = Word::fromFloat(R[I.B].asFloat() *
                             Word{(uint64_t)I.Imm}.asFloat());
    break;
  case Op::FDivI:
    R[I.A] = Word::fromFloat(R[I.B].asFloat() /
                             Word{(uint64_t)I.Imm}.asFloat());
    break;

  case Op::CmpEq: R[I.A] = Word::fromInt(R[I.B].asInt() == R[I.C].asInt()); break;
  case Op::CmpNe: R[I.A] = Word::fromInt(R[I.B].asInt() != R[I.C].asInt()); break;
  case Op::CmpLt: R[I.A] = Word::fromInt(R[I.B].asInt() <  R[I.C].asInt()); break;
  case Op::CmpLe: R[I.A] = Word::fromInt(R[I.B].asInt() <= R[I.C].asInt()); break;
  case Op::CmpGt: R[I.A] = Word::fromInt(R[I.B].asInt() >  R[I.C].asInt()); break;
  case Op::CmpGe: R[I.A] = Word::fromInt(R[I.B].asInt() >= R[I.C].asInt()); break;

  case Op::CmpEqI: R[I.A] = Word::fromInt(R[I.B].asInt() == I.Imm); break;
  case Op::CmpNeI: R[I.A] = Word::fromInt(R[I.B].asInt() != I.Imm); break;
  case Op::CmpLtI: R[I.A] = Word::fromInt(R[I.B].asInt() <  I.Imm); break;
  case Op::CmpLeI: R[I.A] = Word::fromInt(R[I.B].asInt() <= I.Imm); break;
  case Op::CmpGtI: R[I.A] = Word::fromInt(R[I.B].asInt() >  I.Imm); break;
  case Op::CmpGeI: R[I.A] = Word::fromInt(R[I.B].asInt() >= I.Imm); break;

  case Op::FCmpEq: R[I.A] = Word::fromInt(R[I.B].asFloat() == R[I.C].asFloat()); break;
  case Op::FCmpNe: R[I.A] = Word::fromInt(R[I.B].asFloat() != R[I.C].asFloat()); break;
  case Op::FCmpLt: R[I.A] = Word::fromInt(R[I.B].asFloat() <  R[I.C].asFloat()); break;
  case Op::FCmpLe: R[I.A] = Word::fromInt(R[I.B].asFloat() <= R[I.C].asFloat()); break;
  case Op::FCmpGt: R[I.A] = Word::fromInt(R[I.B].asFloat() >  R[I.C].asFloat()); break;
  case Op::FCmpGe: R[I.A] = Word::fromInt(R[I.B].asFloat() >= R[I.C].asFloat()); break;

  case Op::IToF:
    R[I.A] = Word::fromFloat(static_cast<double>(R[I.B].asInt()));
    break;
  case Op::FToI:
    R[I.A] = Word::fromInt(wrapFToI(R[I.B].asFloat()));
    break;

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

  case Op::Call: {
    if (Frames.size() > 4096)
      machineError("call stack overflow", Fr);
    uint32_t Callee = static_cast<uint32_t>(I.Imm);
    if (Callee >= Prog.numFunctions())
      machineError("call to nonexistent function", Fr);
    Fr.PC = NextPC;
    // The caller's register *buffer* is stable even if the hook below
    // re-enters the VM and Frames reallocates (the vector object moves,
    // its heap storage does not) — so the argument copy reads through
    // ArgPtr, and Fr/R are never touched past this point.
    const Word *ArgPtr = R.data() + I.B;
    if (Hook && callGuard(Callee)) [[unlikely]] {
      Callee = Hook->onGuardedCall(*this, Callee, ArgPtr, I.C);
      if (FuncStats.size() < Prog.numFunctions()) [[unlikely]]
        FuncStats.resize(Prog.numFunctions());
    }
    Frame NF;
    NF.FuncCode = NF.CurCode = &Prog.function(Callee);
    NF.FuncIdx = Callee;
    NF.Regs.assign(NF.FuncCode->NumRegs, Word());
    for (uint32_t K = 0; K != I.C; ++K)
      NF.Regs[K] = ArgPtr[K];
    NF.RetReg = I.A;
    NF.StartCycles = ExecCycles;
    ++FuncStats[Callee].Calls;
    if (HasOnCall)
      OnCall(Callee, NF.Regs.data(), I.C);
    Frames.push_back(std::move(NF));
    return;
  }

  case Op::CallExt: {
    const ExternalFunction &E =
        Prog.Externals.get(static_cast<unsigned>(I.Imm));
    assert(I.C == E.NumArgs && "external call arity mismatch");
    Word ArgBuf[8];
    assert(I.C <= 8 && "too many external arguments");
    for (uint32_t K = 0; K != I.C; ++K)
      ArgBuf[K] = R[I.B + K];
    ExecCycles += E.CostCycles;
    Word Res = E.Fn(ArgBuf);
    if (I.A != NoReg)
      R[I.A] = Res;
    break;
  }

  case Op::Br:
    NextPC = I.B;
    break;
  case Op::CondBr:
    NextPC = R[I.A].asInt() != 0 ? I.B : I.C;
    break;

  case Op::Ret: {
    Word Res = I.A == NoReg ? Word() : R[I.A];
    FuncStats[Fr.FuncIdx].InclusiveCycles += ExecCycles - Fr.StartCycles;
    uint32_t RetReg = Fr.RetReg;
    if (Hook && Fr.CurCode->IsDynamicCode)
      Hook->onDynamicCodeExit(*this, Fr.CurCode);
    Frames.pop_back();
    if (!OsrWatches.empty()) [[unlikely]]
      dropOsrWatches(Frames.size());
    if (Frames.size() == BaseDepth) {
      LastResult = Res;
      return;
    }
    if (RetReg != NoReg)
      Frames.back().Regs[RetReg] = Res;
    return;
  }

  case Op::EnterRegion:
  case Op::Dispatch: {
    if (!Hook)
      machineError("region trap with no run-time attached", Fr);
    if (Fr.CurCode->IsDynamicCode)
      Hook->onDynamicCodeExit(*this, Fr.CurCode);
    // A re-dispatch supersedes any OSR watch armed for this frame.
    if (!OsrWatches.empty()) [[unlikely]]
      dropOsrWatches(Frames.size() - 1);
    RuntimeHook::Target T = Hook->dispatch(*this, I.Imm, Fr.Regs);
    if (!T.CO)
      machineError("run-time returned no target", Fr);
    // The hook may have re-entered the VM (static calls during
    // specialization); re-establish the frame reference.
    Frame &Fr2 = Frames.back();
    Fr2.CurCode = T.CO;
    Fr2.PC = T.PC;
    Fr2.Interpret = T.Interpret;
    return;
  }

  case Op::ExitRegion: {
    if (Hook && Fr.CurCode->IsDynamicCode)
      Hook->onDynamicCodeExit(*this, Fr.CurCode);
    if (!OsrWatches.empty()) [[unlikely]]
      dropOsrWatches(Frames.size() - 1);
    Fr.CurCode = Fr.FuncCode;
    Fr.PC = I.B;
    Fr.Interpret = false;
    return;
  }

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
      &&L_ConstI,  &&L_ConstF,  &&L_Mov,     &&L_FMov,    &&L_Add,
      &&L_Sub,     &&L_Mul,     &&L_Div,     &&L_Rem,     &&L_And,
      &&L_Or,      &&L_Xor,     &&L_Shl,     &&L_Shr,     &&L_Neg,
      &&L_AddI,    &&L_SubI,    &&L_MulI,    &&L_DivI,    &&L_RemI,
      &&L_AndI,    &&L_OrI,     &&L_XorI,    &&L_ShlI,    &&L_ShrI,
      &&L_FAdd,    &&L_FSub,    &&L_FMul,    &&L_FDiv,    &&L_FNeg,
      &&L_FAddI,   &&L_FSubI,   &&L_FMulI,   &&L_FDivI,   &&L_CmpEq,
      &&L_CmpNe,   &&L_CmpLt,   &&L_CmpLe,   &&L_CmpGt,   &&L_CmpGe,
      &&L_CmpEqI,  &&L_CmpNeI,  &&L_CmpLtI,  &&L_CmpLeI,  &&L_CmpGtI,
      &&L_CmpGeI,  &&L_FCmpEq,  &&L_FCmpNe,  &&L_FCmpLt,  &&L_FCmpLe,
      &&L_FCmpGt,  &&L_FCmpGe,  &&L_IToF,    &&L_FToI,    &&L_Load,
      &&L_LoadAbs, &&L_Store,   &&L_StoreAbs, &&L_Call,   &&L_CallExt,
      &&L_Br,      &&L_CondBr,  &&L_Ret,     &&L_EnterRegion,
      &&L_Dispatch, &&L_ExitRegion, &&L_Halt,
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
        for (uint32_t S = B.SegBegin; S != B.SegEnd; ++S) {
          const DecodedLineSeg &Seg = DC->Segs[S];
          if (!IC.accessRun(Seg.Addr, Seg.Count))
            ExecCycles += CM.ICacheMissPenalty;
        }
        ExecCycles += B.CostSum;

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

        CASE(Add) {
          R[IP->A] = Word::fromInt(wrapAdd(R[IP->B].asInt(), R[IP->C].asInt()));
          NEXT();
        }
        CASE(Sub) {
          R[IP->A] = Word::fromInt(wrapSub(R[IP->B].asInt(), R[IP->C].asInt()));
          NEXT();
        }
        CASE(Mul) {
          R[IP->A] = Word::fromInt(wrapMul(R[IP->B].asInt(), R[IP->C].asInt()));
          NEXT();
        }
        CASE(Div) {
          if (R[IP->C].asInt() == 0) {
            SETPC();
            machineError("integer divide by zero", Fr);
          }
          R[IP->A] = Word::fromInt(wrapDiv(R[IP->B].asInt(), R[IP->C].asInt()));
          NEXT();
        }
        CASE(Rem) {
          if (R[IP->C].asInt() == 0) {
            SETPC();
            machineError("integer remainder by zero", Fr);
          }
          R[IP->A] = Word::fromInt(wrapRem(R[IP->B].asInt(), R[IP->C].asInt()));
          NEXT();
        }
        CASE(And) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() & R[IP->C].asInt());
          NEXT();
        }
        CASE(Or) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() | R[IP->C].asInt());
          NEXT();
        }
        CASE(Xor) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() ^ R[IP->C].asInt());
          NEXT();
        }
        CASE(Shl) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() << (R[IP->C].asInt() & 63));
          NEXT();
        }
        CASE(Shr) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() >> (R[IP->C].asInt() & 63));
          NEXT();
        }
        CASE(Neg) {
          R[IP->A] = Word::fromInt(wrapNeg(R[IP->B].asInt()));
          NEXT();
        }

        CASE(AddI) {
          R[IP->A] = Word::fromInt(wrapAdd(R[IP->B].asInt(), IP->Imm));
          NEXT();
        }
        CASE(SubI) {
          R[IP->A] = Word::fromInt(wrapSub(R[IP->B].asInt(), IP->Imm));
          NEXT();
        }
        CASE(MulI) {
          R[IP->A] = Word::fromInt(wrapMul(R[IP->B].asInt(), IP->Imm));
          NEXT();
        }
        CASE(DivI) {
          if (IP->Imm == 0) {
            SETPC();
            machineError("integer divide by zero immediate", Fr);
          }
          R[IP->A] = Word::fromInt(wrapDiv(R[IP->B].asInt(), IP->Imm));
          NEXT();
        }
        CASE(RemI) {
          if (IP->Imm == 0) {
            SETPC();
            machineError("integer remainder by zero immediate", Fr);
          }
          R[IP->A] = Word::fromInt(wrapRem(R[IP->B].asInt(), IP->Imm));
          NEXT();
        }
        CASE(AndI) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() & IP->Imm);
          NEXT();
        }
        CASE(OrI) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() | IP->Imm);
          NEXT();
        }
        CASE(XorI) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() ^ IP->Imm);
          NEXT();
        }
        CASE(ShlI) {
          // shift amount pre-masked at decode time
          R[IP->A] = Word::fromInt(R[IP->B].asInt() << IP->Imm);
          NEXT();
        }
        CASE(ShrI) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() >> IP->Imm);
          NEXT();
        }

        CASE(FAdd) {
          R[IP->A] = Word::fromFloat(R[IP->B].asFloat() + R[IP->C].asFloat());
          NEXT();
        }
        CASE(FSub) {
          R[IP->A] = Word::fromFloat(R[IP->B].asFloat() - R[IP->C].asFloat());
          NEXT();
        }
        CASE(FMul) {
          R[IP->A] = Word::fromFloat(R[IP->B].asFloat() * R[IP->C].asFloat());
          NEXT();
        }
        CASE(FDiv) {
          R[IP->A] = Word::fromFloat(R[IP->B].asFloat() / R[IP->C].asFloat());
          NEXT();
        }
        CASE(FNeg) {
          R[IP->A] = Word::fromFloat(-R[IP->B].asFloat());
          NEXT();
        }

        CASE(FAddI) {
          R[IP->A] = Word::fromFloat(
              R[IP->B].asFloat() + Word{(uint64_t)IP->Imm}.asFloat());
          NEXT();
        }
        CASE(FSubI) {
          R[IP->A] = Word::fromFloat(
              R[IP->B].asFloat() - Word{(uint64_t)IP->Imm}.asFloat());
          NEXT();
        }
        CASE(FMulI) {
          R[IP->A] = Word::fromFloat(
              R[IP->B].asFloat() * Word{(uint64_t)IP->Imm}.asFloat());
          NEXT();
        }
        CASE(FDivI) {
          R[IP->A] = Word::fromFloat(
              R[IP->B].asFloat() / Word{(uint64_t)IP->Imm}.asFloat());
          NEXT();
        }

        CASE(CmpEq) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() == R[IP->C].asInt());
          NEXT();
        }
        CASE(CmpNe) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() != R[IP->C].asInt());
          NEXT();
        }
        CASE(CmpLt) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() < R[IP->C].asInt());
          NEXT();
        }
        CASE(CmpLe) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() <= R[IP->C].asInt());
          NEXT();
        }
        CASE(CmpGt) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() > R[IP->C].asInt());
          NEXT();
        }
        CASE(CmpGe) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() >= R[IP->C].asInt());
          NEXT();
        }

        CASE(CmpEqI) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() == IP->Imm);
          NEXT();
        }
        CASE(CmpNeI) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() != IP->Imm);
          NEXT();
        }
        CASE(CmpLtI) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() < IP->Imm);
          NEXT();
        }
        CASE(CmpLeI) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() <= IP->Imm);
          NEXT();
        }
        CASE(CmpGtI) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() > IP->Imm);
          NEXT();
        }
        CASE(CmpGeI) {
          R[IP->A] = Word::fromInt(R[IP->B].asInt() >= IP->Imm);
          NEXT();
        }

        CASE(FCmpEq) {
          R[IP->A] = Word::fromInt(R[IP->B].asFloat() == R[IP->C].asFloat());
          NEXT();
        }
        CASE(FCmpNe) {
          R[IP->A] = Word::fromInt(R[IP->B].asFloat() != R[IP->C].asFloat());
          NEXT();
        }
        CASE(FCmpLt) {
          R[IP->A] = Word::fromInt(R[IP->B].asFloat() < R[IP->C].asFloat());
          NEXT();
        }
        CASE(FCmpLe) {
          R[IP->A] = Word::fromInt(R[IP->B].asFloat() <= R[IP->C].asFloat());
          NEXT();
        }
        CASE(FCmpGt) {
          R[IP->A] = Word::fromInt(R[IP->B].asFloat() > R[IP->C].asFloat());
          NEXT();
        }
        CASE(FCmpGe) {
          R[IP->A] = Word::fromInt(R[IP->B].asFloat() >= R[IP->C].asFloat());
          NEXT();
        }

        CASE(IToF) {
          R[IP->A] = Word::fromFloat(static_cast<double>(R[IP->B].asInt()));
          NEXT();
        }
        CASE(FToI) {
          R[IP->A] = Word::fromInt(wrapFToI(R[IP->B].asFloat()));
          NEXT();
        }

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
          if (Frames.size() > 4096)
            machineError("call stack overflow", Fr);
          uint32_t Callee = static_cast<uint32_t>(IP->Imm);
          if (Callee >= Prog.numFunctions())
            machineError("call to nonexistent function", Fr);
          uint32_t ArgBase = IP->B;
          uint32_t NArgs = IP->C;
          uint32_t RetReg = IP->A;
          Fr.PC = static_cast<uint32_t>(IP - Instrs) + 1;
          // R is the frame's stable register buffer; the hook may re-enter
          // the VM and move the Frame object, but not its heap storage.
          const Word *ArgPtr = R + ArgBase;
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
          goto restart_frame;
        }

        CASE(CallExt) {
          const ExternalFunction &E =
              Prog.Externals.get(static_cast<unsigned>(IP->Imm));
          assert(IP->C == E.NumArgs && "external call arity mismatch");
          Word ArgBuf[8];
          assert(IP->C <= 8 && "too many external arguments");
          for (uint32_t K = 0; K != IP->C; ++K)
            ArgBuf[K] = R[IP->B + K];
          ExecCycles += E.CostCycles;
          Word Res = E.Fn(ArgBuf);
          if (IP->A != NoReg)
            R[IP->A] = Res;
          NEXT();
        }

        CASE(Br) { BRANCH(IP->B); }
        CASE(CondBr) { BRANCH(R[IP->A].asInt() != 0 ? IP->B : IP->C); }

        CASE(Ret) {
          SETPC();
          Word Res = IP->A == NoReg ? Word() : R[IP->A];
          FuncStats[Fr.FuncIdx].InclusiveCycles += ExecCycles - Fr.StartCycles;
          uint32_t RetReg = Fr.RetReg;
          if (Hook && CO->IsDynamicCode)
            Hook->onDynamicCodeExit(*this, CO);
          Frames.pop_back();
          if (!OsrWatches.empty()) [[unlikely]]
            dropOsrWatches(Frames.size());
          if (Frames.size() == BaseDepth) {
            LastResult = Res;
            return Res;
          }
          if (RetReg != NoReg)
            Frames.back().Regs[RetReg] = Res;
          goto restart_frame;
        }

        CASE(EnterRegion)
        CASE(Dispatch) {
          SETPC();
          if (!Hook)
            machineError("region trap with no run-time attached", Fr);
          int64_t PointId = IP->Imm;
          if (CO->IsDynamicCode)
            Hook->onDynamicCodeExit(*this, CO);
          if (!OsrWatches.empty()) [[unlikely]]
            dropOsrWatches(Frames.size() - 1);
          RuntimeHook::Target T =
              Hook->dispatch(*this, PointId, Frames.back().Regs);
          if (!T.CO)
            machineError("run-time returned no target", Frames.back());
          // The hook may have re-entered the VM and emitted or evicted
          // code; re-derive the frame and translation from scratch.
          Frame &Fr2 = Frames.back();
          Fr2.CurCode = T.CO;
          Fr2.PC = T.PC;
          Fr2.Interpret = T.Interpret;
          goto restart_frame;
        }

        CASE(ExitRegion) {
          SETPC();
          uint32_t Resume = IP->B;
          if (Hook && CO->IsDynamicCode)
            Hook->onDynamicCodeExit(*this, CO);
          if (!OsrWatches.empty()) [[unlikely]]
            dropOsrWatches(Frames.size() - 1);
          Frame &Fr2 = Frames.back();
          Fr2.CurCode = Fr2.FuncCode;
          Fr2.PC = Resume;
          Fr2.Interpret = false;
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
          int64_t L = R[IP->B].asInt();
          int64_t Rhs = IP->Imm;
          bool V;
          switch (IP->X) {
          case 0: V = L == Rhs; break;
          case 1: V = L != Rhs; break;
          case 2: V = L < Rhs; break;
          case 3: V = L <= Rhs; break;
          case 4: V = L > Rhs; break;
          default: V = IP->X == 5 ? L >= Rhs : false; break;
          }
          R[IP->A] = Word::fromInt(V);
          BRANCH(V ? IP[1].B : IP[1].C);
        }
        CASE(CmpCondBr) {
          int64_t L = R[IP->B].asInt();
          int64_t Rhs = R[IP->C].asInt();
          bool V;
          switch (IP->X) {
          case 0: V = L == Rhs; break;
          case 1: V = L != Rhs; break;
          case 2: V = L < Rhs; break;
          case 3: V = L <= Rhs; break;
          case 4: V = L > Rhs; break;
          default: V = IP->X == 5 ? L >= Rhs : false; break;
          }
          R[IP->A] = Word::fromInt(V);
          BRANCH(V ? IP[1].B : IP[1].C);
        }
        CASE(ConstIDispatch) {
          // The promoted key's last constant materialization falling into
          // the region trap. Same body as Dispatch above (a goto into
          // that block would jump past its declarations), reading the
          // trap slot's operands from IP[1]; the key register is written
          // into the frame storage the hook reads.
          R[IP->A] = Word{static_cast<uint64_t>(IP->Imm)};
          Fr.PC = static_cast<uint32_t>(IP + 1 - Instrs);
          if (!Hook)
            machineError("region trap with no run-time attached", Fr);
          int64_t PointId = IP[1].Imm;
          if (CO->IsDynamicCode)
            Hook->onDynamicCodeExit(*this, CO);
          if (!OsrWatches.empty()) [[unlikely]]
            dropOsrWatches(Frames.size() - 1);
          RuntimeHook::Target T =
              Hook->dispatch(*this, PointId, Frames.back().Regs);
          if (!T.CO)
            machineError("run-time returned no target", Frames.back());
          Frame &Fr2 = Frames.back();
          Fr2.CurCode = T.CO;
          Fr2.PC = T.PC;
          Fr2.Interpret = T.Interpret;
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

} // namespace vm
} // namespace dyc
