//===- vm/Decoded.cpp - Predecoded translation builder ---------------------===//

#include "vm/Decoded.h"

#include <algorithm>

namespace dyc {
namespace vm {

namespace {

// The direct-mapped part of DOp mirrors Op one-to-one.
static_assert(static_cast<uint16_t>(DOp::ConstI) ==
              static_cast<uint16_t>(Op::ConstI));
static_assert(static_cast<uint16_t>(DOp::ShrI) ==
              static_cast<uint16_t>(Op::ShrI));
static_assert(static_cast<uint16_t>(DOp::FCmpGe) ==
              static_cast<uint16_t>(Op::FCmpGe));
static_assert(static_cast<uint16_t>(DOp::Halt) ==
              static_cast<uint16_t>(Op::Halt));

bool endsBlock(Op O) {
  // Call ends a block too: control leaves the code object and resumes at
  // the next PC (a leader) only after the callee returns.
  return isTerminatorLike(O) || O == Op::Call;
}

bool isConstLike(Op O) { return O == Op::ConstI || O == Op::ConstF; }
bool isMovLike(Op O) { return O == Op::Mov || O == Op::FMov; }

/// Compare kind 0..5 = Eq,Ne,Lt,Le,Gt,Ge for the fused compare-and-branch
/// handlers; -1 if \p O is not a reg-imm integer compare.
int cmpImmKind(Op O) {
  switch (O) {
  case Op::CmpEqI: return 0;
  case Op::CmpNeI: return 1;
  case Op::CmpLtI: return 2;
  case Op::CmpLeI: return 3;
  case Op::CmpGtI: return 4;
  case Op::CmpGeI: return 5;
  default: return -1;
  }
}

int cmpRegKind(Op O) {
  switch (O) {
  case Op::CmpEq: return 0;
  case Op::CmpNe: return 1;
  case Op::CmpLt: return 2;
  case Op::CmpLe: return 3;
  case Op::CmpGt: return 4;
  case Op::CmpGe: return 5;
  default: return -1;
  }
}

DecodedInstr decodeOne(const Instr &I, const CostModel &CM, bool InDynCode) {
  DecodedInstr D;
  Op O = I.Opcode;
  // ConstF and FMov have the same register semantics as ConstI and Mov
  // (the cost difference lives in the precomputed Cost field), so they
  // share handlers — which also lets the fusion pass treat float chains
  // and integer chains uniformly.
  if (O == Op::ConstF)
    D.H = static_cast<uint16_t>(DOp::ConstI);
  else if (O == Op::FMov)
    D.H = static_cast<uint16_t>(DOp::Mov);
  else
    D.H = static_cast<uint16_t>(O);
  D.A = I.A;
  D.B = I.B;
  D.C = I.C;
  D.Imm = I.Imm;
  if (O == Op::ShlI || O == Op::ShrI)
    D.Imm = I.Imm & 63; // pre-resolve the shift-amount mask
  D.Cost = CM.costOf(I, InDynCode);
  return D;
}

} // namespace

std::unique_ptr<DecodedCode>
buildDecoded(const CodeObject &CO, const CostModel &CM,
             const ICacheConfig &IC, std::vector<uint32_t> ExtraLeaders,
             std::unique_ptr<DecodedCode> Recycle) {
  const size_t N = CO.Code.size();
  auto DC = Recycle ? std::move(Recycle) : std::make_unique<DecodedCode>();
  DC->Instrs.clear();
  DC->Blocks.clear();
  DC->Segs.clear();
  DC->BlockOf.clear();
  DC->CodeSize = N;
  DC->Version = CO.Version;
  DC->ExtraLeaders = std::move(ExtraLeaders);
  if (N == 0)
    return DC;

  // --- Leaders: entry, promoted entries, branch targets, fall-ins after
  // --- block-ending instructions.
  std::vector<uint8_t> Leader(N, 0);
  Leader[0] = 1;
  for (uint32_t PC : DC->ExtraLeaders)
    if (PC < N)
      Leader[PC] = 1;
  auto Mark = [&](uint64_t PC) {
    if (PC < N)
      Leader[PC] = 1;
  };
  for (size_t I = 0; I != N; ++I) {
    const Instr &In = CO.Code[I];
    switch (In.Opcode) {
    case Op::Br:
      Mark(In.B);
      Mark(I + 1);
      break;
    case Op::CondBr:
      Mark(In.B);
      Mark(In.C);
      Mark(I + 1);
      break;
    case Op::Call:
    case Op::Ret:
    case Op::EnterRegion:
    case Op::Dispatch:
    case Op::ExitRegion: // its B resumes in a *different* code object
    case Op::Halt:
      Mark(I + 1);
      break;
    default:
      break;
    }
  }

  // --- Decoded stream.
  DC->Instrs.resize(N);
  for (size_t I = 0; I != N; ++I)
    DC->Instrs[I] = decodeOne(CO.Code[I], CM, CO.IsDynamicCode);

  // --- Superblocks with cost sums and I-cache line segments.
  const uint32_t LineBytes = IC.BlockBytes ? IC.BlockBytes : 32;
  DC->BlockOf.assign(N, -1);
  size_t I = 0;
  while (I < N) {
    size_t J = I;
    for (;;) {
      bool Ends = endsBlock(CO.Code[J].Opcode);
      ++J;
      if (Ends || J >= N || Leader[J])
        break;
    }
    DecodedBlock B;
    B.First = static_cast<uint32_t>(I);
    B.Count = static_cast<uint32_t>(J - I);
    B.SegBegin = static_cast<uint32_t>(DC->Segs.size());
    uint64_t CurLine = ~0ULL;
    for (size_t K = I; K != J; ++K) {
      B.CostSum += DC->Instrs[K].Cost;
      uint64_t Addr = CO.addrOf(K);
      uint64_t Line = Addr / LineBytes;
      if (Line != CurLine) {
        DC->Segs.push_back({Addr, 1});
        CurLine = Line;
      } else {
        ++DC->Segs.back().Count;
      }
    }
    B.SegEnd = static_cast<uint32_t>(DC->Segs.size());
    DC->BlockOf[I] = static_cast<int32_t>(DC->Blocks.size());
    DC->Blocks.push_back(B);
    I = J;
  }

  // --- Quickening: fuse adjacent pairs within each block.
  for (const DecodedBlock &B : DC->Blocks) {
    uint32_t K = B.First;
    const uint32_t Last = B.First + B.Count - 1;
    while (K < Last) {
      const Instr &X = CO.Code[K];
      const Instr &Y = CO.Code[K + 1];
      DecodedInstr &D = DC->Instrs[K];
      int Kind;
      if (isConstLike(X.Opcode) && isConstLike(Y.Opcode)) {
        D.H = static_cast<uint16_t>(DOp::ConstIConstI);
      } else if (isConstLike(X.Opcode) && Y.Opcode == Op::Add) {
        D.H = static_cast<uint16_t>(DOp::ConstIAdd);
      } else if (isMovLike(X.Opcode) && Y.Opcode == Op::Br) {
        D.H = static_cast<uint16_t>(DOp::MovBr);
      } else if (Y.Opcode == Op::CondBr && Y.A == X.A &&
                 (Kind = cmpImmKind(X.Opcode)) >= 0) {
        D.H = static_cast<uint16_t>(DOp::CmpICondBr);
        D.X = static_cast<uint16_t>(Kind);
      } else if (Y.Opcode == Op::CondBr && Y.A == X.A &&
                 (Kind = cmpRegKind(X.Opcode)) >= 0) {
        D.H = static_cast<uint16_t>(DOp::CmpCondBr);
        D.X = static_cast<uint16_t>(Kind);
      } else if (isConstLike(X.Opcode) && (Y.Opcode == Op::Dispatch ||
                                           Y.Opcode == Op::EnterRegion)) {
        // The specializer materializes the promoted key's constants
        // immediately before the region trap; fuse the last one in.
        D.H = static_cast<uint16_t>(DOp::ConstIDispatch);
      } else {
        ++K;
        continue;
      }
      K += 2; // the fused handler consumes both slots
    }
  }
  return DC;
}

const DecodedCode *DecodedCache::get(const CodeObject &CO, const CostModel &CM,
                                     const ICacheConfig &IC) {
  // The VM calls this on every frame re-entry (each dispatch and return);
  // in steady state it is the same object back-to-back, so a one-entry
  // memo skips the hash find.
  if (LastDC && LastAddr == CO.BaseAddr &&
      LastDC->CodeSize == CO.Code.size() && LastDC->Version == CO.Version)
    return LastDC;
  auto It = Map.find(CO.BaseAddr);
  if (It != Map.end()) {
    const DecodedCode *DC = dcOf(It->second);
    if (DC->CodeSize == CO.Code.size() && DC->Version == CO.Version) {
      LastAddr = CO.BaseAddr;
      LastDC = DC;
      return DC;
    }
    if (It->second.Owned) {
      // Stale (the runtime rewrote the object): re-translate in place,
      // keeping any promoted entry points that are still in range. The
      // leader list is moved to a local first — the old translation is
      // itself the recycle donor.
      std::vector<uint32_t> Extra = std::move(It->second.Owned->ExtraLeaders);
      auto ND = buildDecoded(CO, CM, IC, std::move(Extra),
                             std::move(It->second.Owned));
      ++Builds;
      It->second.Owned = std::move(ND);
      LastAddr = CO.BaseAddr;
      LastDC = It->second.Owned.get();
      return LastDC;
    }
    // Stale shared translation (the runtime rewrote the object): drop this
    // VM's reference and fall through to the miss path, which adopts a
    // current published translation or builds and publishes one.
    if (LastDC == DC)
      LastDC = nullptr;
    Map.erase(It);
  }
  Slot S;
  if (Table && CO.IsDynamicCode) {
    std::shared_ptr<const DecodedCode> Pub = Table->find(CO.BaseAddr);
    if (Pub && Pub->CodeSize == CO.Code.size() && Pub->Version == CO.Version) {
      ++Adopts;
    } else {
      ++Builds;
      Pub = buildDecoded(CO, CM, IC, {}, takeSpare());
      Table->publish(CO.BaseAddr, Pub);
    }
    S.Shared = std::move(Pub);
  } else {
    ++Builds;
    S.Owned = buildDecoded(CO, CM, IC, {}, takeSpare());
  }
  auto Res = Map.emplace(CO.BaseAddr, std::move(S));
  LastAddr = CO.BaseAddr;
  LastDC = dcOf(Res.first->second);
  return LastDC;
}

const DecodedCode *DecodedCache::promoteLeader(const CodeObject &CO,
                                               uint32_t PC,
                                               const CostModel &CM,
                                               const ICacheConfig &IC) {
  std::vector<uint32_t> Extra;
  std::unique_ptr<DecodedCode> Recycle;
  auto It = Map.find(CO.BaseAddr);
  if (It != Map.end()) {
    // Copied, not moved: a shared translation is immutable, and an owned
    // donor is rebuilt below. The promoted leader stays local to this VM.
    Extra = dcOf(It->second)->ExtraLeaders;
    if (Extra.size() >= MaxExtraLeaders)
      return nullptr;
    if (LastDC == dcOf(It->second))
      LastDC = nullptr;
    Recycle = std::move(It->second.Owned); // null for shared slots
    Map.erase(It);
  }
  Extra.push_back(PC);
  Slot S;
  S.Owned = buildDecoded(CO, CM, IC, std::move(Extra), std::move(Recycle));
  ++Builds;
  auto Res = Map.insert_or_assign(CO.BaseAddr, std::move(S));
  LastAddr = CO.BaseAddr;
  LastDC = Res.first->second.Owned.get();
  return LastDC;
}

} // namespace vm
} // namespace dyc
