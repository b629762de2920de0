//===- runtime/UnrollDriver.cpp - Memoized polyvariant walk ------------------------===//

#include "runtime/UnrollDriver.h"

namespace dyc {
namespace runtime {

using cogen::GenBlock;
using cogen::Operand;
using cogen::SetupOp;
using ir::Opcode;
namespace v = vm;

uint32_t UnrollDriver::run(uint32_t Ctx0, std::vector<Word> Vals0) {
  charge(CM.SpecInvoke);
  ++R.Stats.SpecializationRuns;
  uint32_t Entry = bufSize();

  ir::BlockId MaxBlock = 0;
  for (size_t Ctx = 0; Ctx != GX.Blocks.size(); ++Ctx) {
    ir::BlockId B = GX.Region.context(Ctx).Block;
    if (B != ir::NoBlock)
      MaxBlock = std::max(MaxBlock, B);
  }
  OsrState.assign(static_cast<size_t>(MaxBlock) + 1, -1);
  // Host-side: skip the first few doubling reallocations of the chain
  // buffer. Capacity only; emitted bytes are identical.
  Buf.Code.reserve(std::min<size_t>(MaxRegionInstrs, 256));

  Item Cur{Ctx0, std::move(Vals0)};
  bool Fresh0 = false;
  Cur.MemoVal = memoFindOrQueue(keyRef(Cur.Ctx, Cur.Vals), Fresh0);
  bool HaveCur = true;
  while (HaveCur || !Queue.empty()) {
    if (!HaveCur) {
      Cur = std::move(Queue.front());
      Queue.pop_front();
    }
    HaveCur = false;
    // Place this item, then follow fall-through chains (the paper's
    // linear chain of unrolled loop bodies).
    while (true) {
      std::optional<Item> Next = place(Cur);
      if (!Next)
        break;
      if (!Next->MemoVal) {
        bool Fresh = false;
        Next->MemoVal = memoFindOrQueue(keyRef(Next->Ctx, Next->Vals), Fresh);
      }
      Cur = std::move(*Next);
    }
  }

  // Materialize the OSR entry map: blocks placed exactly once this run.
  for (size_t B = 0; B != OsrState.size(); ++B)
    if (OsrState[B] >= 0)
      OsrEntries.emplace(static_cast<ir::BlockId>(B),
                         static_cast<uint32_t>(OsrState[B]));

  // Resolve pending branch patches: the plan path dereferences the stable
  // memo slot recorded at patch time; the reference walk re-probes its map.
  for (const Patch &P : Patches) {
    const int64_t *PC = Flags.ReferenceWalk ? memoFind(P.Key) : P.Val;
    if (!PC || *PC < 0)
      fatal("specializer left an unresolved branch target");
    v::Instr &I = E.at(P.PC);
    if (P.FieldC)
      I.C = static_cast<uint32_t>(*PC);
    else
      I.B = static_cast<uint32_t>(*PC);
    charge(CM.SpecPatch);
  }

  M.flushICache(); // coherence after code generation
  return Entry;
}

const std::vector<uint64_t> &
UnrollDriver::keyRef(uint32_t Ctx, const std::vector<Word> &Vals) {
  KeyScratch.clear();
  KeyScratch.push_back(Ctx);
  // Fold the FNV-1a hash into the composition pass: the memo operations
  // that follow reuse it instead of re-walking the key.
  uint64_t H = 0xcbf29ce484222325ull;
  H ^= Ctx;
  H *= 1099511628211ull;
  for (uint32_t Reg : Plan.Blocks[Ctx].KeyRegs) {
    uint64_t W = Vals[Reg].Bits;
    KeyScratch.push_back(W);
    H ^= W;
    H *= 1099511628211ull;
  }
  KeyHashScratch = H;
  return KeyScratch;
}

void UnrollDriver::execSetup(const SetupOp &Op, std::vector<Word> &Vals) {
  switch (Op.K) {
  case SetupOp::EvalConst:
    Vals[Op.Dst] = Word{static_cast<uint64_t>(Op.Imm)};
    charge(CM.SpecEvalOp);
    return;
  case SetupOp::Eval: {
    Word BV = Op.B.R == ir::NoReg ? Word() : Vals[Op.B.R];
    Vals[Op.Dst] = StaticEval::op(Op.Op, Vals[Op.A.R], BV);
    charge(CM.SpecEvalOp);
    return;
  }
  case SetupOp::EvalLoad:
    Vals[Op.Dst] = StaticEval::load(M.memory(), Vals[Op.A.R], Op.Imm);
    charge(CM.SpecStaticLoad);
    ++R.Stats.StaticLoadsExecuted;
    return;
  case SetupOp::EvalCall: {
    std::vector<Word> Args;
    std::vector<uint64_t> MemoKey;
    MemoKey.push_back(static_cast<uint64_t>(Op.Callee) * 2 +
                      (Op.IsExt ? 1 : 0));
    for (const Operand &O : Op.Args) {
      Args.push_back(Vals[O.R]);
      MemoKey.push_back(Vals[O.R].Bits);
    }
    ++R.Stats.StaticCallsExecuted;
    auto It = R.CallMemo.find(MemoKey);
    if (It != R.CallMemo.end()) {
      ++R.Stats.StaticCallMemoHits;
      charge(CM.SpecEvalOp);
      Vals[Op.Dst] = It->second;
      return;
    }
    Word Res;
    if (Op.IsExt) {
      const vm::ExternalFunction &Ext =
          M.program().Externals.get(static_cast<unsigned>(Op.Callee));
      charge(CM.SpecStaticCallBase + Ext.CostCycles);
      Res = Ext.Fn(Args.data());
    } else {
      charge(CM.SpecStaticCallBase);
      uint64_t Mark = M.execCycles();
      Res = M.run(static_cast<uint32_t>(Op.Callee), Args);
      M.reattributeExecToDynComp(Mark);
    }
    R.CallMemo.emplace(std::move(MemoKey), Res);
    Vals[Op.Dst] = Res;
    return;
  }
  case SetupOp::EmitInstr:
    D.emitDynamic(Op, Vals);
    return;
  }
}

void UnrollDriver::materializeForEdge(const bta::Edge &Ed,
                                      const std::vector<Word> &Vals) {
  for (ir::Reg Rg : Ed.Materialize)
    D.emitConst(Rg, Vals[Rg], GX.RegTypes[Rg]);
}

std::optional<UnrollDriver::Item>
UnrollDriver::continueEdge(const bta::Edge &Ed, Item &Cur) {
  if (Ed.K != bta::Edge::None)
    materializeForEdge(Ed, Cur.Vals);
  switch (Ed.K) {
  case bta::Edge::None:
    return std::nullopt;
  case bta::Edge::Exit:
    E.emit({v::Op::ExitRegion, 0, GX.BlockPC[Ed.Block]});
    return std::nullopt;
  case bta::Edge::Promo: {
    uint32_t Site = makeSite(Ed.PromoIdx, Cur.Vals);
    E.emit({v::Op::Dispatch, 0, 0, 0,
               -(static_cast<int64_t>(Site) + 1)});
    return std::nullopt;
  }
  case bta::Edge::Ctx: {
    Item Next{Ed.Target, std::move(Cur.Vals)};
    const std::vector<uint64_t> &K = keyRef(Next.Ctx, Next.Vals);
    bool Fresh = false;
    int64_t *PC = memoFindOrQueue(K, Fresh);
    if (Fresh) {
      Next.MemoVal = PC;
      return Next; // fall through, no branch emitted
    }
    if (*PC >= 0) {
      E.emit({v::Op::Br, 0, static_cast<uint32_t>(*PC)});
    } else {
      addPatch(bufSize(), false, K, PC);
      E.emit({v::Op::Br, 0, 0});
      // Re-queue ownership of Vals: the queued item already has its own
      // copy (enqueued when first seen).
    }
    return std::nullopt;
  }
  }
  return std::nullopt;
}

uint32_t UnrollDriver::makeSite(uint32_t PromoIdx,
                                const std::vector<Word> &Vals) {
  const bta::PromoPoint &P = GX.Region.Promos[PromoIdx];
  DispatchSite S;
  S.RegionOrd = Ordinal;
  S.PromoId = PromoIdx;
  for (ir::Reg Rg : P.BakedRegs)
    S.BakedVals.push_back(Vals[Rg]);
  bool Created = false;
  uint32_t Idx = Core.internSite(std::move(S), &Created);
  if (Created)
    ++R.Stats.DispatchSitesCreated;
  return Idx;
}

UnrollDriver::EdgeLabel UnrollDriver::labelFor(const bta::Edge &Ed,
                                               const std::vector<Word> &Vals,
                                               size_t BranchPC, bool FieldC) {
  EdgeLabel L;
  if (!Ed.Materialize.empty()) {
    // The edge demotes statics: route through a trampoline that
    // materializes them, then transfers.
    L.Known = true;
    L.PC = bufSize();
    materializeForEdge(Ed, Vals);
    switch (Ed.K) {
    case bta::Edge::Exit:
      E.emit({v::Op::ExitRegion, 0, GX.BlockPC[Ed.Block]});
      return L;
    case bta::Edge::Promo: {
      uint32_t Site = makeSite(Ed.PromoIdx, Vals);
      E.emit({v::Op::Dispatch, 0, 0, 0,
                 -(static_cast<int64_t>(Site) + 1)});
      return L;
    }
    case bta::Edge::Ctx: {
      const std::vector<uint64_t> &K = keyRef(Ed.Target, Vals);
      bool Fresh = false;
      int64_t *PC = memoFindOrQueue(K, Fresh);
      if (!Fresh && *PC >= 0) {
        E.emit({v::Op::Br, 0, static_cast<uint32_t>(*PC)});
        return L;
      }
      if (Fresh) {
        Item Other{Ed.Target, Vals};
        Other.MemoVal = PC;
        Queue.push_back(std::move(Other));
      }
      addPatch(bufSize(), false, K, PC);
      E.emit({v::Op::Br, 0, 0});
      return L;
    }
    case bta::Edge::None:
      fatal("missing edge on a conditional branch");
    }
  }
  switch (Ed.K) {
  case bta::Edge::None:
    fatal("missing edge on a conditional branch");
  case bta::Edge::Exit: {
    auto It = ExitStubs.find(Ed.Block);
    if (It == ExitStubs.end()) {
      uint32_t PC = bufSize();
      E.emit({v::Op::ExitRegion, 0, GX.BlockPC[Ed.Block]});
      It = ExitStubs.emplace(Ed.Block, PC).first;
    }
    L.Known = true;
    L.PC = It->second;
    return L;
  }
  case bta::Edge::Promo: {
    uint32_t Site = makeSite(Ed.PromoIdx, Vals);
    auto It = DispatchStubs.find(Site);
    if (It == DispatchStubs.end()) {
      uint32_t PC = bufSize();
      E.emit({v::Op::Dispatch, 0, 0, 0,
                 -(static_cast<int64_t>(Site) + 1)});
      It = DispatchStubs.emplace(Site, PC).first;
    }
    L.Known = true;
    L.PC = It->second;
    return L;
  }
  case bta::Edge::Ctx: {
    const std::vector<uint64_t> &K = keyRef(Ed.Target, Vals);
    int64_t *PC = memoFind(K);
    if (!PC) {
      L.FreshCtx = true;
      return L;
    }
    if (*PC >= 0) {
      L.Known = true;
      L.PC = static_cast<uint32_t>(*PC);
      return L;
    }
    addPatch(BranchPC, FieldC, K, PC);
    L.Known = false;
    return L;
  }
  }
  return L;
}

std::optional<UnrollDriver::Item> UnrollDriver::place(Item &Cur) {
  // The plan path's placement pc goes straight through the item's stable
  // memo handle — no key recomposition, no probe. The reference walk
  // re-probes its ordered map.
  if (Flags.ReferenceWalk)
    memoAssign(keyRef(Cur.Ctx, Cur.Vals), static_cast<int64_t>(bufSize()));
  else
    *Cur.MemoVal = static_cast<int64_t>(bufSize());
  // OSR entry bookkeeping: an IR block placed exactly once this run has a
  // unique residual pc a generic frame can transfer to at a back-edge
  // (its static state is fully determined by the dispatch key). A second
  // placement (loop unrolling) disqualifies the block for this chain.
  if (ir::BlockId B = GX.Region.context(Cur.Ctx).Block; B != ir::NoBlock) {
    int64_t &S = OsrState[B];
    S = S == -1 ? static_cast<int64_t>(bufSize()) : -2;
  }
  ++R.Stats.WorkItems;
  charge(CM.SpecPerWorkItem);
  uint32_t &Count = R.CtxPlacements[Cur.Ctx];
  ++Count;
  R.Stats.MaxBlockInstances =
      std::max<uint64_t>(R.Stats.MaxBlockInstances, Count);

  D.reset();

  const GenBlock &GB = GX.Blocks[Cur.Ctx];
  if (Flags.ReferenceWalk) {
    // Test hook: walk the block's set-up ops in the concrete domain — the
    // reference the plan path must match byte for byte.
    for (const SetupOp &Op : GB.Ops)
      execSetup(Op, Cur.Vals);
  } else {
    // The block's linear emit program, built on the context's first
    // placement up to its first guard, each guard arm built when a
    // placement first takes it. Generic steps run per op in the concrete
    // domain. A Generic static call may re-enter the specializer and build
    // other blocks of this plan, or arms of this block; Blocks never
    // resizes, so BP stays valid.
    cogen::BlockPlan &BP = Plan.Blocks[Cur.Ctx];
    if (!BP.built())
      R.Stats.PlanBytes += cogen::buildBlockPlan(GX, Flags, Cur.Ctx, BP);
    PR.runBlock(
        BP, Cur.Vals,
        [&](uint32_t OpIdx) { execSetup(GB.Ops[OpIdx], Cur.Vals); },
        [&](uint32_t Branch, bool Taken) {
          R.Stats.PlanBytes +=
              cogen::buildBranchArm(GX, Flags, Cur.Ctx, BP, Branch, Taken);
        });
  }

  // Terminator.
  const cogen::GenTerm &T = GB.Term;
  switch (T.K) {
  case cogen::GenTerm::Ret: {
    if (T.RetVal.R == ir::NoReg) {
      D.dropAllPending();
      E.emit({v::Op::Ret, v::NoReg});
      return std::nullopt;
    }
    RVal V = D.resolveOperand(T.RetVal, Cur.Vals);
    D.forceOperand(V); // the return value is consumed
    D.dropAllPending();
    if (V.IsConst) {
      ir::Type Ty = GX.RegTypes[T.RetVal.R];
      D.emitConst(GX.Scratch0, V.C, Ty);
      E.emit({v::Op::Ret, GX.Scratch0});
    } else {
      E.emit({v::Op::Ret, V.R});
    }
    return std::nullopt;
  }
  case cogen::GenTerm::Br:
    D.dropAllPending();
    return continueEdge(T.TrueE, Cur);
  case cogen::GenTerm::CondBr: {
    RVal C = D.resolveOperand(T.Cond, Cur.Vals);
    if (!C.IsConst)
      D.forceOperand(C); // the emitted branch consumes the condition
    D.dropAllPending();
    if (C.IsConst) {
      // Static (or propagated-constant) branch: folded away.
      ++R.Stats.BranchesFolded;
      charge(CM.SpecEvalOp);
      return continueEdge(C.C.asInt() != 0 ? T.TrueE : T.FalseE, Cur);
    }
    ++R.Stats.DynamicBranchesEmitted;
    charge(CM.SpecEmitBranch);
    size_t BranchPC = bufSize();
    E.emit({v::Op::CondBr, C.R, 0, 0});
    EdgeLabel TL = labelFor(T.TrueE, Cur.Vals, BranchPC, false);
    EdgeLabel FL = labelFor(T.FalseE, Cur.Vals, BranchPC, true);

    std::optional<Item> Fall;
    if (TL.Known)
      E.at(BranchPC).B = TL.PC;
    if (FL.Known)
      E.at(BranchPC).C = FL.PC;

    if (TL.FreshCtx) {
      // Fall through into the true side.
      E.at(BranchPC).B = bufSize();
      Fall = Item{T.TrueE.Target, Cur.Vals};
      if (FL.FreshCtx) {
        Item Other{T.FalseE.Target, Cur.Vals};
        const std::vector<uint64_t> &OK = keyRef(Other.Ctx, Other.Vals);
        bool Fresh = false;
        int64_t *V = memoFindOrQueue(OK, Fresh);
        Other.MemoVal = V;
        addPatch(BranchPC, true, OK, V);
        Queue.push_back(std::move(Other));
      }
    } else if (FL.FreshCtx) {
      E.at(BranchPC).C = bufSize();
      Fall = Item{T.FalseE.Target, std::move(Cur.Vals)};
    }
    return Fall;
  }
  }
  return std::nullopt;
}

} // namespace runtime
} // namespace dyc
