//===- bta/BTAnalysis.cpp - Binding-time analysis --------------------------------===//

#include "bta/BTAnalysis.h"

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "ir/ConstEval.h"

#include <algorithm>

namespace dyc {

const char *OptFlags::toggleName(unsigned Idx) {
  static const char *Names[NumToggles] = {
      "complete-loop-unrolling", "static-loads",        "static-calls",
      "unchecked-dispatching",   "zero-copy-propagation",
      "dead-assignment-elim",    "strength-reduction",
      "internal-promotions",     "polyvariant-division"};
  assert(Idx < NumToggles && "toggle index out of range");
  return Names[Idx];
}

bool &OptFlags::toggle(unsigned Idx) {
  switch (Idx) {
  case 0: return CompleteLoopUnrolling;
  case 1: return StaticLoads;
  case 2: return StaticCalls;
  case 3: return UncheckedDispatching;
  case 4: return ZeroCopyPropagation;
  case 5: return DeadAssignmentElimination;
  case 6: return StrengthReduction;
  case 7: return InternalPromotions;
  case 8: return PolyvariantDivision;
  }
  fatal("toggle index out of range");
}

namespace bta {

using namespace ir;

bool normalizeAnnotations(Function &F) {
  bool Changed = false;
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    // Re-scan the block after each split; appended blocks are visited by
    // the outer loop as numBlocks() grows.
    bool SplitAgain = true;
    while (SplitAgain) {
      SplitAgain = false;
      for (size_t I = 1; I < F.block(B).Instrs.size(); ++I) {
        if (F.block(B).Instrs[I].Op != Opcode::MakeStatic)
          continue;
        BlockId NB = F.newBlock(F.block(B).Name + ".promo");
        BasicBlock &Old = F.block(B);
        BasicBlock &New = F.block(NB);
        New.Instrs.assign(std::make_move_iterator(Old.Instrs.begin() + I),
                          std::make_move_iterator(Old.Instrs.end()));
        Old.Instrs.resize(I);
        Instruction Br;
        Br.Op = Opcode::Br;
        Br.TrueSucc = NB;
        Old.Instrs.push_back(std::move(Br));
        Changed = true;
        SplitAgain = true;
        break;
      }
    }
  }
  return Changed;
}

bool isStaticInstr(const Instruction &I, const BitVector &Set,
                   const Module &M, const OptFlags &Flags) {
  switch (I.Op) {
  case Opcode::MakeStatic:
  case Opcode::MakeDynamic:
    return true; // annotations are consumed by the analysis, never emitted
  case Opcode::ConstI:
  case Opcode::ConstF:
    return true;
  case Opcode::Load:
    return I.StaticLoad && Flags.StaticLoads && Set.test(I.Src1);
  case Opcode::Call:
  case Opcode::CallExt: {
    if (!I.StaticCall || !Flags.StaticCalls ||
        !(I.Op == Opcode::Call ? M.function(I.Callee).Pure
                               : M.external(I.Callee).Pure))
      return false;
    for (Reg A : I.Args)
      if (!Set.test(A))
        return false;
    return true;
  }
  default: {
    if (!isEvaluableOp(I.Op))
      return false;
    bool AllStatic = true;
    I.forEachUse([&](Reg U) { AllStatic = AllStatic && Set.test(U); });
    return AllStatic;
  }
  }
}

namespace {

class Analyzer {
public:
  Analyzer(const Function &F, const Module &M, const OptFlags &Flags)
      : F(F), M(M), Flags(Flags), G(F), DT(F, G), LI(F, G, DT), LV(F, G),
        CtxsOfBlock(F.numBlocks()), AnnotatedRegs(F.numRegs()) {
    for (const BasicBlock &B : F.Blocks)
      for (const Instruction &I : B.Instrs)
        if (I.Op == Opcode::MakeStatic)
          for (Reg V : I.AnnotVars)
            AnnotatedRegs.set(V);
    for (const analysis::Loop &L : LI.loops()) {
      LoopFacts &LF = Loops.emplace_back();
      LF.L = &L;
      LF.Variant = LI.loopVariantRegs(F, L.Header);
      for (BlockId B : G.rpo())
        if (L.contains(B))
          LF.Order.push_back(B);
    }
  }

  RegionInfo run() {
    R.Contexts.clear();
    // Seed a native-entry promotion for every make_static block, in RPO.
    for (BlockId B : G.rpo()) {
      const BasicBlock &BB = F.block(B);
      if (BB.Instrs.front().Op != Opcode::MakeStatic)
        continue;
      const Instruction &MS = BB.Instrs.front();
      BitVector Set(F.numRegs());
      for (Reg V : MS.AnnotVars)
        Set.set(V);
      uint32_t Ctx = getOrCreateContext(B, Set);
      PromoPoint P;
      P.Id = static_cast<uint32_t>(R.Promos.size());
      P.Block = B;
      P.TargetCtx = Ctx;
      P.KeyRegs = sortedRegs(Set);
      P.Policy = effectivePolicy(MS.Policy);
      P.IndexKeyPos = indexKeyPos(MS, P.BakedRegs, P.KeyRegs);
      P.IsNativeEntry = true;
      R.NativeEntries.push_back(P.Id);
      R.Promos.push_back(std::move(P));
    }

    while (!Worklist.empty()) {
      uint32_t Id = Worklist.back();
      Worklist.pop_back();
      InWorklist[Id] = false;
      processContext(Id);
    }

    computeFacts();
    return std::move(R);
  }

private:
  /// One per loop of LI, computed once: the loop's variant registers and
  /// its blocks in RPO order.
  struct LoopFacts {
    const analysis::Loop *L = nullptr;
    std::vector<Reg> Variant;
    std::vector<BlockId> Order;
  };

  CachePolicy effectivePolicy(CachePolicy P) const {
    return Flags.UncheckedDispatching ? P : CachePolicy::CacheAll;
  }

  /// Position of the CacheIndexed index variable (the annotation's last
  /// variable) within the composed key (baked values, then run-time key
  /// values). 0 for other policies.
  static uint32_t indexKeyPos(const Instruction &MS,
                              const std::vector<Reg> &Baked,
                              const std::vector<Reg> &Keys) {
    if (MS.Policy != CachePolicy::CacheIndexed || MS.AnnotVars.empty())
      return 0;
    Reg Index = MS.AnnotVars.back();
    for (size_t I = 0; I != Baked.size(); ++I)
      if (Baked[I] == Index)
        return static_cast<uint32_t>(I);
    for (size_t I = 0; I != Keys.size(); ++I)
      if (Keys[I] == Index)
        return static_cast<uint32_t>(Baked.size() + I);
    fatal("cache_indexed: the annotation's last variable is not part of "
          "the promotion key");
  }

  static std::vector<Reg> sortedRegs(const BitVector &Set) {
    std::vector<Reg> Out;
    Set.forEachSetBit([&](size_t I) { Out.push_back(static_cast<Reg>(I)); });
    return Out;
  }

  uint32_t getOrCreateContext(BlockId B, const BitVector &Set) {
    if (Flags.PolyvariantDivision) {
      for (uint32_t Id : CtxsOfBlock[B])
        if (R.Contexts[Id].StaticIn == Set)
          return Id;
      return createContext(B, Set);
    }
    // Monovariant division: one context per block; meet by intersection.
    if (!CtxsOfBlock[B].empty()) {
      uint32_t Id = CtxsOfBlock[B].front();
      BitVector Meet = R.Contexts[Id].StaticIn;
      if (Meet.intersectWith(Set)) {
        R.Contexts[Id].StaticIn = std::move(Meet);
        // Shrinking a context's static set can change every other
        // context's edge classification; re-run them all. Sets only
        // shrink, so this terminates.
        for (uint32_t All = 0; All != R.Contexts.size(); ++All)
          push(All);
      }
      return Id;
    }
    return createContext(B, Set);
  }

  uint32_t createContext(BlockId B, const BitVector &Set) {
    if (R.Contexts.size() >= 65536)
      fatal("binding-time analysis context explosion in '" + F.Name + "'");
    Context C;
    C.Id = static_cast<uint32_t>(R.Contexts.size());
    C.Block = B;
    C.StaticIn = Set;
    R.Contexts.push_back(std::move(C));
    CtxsOfBlock[B].push_back(R.Contexts.back().Id);
    InWorklist.resize(R.Contexts.size(), false);
    push(R.Contexts.back().Id);
    return R.Contexts.back().Id;
  }

  void push(uint32_t Id) {
    if (InWorklist[Id])
      return;
    InWorklist[Id] = true;
    Worklist.push_back(Id);
  }

  void processContext(uint32_t Id) {
    const BlockId B = R.Contexts[Id].Block;
    BitVector Set = R.Contexts[Id].StaticIn;
    const BasicBlock &BB = F.block(B);

    std::vector<uint8_t> InstIsStatic;
    std::vector<BitVector> PreSets;
    InstIsStatic.reserve(BB.Instrs.size());
    PreSets.reserve(BB.Instrs.size());

    for (size_t Idx = 0; Idx != BB.Instrs.size(); ++Idx) {
      const Instruction &I = BB.Instrs[Idx];
      PreSets.push_back(Set);
      if (I.Op == Opcode::MakeStatic) {
        // The leading annotation's effect is already reflected in
        // StaticIn (promotion edges and native entries add the variables;
        // ignored annotations do not).
        InstIsStatic.push_back(1);
        continue;
      }
      if (I.Op == Opcode::MakeDynamic) {
        for (Reg V : I.AnnotVars)
          Set.reset(V);
        InstIsStatic.push_back(1);
        continue;
      }
      bool S = isStaticInstr(I, Set, M, Flags);
      InstIsStatic.push_back(S ? 1 : 0);
      if (I.definesReg()) {
        if (S)
          Set.set(I.Dst);
        else
          Set.reset(I.Dst);
      }
    }

    Edge TrueEdge, FalseEdge;
    bool TermCondStatic = false;
    const Instruction &T = BB.terminator();
    if (T.Op == Opcode::Br) {
      TrueEdge = classifyEdge(Set, T.TrueSucc);
    } else if (T.Op == Opcode::CondBr) {
      TermCondStatic = Set.test(T.Src1);
      TrueEdge = classifyEdge(Set, T.TrueSucc);
      FalseEdge = classifyEdge(Set, T.FalseSucc);
    }

    Context &C = R.Contexts[Id]; // re-acquire: edges may have grown the pool
    C.InstIsStatic = std::move(InstIsStatic);
    C.PreSets = std::move(PreSets);
    C.StaticOut = std::move(Set);
    C.TermCondStatic = TermCondStatic;
    C.TrueEdge = TrueEdge;
    C.FalseEdge = FalseEdge;
  }

  Edge classifyEdge(const BitVector &OutSet, BlockId S) {
    BitVector In = OutSet;

    // Loop-head demotion. A static variable carried around a back edge
    // (loop-variant and live into the header) drives complete loop
    // unrolling; following the paper's model (Figure 2 annotates the loop
    // indices crow/ccol explicitly), only *annotated* variables are kept
    // static across loop heads — unannotated derived statics are demoted,
    // which is what keeps a derived induction variable under a dynamic
    // bound from unrolling without bound. "Without complete loop
    // unrolling" (Table 5) demotes the annotated ones too.
    if (const LoopFacts *L = loopAtHeader(S)) {
      const BitVector &Live = LV.liveIn(S);
      // Even an annotated induction variable must be demoted when no exit
      // test of the loop is derivably static: specializing such a loop
      // would unroll without bound (the paper's "loops that were too
      // large to be completely unrolled" limitation, which also protects
      // ablation configurations like "without static loads" where a
      // bound-producing load turns dynamic).
      bool StaticExit =
          Flags.CompleteLoopUnrolling && loopHasStaticExit(*L, In);
      for (Reg V : L->Variant) {
        if (!In.test(V) || !Live.test(V))
          continue;
        if (StaticExit && AnnotatedRegs.test(V))
          continue;
        In.reset(V);
      }
    }

    // Restrict the static set to registers live into the target: dead
    // statics would otherwise multiply divisions (every block-local
    // constant temporary would spawn a fresh static set) and bloat
    // specialization keys. Dropping a dead register needs no
    // materialization, by definition.
    In.intersectWith(LV.liveIn(S));

    // Any static register dropped across this edge but still live at the
    // target must have its value materialized into the run-time register.
    auto MaterializeList = [&](const BitVector &TargetIn) {
      std::vector<Reg> Out;
      const BitVector &Live = LV.liveIn(S);
      OutSet.forEachSetBit([&](size_t V) {
        if (Live.test(V) && !TargetIn.test(V))
          Out.push_back(static_cast<Reg>(V));
      });
      return Out;
    };

    const Instruction &Lead = F.block(S).Instrs.front();
    if (Lead.Op == Opcode::MakeStatic) {
      std::vector<Reg> NewVars;
      for (Reg V : Lead.AnnotVars)
        if (!In.test(V))
          NewVars.push_back(V);
      if (!NewVars.empty() && Flags.InternalPromotions) {
        BitVector Tgt = In;
        for (Reg V : Lead.AnnotVars)
          Tgt.set(V);
        uint32_t TgtCtx = getOrCreateContext(S, Tgt);
        std::sort(NewVars.begin(), NewVars.end());
        std::vector<Reg> Baked = sortedRegs(In);

        // Reuse an identical promo descriptor if one exists.
        for (const PromoPoint &P : R.Promos)
          if (!P.IsNativeEntry && P.Block == S && P.TargetCtx == TgtCtx &&
              P.KeyRegs == NewVars && P.BakedRegs == Baked) {
            Edge E{Edge::Promo, TgtCtx, NoBlock, P.Id, {}};
            E.Materialize = MaterializeList(R.Contexts[TgtCtx].StaticIn);
            return E;
          }

        PromoPoint P;
        P.Id = static_cast<uint32_t>(R.Promos.size());
        P.Block = S;
        P.TargetCtx = TgtCtx;
        P.KeyRegs = std::move(NewVars);
        P.BakedRegs = std::move(Baked);
        P.Policy = effectivePolicy(Lead.Policy);
        P.IndexKeyPos = indexKeyPos(Lead, P.BakedRegs, P.KeyRegs);
        P.IsNativeEntry = false;
        R.Promos.push_back(P);
        R.HasInternalPromotions = true;
        Edge E{Edge::Promo, TgtCtx, NoBlock, P.Id, {}};
        E.Materialize = MaterializeList(R.Contexts[TgtCtx].StaticIn);
        return E;
      }
      // Annotation adds nothing (or internal promotions are disabled):
      // fall through to the exit test / plain context edge.
    }

    // Region extent: if no static variable is live into S, the region ends
    // here and generated code resumes the native function at S.
    BitVector LiveStatics = In;
    LiveStatics.intersectWith(LV.liveIn(S));
    if (!LiveStatics.any()) {
      Edge E{Edge::Exit, NoCtx, S, 0, {}};
      E.Materialize = MaterializeList(BitVector(F.numRegs()));
      return E;
    }

    uint32_t Tgt = getOrCreateContext(S, In);
    Edge E{Edge::Ctx, Tgt, NoBlock, 0, {}};
    E.Materialize = MaterializeList(R.Contexts[Tgt].StaticIn);
    return E;
  }

  const LoopFacts *loopAtHeader(BlockId B) const {
    for (const LoopFacts &LF : Loops)
      if (LF.L->Header == B)
        return &LF;
    return nullptr;
  }

  /// Optimistically propagates staticness through the loop body (union
  /// over two RPO passes) and checks whether any exiting conditional
  /// branch tests a static condition.
  bool loopHasStaticExit(const LoopFacts &LF, const BitVector &HeaderIn) {
    const analysis::Loop &L = *LF.L;
    BitVector Set = HeaderIn;
    for (int Pass = 0; Pass != 2; ++Pass) {
      for (BlockId B : LF.Order) {
        for (const Instruction &I : F.block(B).Instrs) {
          if (I.Op == Opcode::MakeStatic) {
            for (Reg V : I.AnnotVars)
              Set.set(V);
            continue;
          }
          if (I.Op == Opcode::MakeDynamic)
            continue; // optimistic
          if (I.definesReg() && isStaticInstr(I, Set, M, Flags))
            Set.set(I.Dst);
        }
      }
    }
    for (BlockId B : LF.Order) {
      const Instruction &T = F.block(B).terminator();
      if (T.Op != Opcode::CondBr)
        continue;
      bool Exits = !L.contains(T.TrueSucc) || !L.contains(T.FalseSucc);
      if (Exits && Set.test(T.Src1))
        return true;
    }
    return false;
  }

  void computeFacts() {
    for (const Context &C : R.Contexts) {
      const BasicBlock &BB = F.block(C.Block);
      for (size_t I = 0; I != C.InstIsStatic.size(); ++I) {
        if (!C.InstIsStatic[I])
          continue;
        const Instruction &In = BB.Instrs[I];
        if (In.Op == Opcode::Load)
          R.HasStaticLoads = true;
        if (In.Op == Opcode::Call || In.Op == Opcode::CallExt)
          R.HasStaticCalls = true;
      }
      if (!BB.Instrs.empty() && BB.terminator().Op == Opcode::CondBr &&
          !C.TermCondStatic &&
          (C.TrueEdge.K == Edge::Ctx || C.TrueEdge.K == Edge::Promo ||
           C.FalseEdge.K == Edge::Ctx || C.FalseEdge.K == Edge::Promo))
        R.HasDynBranchInRegion = true;
    }
    for (BlockId B = 0; B != F.numBlocks(); ++B)
      if (CtxsOfBlock[B].size() > 1)
        R.HasPolyvariantDivision = true;

    // Loop unrolling facts: a loop completely unrolls if some context at
    // its header keeps a loop-variant register static.
    if (Flags.CompleteLoopUnrolling) {
      for (const LoopFacts &LF : Loops) {
        const analysis::Loop &L = *LF.L;
        const std::vector<Reg> &Variant = LF.Variant;
        bool Unrolls = false;
        for (uint32_t Id : CtxsOfBlock[L.Header]) {
          for (Reg V : Variant)
            if (R.Contexts[Id].StaticIn.test(V))
              Unrolls = true;
        }
        if (!Unrolls)
          continue;
        R.UnrollsLoop = true;
        // Multi-way (section 2.2.4): "one iteration may lead to several
        // different loop iterations" — a static loop-variant register is
        // updated on a path that does not dominate the latch (different
        // branch paths update the induction variables differently), or
        // the loop has several latches.
        if (L.Latches.size() > 1)
          R.MultiWayUnroll = true;
        std::vector<Reg> StaticVariant;
        for (Reg V : Variant)
          for (uint32_t Id : CtxsOfBlock[L.Header])
            if (R.Contexts[Id].StaticIn.test(V)) {
              StaticVariant.push_back(V);
              break;
            }
        for (BlockId B : L.Blocks) {
          bool AssignsStaticVariant = false;
          for (const Instruction &I : F.block(B).Instrs)
            if (I.definesReg() &&
                std::find(StaticVariant.begin(), StaticVariant.end(),
                          I.Dst) != StaticVariant.end())
              AssignsStaticVariant = true;
          if (!AssignsStaticVariant)
            continue;
          for (BlockId Latch : L.Latches)
            if (!DT.dominates(B, Latch))
              R.MultiWayUnroll = true;
        }
      }
    }
  }

  const Function &F;
  const Module &M;
  const OptFlags &Flags;
  analysis::CFG G;
  analysis::Dominators DT;
  analysis::LoopInfo LI;
  analysis::Liveness LV;
  std::vector<LoopFacts> Loops;
  RegionInfo R;
  std::vector<std::vector<uint32_t>> CtxsOfBlock;
  BitVector AnnotatedRegs;
  std::vector<uint32_t> Worklist;
  std::vector<uint8_t> InWorklist;
};

} // namespace

RegionInfo analyzeFunction(const Function &F, const Module &M,
                           const OptFlags &Flags) {
  if (!F.hasAnnotations())
    return RegionInfo();
  Analyzer A(F, M, Flags);
  RegionInfo R = A.run();
  return R;
}

std::vector<RegionInfo> analyzeModule(const Module &M, const OptFlags &Flags) {
  std::vector<RegionInfo> Out;
  for (size_t I = 0; I != M.numFunctions(); ++I) {
    Out.push_back(analyzeFunction(M.function(static_cast<int>(I)), M, Flags));
    Out.back().FuncIdx = static_cast<int>(I);
  }
  return Out;
}

std::vector<int> regionOrdinals(const std::vector<RegionInfo> &Regions) {
  std::vector<int> Ordinals(Regions.size(), -1);
  int Next = 0;
  for (size_t I = 0; I != Regions.size(); ++I)
    if (!Regions[I].Contexts.empty())
      Ordinals[I] = Next++;
  return Ordinals;
}

std::string printRegionInfo(const RegionInfo &R, const Function &F) {
  std::string Out = formatString("region system for '%s': %zu contexts, "
                                 "%zu promotion points\n",
                                 F.Name.c_str(), R.Contexts.size(),
                                 R.Promos.size());
  auto EdgeStr = [](const Edge &E) {
    switch (E.K) {
    case Edge::None: return std::string("none");
    case Edge::Ctx: return formatString("ctx%u", E.Target);
    case Edge::Exit: return formatString("exit->bb%u", E.Block);
    case Edge::Promo:
      return formatString("promo%u->ctx%u", E.PromoIdx, E.Target);
    }
    return std::string("?");
  };
  for (const Context &C : R.Contexts) {
    Out += formatString("ctx%u: bb%u static{", C.Id, C.Block);
    bool First = true;
    C.StaticIn.forEachSetBit([&](size_t I) {
      Out += (First ? "" : ",") + F.regName(static_cast<Reg>(I));
      First = false;
    });
    Out += "}";
    Out += formatString(" T=%s F=%s%s\n", EdgeStr(C.TrueEdge).c_str(),
                        EdgeStr(C.FalseEdge).c_str(),
                        C.TermCondStatic ? " static-branch" : "");
    const BasicBlock &BB = F.block(C.Block);
    for (size_t I = 0; I != C.InstIsStatic.size(); ++I)
      Out += formatString("    %c %s\n", C.InstIsStatic[I] ? 'S' : 'D',
                          BB.Instrs[I].toString().c_str());
  }
  for (const PromoPoint &P : R.Promos) {
    Out += formatString("promo%u: bb%u -> ctx%u %s keys[", P.Id, P.Block,
                        P.TargetCtx, ir::cachePolicyName(P.Policy));
    for (size_t I = 0; I != P.KeyRegs.size(); ++I)
      Out += (I ? "," : "") + F.regName(P.KeyRegs[I]);
    Out += "] baked[";
    for (size_t I = 0; I != P.BakedRegs.size(); ++I)
      Out += (I ? "," : "") + F.regName(P.BakedRegs[I]);
    Out += P.IsNativeEntry ? "] native-entry\n" : "]\n";
  }
  return Out;
}

} // namespace bta
} // namespace dyc
