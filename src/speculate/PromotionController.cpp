//===- speculate/PromotionController.cpp ---------------------------------------------===//

#include "speculate/PromotionController.h"

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "bta/BTAnalysis.h"
#include "cogen/CompilerGenerator.h"
#include "cogen/Lowering.h"

#include <algorithm>

namespace dyc {
namespace speculate {

std::vector<ir::Reg> PromotionController::loopCarriedStatics(
    const ir::Function &F, const std::vector<uint32_t> &Params) const {
  analysis::CFG G(F);
  analysis::Dominators DT(F, G);
  analysis::LoopInfo LI(F, G, DT);
  analysis::Liveness LV(F, G);

  // All-definitions staticness, greatest fixpoint: a register is
  // derivably static only if EVERY definition is evaluable from the
  // set. Union-over-defs would be too eager — a loop accumulator
  // initialized to a constant but updated from dynamic values has one
  // static definition, yet no programmer would annotate it (its dynamic
  // update poisons the loop-head meet anyway). Start optimistically with
  // every defined register plus the promoted parameters, demote the
  // unpromoted parameters (they are the dynamic inputs), and strike
  // registers with a non-evaluable definition until nothing changes.
  BitVector Set(F.numRegs());
  for (const ir::BasicBlock &BB : F.Blocks)
    for (const ir::Instruction &I : BB.Instrs)
      if (I.definesReg())
        Set.set(I.Dst);
  for (uint32_t P = 0; P != F.NumParams; ++P)
    Set.reset(P);
  for (uint32_t P : Params)
    Set.set(P);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (ir::BlockId B : G.rpo())
      for (const ir::Instruction &I : F.block(B).Instrs)
        if (I.definesReg() && Set.test(I.Dst) &&
            !bta::isStaticInstr(I, Set, SpecM, Flags)) {
          Set.reset(I.Dst);
          Changed = true;
        }
  }

  // Keep the registers a programmer would have annotated: derivably
  // static, reassigned inside a loop, live into its header — exactly the
  // ones the BTA's loop-head demotion would otherwise strip. One more
  // screen protects the specializer's memoized state space: a definition
  // on a conditional path (its block does not dominate every latch)
  // forks the static state at the dynamic branch, which is only bounded
  // when the same block also advances the loop's static exit condition
  // (binary search's `found` rides with `lo = hi + 1`, so the interval
  // keeps narrowing). A pure accumulator under dynamic control — a hit
  // counter, say — multiplies states without ever converging, so it is
  // rejected everywhere.
  std::vector<ir::Reg> Accepted, Rejected;
  for (const analysis::Loop &L : LI.loops()) {
    const BitVector &Live = LV.liveIn(L.Header);
    std::vector<ir::Reg> Cands;
    for (ir::Reg V : LI.loopVariantRegs(F, L.Header))
      if (Set.test(V) && Live.test(V))
        Cands.push_back(V);
    if (Cands.empty())
      continue;

    // Registers transitively feeding a static exiting branch of L
    // (backward closure over the loop's definitions).
    BitVector Feed(F.numRegs());
    for (ir::BlockId B : L.Blocks) {
      const ir::Instruction &T = F.block(B).terminator();
      if (T.Op == ir::Opcode::CondBr && Set.test(T.Src1) &&
          (!L.contains(T.TrueSucc) || !L.contains(T.FalseSucc)))
        Feed.set(T.Src1);
    }
    bool Grew = true;
    while (Grew) {
      Grew = false;
      for (ir::BlockId B : L.Blocks)
        for (const ir::Instruction &I : F.block(B).Instrs) {
          if (!I.definesReg() || !Feed.test(I.Dst))
            continue;
          std::vector<ir::Reg> Uses;
          I.appendUses(Uses);
          for (ir::Reg U : Uses)
            if (!Feed.test(U)) {
              Feed.set(U);
              Grew = true;
            }
        }
    }

    for (ir::Reg V : Cands) {
      bool Ok = true;
      for (ir::BlockId B : L.Blocks) {
        bool DefinesV = false, DefinesFeed = false;
        for (const ir::Instruction &I : F.block(B).Instrs)
          if (I.definesReg()) {
            DefinesV |= I.Dst == V;
            DefinesFeed |= Feed.test(I.Dst);
          }
        if (!DefinesV)
          continue;
        bool Uncond = true;
        for (ir::BlockId Latch : L.Latches)
          if (!DT.dominates(B, Latch))
            Uncond = false;
        if (!Uncond && !DefinesFeed) {
          Ok = false;
          break;
        }
      }
      (Ok ? Accepted : Rejected).push_back(V);
    }
  }
  std::sort(Accepted.begin(), Accepted.end());
  Accepted.erase(std::unique(Accepted.begin(), Accepted.end()),
                 Accepted.end());
  std::vector<ir::Reg> Out;
  for (ir::Reg V : Accepted)
    if (std::find(Rejected.begin(), Rejected.end(), V) == Rejected.end())
      Out.push_back(V);
  return Out;
}

ir::Function
PromotionController::annotatedClone(const ir::Function &F,
                                    const std::vector<uint32_t> &Params) const {
  ir::Function TF = F;
  ir::Instruction MS;
  MS.Op = ir::Opcode::MakeStatic;
  MS.Policy = ir::CachePolicy::CacheOneUnchecked;
  for (uint32_t P : Params)
    MS.AnnotVars.push_back(P);
  for (ir::Reg V : loopCarriedStatics(F, Params))
    if (std::find(MS.AnnotVars.begin(), MS.AnnotVars.end(), V) ==
        MS.AnnotVars.end())
      MS.AnnotVars.push_back(V);
  assert(!TF.Blocks.empty() && "function has no entry block");
  ir::BasicBlock &Entry = TF.block(0);
  Entry.Instrs.insert(Entry.Instrs.begin(), std::move(MS));
  bta::normalizeAnnotations(TF);
  return TF;
}

PromotionController::Trial
PromotionController::probe(uint32_t Func,
                           const std::vector<uint32_t> &Params) const {
  Trial T;
  // An empty promotion would synthesize a degenerate always-passing
  // guard; rule it out rather than letting constant-argument pure calls
  // (static with no promoted inputs at all) claim a benefit.
  if (Params.empty())
    return T;
  ir::Function TF = annotatedClone(SpecM.function(static_cast<int>(Func)),
                                   Params);
  T.AnalyzedInstrs = TF.numInstructions();
  bta::RegionInfo RI = bta::analyzeFunction(TF, SpecM, Flags);
  for (const bta::Context &C : RI.Contexts) {
    const ir::BasicBlock &BB = TF.block(C.Block);
    if (C.TermCondStatic)
      ++T.Benefit; // a dynamic branch folds away
    size_t N = std::min(BB.Instrs.size(), C.InstIsStatic.size());
    for (size_t I = 0; I != N; ++I) {
      if (BB.Instrs[I].isAnnotation())
        continue;
      if (!C.InstIsStatic[I]) {
        ++T.DynWork;
        continue;
      }
      ++T.StaticWork;
      ir::Opcode Op = BB.Instrs[I].Op;
      // Static `@` loads and static pure calls execute once at
      // specialize time; everything else static (arithmetic, moves) is
      // as cheap re-executed as guarded, so it counts for nothing.
      if (Op == ir::Opcode::Load || Op == ir::Opcode::Call ||
          Op == ir::Opcode::CallExt) {
        ++T.Benefit;
        ++T.DataFolds;
      }
    }
  }
  return T;
}

PromotionController::Decision PromotionController::attempt(uint32_t Func) {
  Decision D;
  const ir::Function &F = SpecM.function(static_cast<int>(Func));

  // Candidate parameters: observed, stable enough, not retired.
  std::vector<uint32_t> Cand;
  for (uint32_t P = 0; P != F.NumParams; ++P) {
    const profile::ParamProfile &PP = Prof.param(Func, P);
    if (PP.Blacklisted || PP.Overflowed || PP.Observations == 0)
      continue;
    if (PP.dominance() < Policy.MinDominance)
      continue;
    Cand.push_back(P);
  }
  if (Cand.empty())
    return D;

  Trial Full = probe(Func, Cand);
  D.AnalyzedInstrs += Full.AnalyzedInstrs;
  if (Full.Benefit < Policy.MinStructuralBenefit)
    return D;
  // Pure unrolling is held to a stricter floor: one folded branch is the
  // region's own driver loop, and replicating its body per (unknown)
  // trip count trades I-cache for nothing (see SpeculationPolicy).
  if (Full.DataFolds == 0 && Full.Benefit < Policy.MinUnrollOnlyBenefit)
    return D;

  // Greedy narrowing, ascending: drop any parameter whose removal keeps
  // the full benefit. Invariant-but-unused (or content-varying pointer)
  // parameters fall out here, shrinking the guard.
  std::vector<uint32_t> Kept = Cand;
  for (uint32_t P : Cand) {
    if (Kept.size() == 1)
      break;
    std::vector<uint32_t> Sub;
    for (uint32_t K : Kept)
      if (K != P)
        Sub.push_back(K);
    Trial T = probe(Func, Sub);
    D.AnalyzedInstrs += T.AnalyzedInstrs;
    if (T.Benefit == Full.Benefit)
      Kept = std::move(Sub);
  }

  // Synthesize the twin and run it through the ordinary pipeline.
  ir::Function TF = annotatedClone(F, Kept);
  std::string CodeName = TF.Name + ".spec";
  // The reference to F dies here: addFunction may reallocate SpecM.
  int TwinIdx = SpecM.addFunction(std::move(TF));
  const ir::Function &Twin = SpecM.function(TwinIdx);
  bta::RegionInfo RI = bta::analyzeFunction(Twin, SpecM, Flags);
  RI.FuncIdx = TwinIdx;
  uint32_t Ord = static_cast<uint32_t>(Inner.numRegions());
  cogen::LoweredFunction LF = cogen::lowerFunction(
      Twin, SpecM, Prog, /*WithRegions=*/true, &RI, static_cast<int>(Ord),
      CodeName);
  Inner.addRegion(cogen::buildGenExt(Twin, SpecM, std::move(RI), LF, Flags));

  D.Promoted = true;
  D.TwinIdx = static_cast<uint32_t>(TwinIdx);
  D.Ordinal = Ord;
  D.Params = std::move(Kept);
  for (uint32_t P : D.Params)
    D.Values.push_back(Word(Prof.param(Func, P).dominantValue()));
  return D;
}

} // namespace speculate
} // namespace dyc
