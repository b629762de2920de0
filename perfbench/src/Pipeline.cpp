//===- perfbench/src/Pipeline.cpp ------------------------------------------===//

#include "Pipeline.h"
#include "Util.h"

#include "bta/BTAnalysis.h"
#include "cogen/CompilerGenerator.h"
#include "cogen/Lowering.h"
#include "frontend/Lower.h"
#include "ir/Module.h"
#include "opt/Passes.h"

namespace perfbench {

using namespace dyc;

namespace {

uint64_t countIrInstrs(const ir::Module &M) {
  uint64_t N = 0;
  for (size_t F = 0; F != M.numFunctions(); ++F) {
    const ir::Function &Fn = M.function(static_cast<int>(F));
    for (size_t B = 0; B != Fn.numBlocks(); ++B)
      N += Fn.block(static_cast<ir::BlockId>(B)).Instrs.size();
  }
  return N;
}

} // namespace

bool compile(core::DycContext &Ctx, const std::string &Source, Tracer &T,
             std::vector<std::string> &Errors, ModuleSizes *Sizes) {
  if (!T.enabled() && !Sizes)
    return Ctx.compile(Source, Errors);
  // Mirror of DycContext::compile.
  ir::Module &M = Ctx.moduleMutable();
  {
    Scoped S(T, "frontend");
    if (!frontend::compileMiniC(Source, M, Errors))
      return false;
  }
  if (Sizes) {
    Scoped S(T, "bench.count");
    Sizes->FrontendInstrs += countIrInstrs(M);
  }
  {
    Scoped S(T, "opt");
    for (size_t I = 0; I != M.numFunctions(); ++I)
      bta::normalizeAnnotations(M.function(static_cast<int>(I)));
    opt::runStaticOptimizations(M);
    std::string Err = ir::verifyModule(M);
    if (!Err.empty()) {
      Errors.push_back("post-optimization verification failed: " + Err);
      return false;
    }
  }
  if (Sizes) {
    Scoped S(T, "bench.count");
    Sizes->OptInstrs += countIrInstrs(M);
  }
  return true;
}

std::unique_ptr<core::Executable>
buildDynamic(const core::DycContext &Ctx, Tracer &T, ModuleSizes *Sizes) {
  if (!T.enabled() && !Sizes)
    return Ctx.buildDynamic();
  // Mirror of DycContext::buildDynamic with default arguments. The
  // externals are bound just before lowering rather than first: analysis
  // reads only the module, so the program comes out the same (the parity
  // check holds the replay to that).
  const ir::Module &M = Ctx.module();
  const OptFlags Flags;
  auto E = std::make_unique<core::Executable>();

  std::vector<bta::RegionInfo> Regions;
  {
    Scoped S(T, "bta");
    for (size_t I = 0; I != M.numFunctions(); ++I) {
      Regions.push_back(
          bta::analyzeFunction(M.function(static_cast<int>(I)), M, Flags));
      Regions.back().FuncIdx = static_cast<int>(I);
    }
  }
  std::vector<int> Ordinals(M.numFunctions(), -1);
  int Next = 0;
  for (size_t I = 0; I != M.numFunctions(); ++I)
    if (!Regions[I].Contexts.empty())
      Ordinals[I] = Next++;
  if (Sizes)
    for (const bta::RegionInfo &R : Regions)
      Sizes->Contexts += R.Contexts.size();

  {
    Scoped S(T, "cogen.lower");
    cogen::bindExternals(M, E->Prog);
    E->Lowered = cogen::lowerModule(M, E->Prog, /*WithRegions=*/true,
                                    Regions, Ordinals);
  }
  E->AnnotatedOrdinal = Ordinals;
  {
    Scoped S(T, "runtime.build");
    E->RT = std::make_unique<runtime::DycRuntime>(M, E->Prog, Flags);
  }
  {
    Scoped S(T, "cogen.genext");
    for (size_t I = 0; I != M.numFunctions(); ++I) {
      if (Ordinals[I] < 0)
        continue;
      cogen::GenExtFunction GX =
          cogen::buildGenExt(M.function(static_cast<int>(I)), M,
                             std::move(Regions[I]), E->Lowered[I], Flags);
      E->RT->addRegion(std::move(GX));
    }
  }
  {
    Scoped S(T, "vm.build");
    E->Machine = std::make_unique<vm::VM>(E->Prog);
    E->Machine->Hook = E->RT.get();
    E->RT->core().attachVM(*E->Machine);
  }
  return E;
}

std::unique_ptr<core::Executable> buildStatic(const core::DycContext &Ctx,
                                              Tracer &T) {
  if (!T.enabled())
    return Ctx.buildStatic();
  // Mirror of DycContext::buildStatic with default arguments.
  const ir::Module &M = Ctx.module();
  auto E = std::make_unique<core::Executable>();
  {
    Scoped S(T, "cogen.lower");
    cogen::bindExternals(M, E->Prog);
    std::vector<bta::RegionInfo> Empty(M.numFunctions());
    std::vector<int> NoOrd(M.numFunctions(), -1);
    E->Lowered = cogen::lowerModule(M, E->Prog, /*WithRegions=*/false,
                                    Empty, NoOrd);
    E->AnnotatedOrdinal = std::move(NoOrd);
  }
  {
    Scoped S(T, "vm.build");
    E->Machine = std::make_unique<vm::VM>(E->Prog);
  }
  return E;
}

Word runFirst(core::Executable &E, int Func, const std::vector<Word> &Args,
              Tracer &T, double *SpecNs) {
  Scoped S(T, "vm.first_run");
  double Spec0 = E.RT ? E.RT->specializeHostSeconds() : 0;
  uint64_t T0 = nowNs();
  Word R = E.Machine->run(static_cast<uint32_t>(Func), Args);
  double Spec = E.RT ? (E.RT->specializeHostSeconds() - Spec0) * 1e9 : 0;
  if (E.RT) {
    T.addChild("runtime.first_spec", T0, T0 + static_cast<uint64_t>(Spec));
    if (SpecNs)
      *SpecNs += Spec;
  }
  return R;
}

RegionTotals regionTotals(const core::Executable &E) {
  RegionTotals R;
  if (!E.RT)
    return R;
  for (size_t I = 0; I != E.RT->numRegions(); ++I) {
    const runtime::RegionStats &S = E.RT->stats(I);
    R.InstrsGenerated += S.InstructionsGenerated;
    R.PlanBuilds += S.PlanBuilds;
    R.PlanBytes += S.PlanBytes;
    R.SpecRuns += S.SpecializationRuns;
    R.Dispatches += S.Dispatches;
    R.CacheHits += S.CacheHits;
    R.Evictions += S.Evictions;
  }
  return R;
}

bool sameOutputs(const vm::VM &A, const vm::VM &B,
                 const workloads::WorkloadSetup &S) {
  for (int64_t I = 0; I != S.OutLen; ++I) {
    size_t Addr = static_cast<size_t>(S.OutBase + I);
    if (A.memory()[Addr] != B.memory()[Addr])
      return false;
  }
  return true;
}

bool checkReplayParity(const workloads::Workload &W) {
  Tracer Off(false, 0), On(true, 0);
  std::vector<std::string> Errors;
  core::DycContext CA, CB;
  if (!compile(CA, W.Source, Off, Errors) ||
      !compile(CB, W.Source, On, Errors))
    return false;
  if (ir::printModule(CA.module()) != ir::printModule(CB.module()))
    return false;
  std::unique_ptr<core::Executable> A = buildDynamic(CA, Off);
  std::unique_ptr<core::Executable> B = buildDynamic(CB, On);
  workloads::WorkloadSetup SA = W.Setup(*A->Machine);
  workloads::WorkloadSetup SB = W.Setup(*B->Machine);
  int FA = A->findFunction(W.RegionFunc), FB = B->findFunction(W.RegionFunc);
  if (FA < 0 || FA != FB || A->AnnotatedOrdinal != B->AnnotatedOrdinal)
    return false;
  Word RA = runFirst(*A, FA, SA.RegionArgs, Off);
  Word RB = runFirst(*B, FB, SB.RegionArgs, On);
  if (RA != RB || !sameOutputs(*A->Machine, *B->Machine, SA) ||
      A->Machine->execCycles() != B->Machine->execCycles() ||
      A->Machine->dynCompCycles() != B->Machine->dynCompCycles() ||
      A->Machine->instrsExecuted() != B->Machine->instrsExecuted() ||
      A->RT->numRegions() != B->RT->numRegions())
    return false;
  for (size_t I = 0; I != A->RT->numRegions(); ++I)
    if (A->RT->disassembleRegion(I) != B->RT->disassembleRegion(I))
      return false;
  return true;
}

} // namespace perfbench
