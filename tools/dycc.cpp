//===- tools/dycc.cpp - Command-line driver for the DyC reproduction ----------------===//
//
// Compile an annotated MiniC file, inspect every stage of the staged
// pipeline, and run it on the simulated machine:
//
//   dycc prog.minic --dump-ir                   # IR after static opts
//   dycc prog.minic --dump-bta                  # binding-time analysis
//   dycc prog.minic --dump-genext               # generating extensions
//   dycc prog.minic --run f 3 4.5 --stats       # dynamic compile + run
//   dycc prog.minic --run f 7 --static          # static baseline
//   dycc prog.minic --run f 7 --dump-residual   # show generated code
//   dycc prog.minic --run f 7 --no-dead-assignment-elim ...
//   dycc prog.minic --run main --profile        # annotation advisor
//
//===----------------------------------------------------------------------===//

#include "bta/BTAnalysis.h"
#include "core/DycContext.h"
#include "profile/ValueProfiler.h"
#include "speculate/SpeculativeRuntime.h"

#include <cstdio>
#include <cstring>
#include <cstdlib>

using namespace dyc;

namespace {

void usage() {
  fprintf(stderr,
          "usage: dycc <file.minic> [options]\n"
          "  --run FUNC [ARGS...]  call FUNC (integer or real arguments)\n"
          "  --iterations N        repeat the call N times (default 1)\n"
          "  --static              run the statically compiled baseline\n"
          "  --dump-ir             print the optimized IR\n"
          "  --dump-bta            print the binding-time analysis\n"
          "  --dump-genext         print the generating extensions\n"
          "  --dump-residual       disassemble generated code after a run\n"
          "  --stats               print cycle counts and region stats\n"
          "  --profile             value-profile the run and suggest\n"
          "                        make_static annotations\n"
          "  --speculate           strip the annotations and run the\n"
          "                        speculative promotion run-time instead\n"
          "  --advise              after a --speculate run, print the\n"
          "                        promotion controller's evidence per\n"
          "                        function (implies --speculate); after a\n"
          "                        --tier run, print per-region tier state\n"
          "  --tier                run through the tiered specialization\n"
          "                        service (cold -> warm -> hot with\n"
          "                        background compilation; also $DYC_TIER)\n"
          "  --tenants N           run through the multi-tenant service: N\n"
          "                        tenants replay the call, chains dedup\n"
          "                        across them (--stats adds per-tenant\n"
          "                        ledgers and the global dedup counters)\n"
          "  --icache KB           L1 I-cache size (default 8)\n");
  for (unsigned T = 0; T != OptFlags::NumToggles; ++T)
    fprintf(stderr, "  --no-%-27s disable this optimization\n",
            OptFlags::toggleName(T));
}

bool looksLikeNumber(const char *S) {
  if (*S == '-' || *S == '+')
    ++S;
  return *S >= '0' && *S <= '9';
}

/// Calls function \p F (named \p Name) on \p M \p Iterations times and
/// prints the last result, after \p Prefix, in the function's return type.
void runAndPrint(vm::VM &M, int F, const ir::Function &Fn,
                 const std::string &Name, const std::vector<Word> &Args,
                 uint64_t Iterations, const std::string &Prefix = "") {
  Word R;
  for (uint64_t I = 0; I != Iterations; ++I)
    R = M.run(static_cast<uint32_t>(F), Args);
  if (Fn.RetTy == ir::Type::F64)
    printf("%s%s => %.17g\n", Prefix.c_str(), Name.c_str(), R.asFloat());
  else
    printf("%s%s => %lld\n", Prefix.c_str(), Name.c_str(),
           (long long)R.asInt());
}

/// The machine counters of \p M, one per line.
void printMachine(vm::VM &M) {
  printf("execution cycles:           %llu\n",
         (unsigned long long)M.execCycles());
  printf("dynamic-compilation cycles: %llu\n",
         (unsigned long long)M.dynCompCycles());
  printf("instructions executed:      %llu\n",
         (unsigned long long)M.instrsExecuted());
  printf("I-cache: %llu hits, %llu misses\n",
         (unsigned long long)M.icache().hits(),
         (unsigned long long)M.icache().misses());
}

/// One "region N: ..." line per region; \p StatsOf maps an ordinal to its
/// RegionStats.
template <class StatsOfFn> void printRegions(size_t N, StatsOfFn StatsOf) {
  for (size_t Ord = 0; Ord != N; ++Ord)
    printf("region %zu: %s\n", Ord, StatsOf(Ord).toString().c_str());
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return 2;
  }

  std::string Path = argv[1];
  std::string RunFunc;
  std::vector<Word> RunArgs;
  uint64_t Iterations = 1;
  bool Static = false, DumpIR = false, DumpBTA = false, DumpGenExt = false,
       DumpResidual = false, Stats = false, Profile = false,
       Speculate = false, Advise = false, Tiered = false;
  unsigned Tenants = 0;
  OptFlags Flags;
  vm::ICacheConfig ICCfg;

  if (const char *TE = getenv("DYC_TIER"))
    Tiered = strcmp(TE, "0") != 0 && strcmp(TE, "off") != 0;

  for (int I = 2; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--run" && I + 1 < argc) {
      RunFunc = argv[++I];
      while (I + 1 < argc && looksLikeNumber(argv[I + 1])) {
        std::string V = argv[++I];
        if (V.find('.') != std::string::npos)
          RunArgs.push_back(Word::fromFloat(strtod(V.c_str(), nullptr)));
        else
          RunArgs.push_back(
              Word::fromInt(strtoll(V.c_str(), nullptr, 10)));
      }
    } else if (A == "--iterations" && I + 1 < argc) {
      Iterations = strtoull(argv[++I], nullptr, 10);
    } else if (A == "--static") {
      Static = true;
    } else if (A == "--dump-ir") {
      DumpIR = true;
    } else if (A == "--dump-bta") {
      DumpBTA = true;
    } else if (A == "--dump-genext") {
      DumpGenExt = true;
    } else if (A == "--dump-residual") {
      DumpResidual = true;
    } else if (A == "--stats") {
      Stats = true;
    } else if (A == "--profile") {
      Profile = true;
    } else if (A == "--speculate") {
      Speculate = true;
    } else if (A == "--tier") {
      Tiered = true;
    } else if (A == "--tenants" && I + 1 < argc) {
      Tenants = static_cast<unsigned>(strtoul(argv[++I], nullptr, 10));
      if (Tenants == 0) {
        fprintf(stderr, "dycc: --tenants needs a positive count\n");
        return 2;
      }
    } else if (A == "--advise") {
      Advise = true;
    } else if (A == "--icache" && I + 1 < argc) {
      ICCfg.SizeBytes = strtoul(argv[++I], nullptr, 10) * 1024;
    } else if (A.rfind("--no-", 0) == 0) {
      bool Known = false;
      for (unsigned T = 0; T != OptFlags::NumToggles; ++T)
        if (A.substr(5) == OptFlags::toggleName(T)) {
          Flags.toggle(T) = false;
          Known = true;
        }
      if (!Known) {
        fprintf(stderr, "dycc: unknown optimization '%s'\n", A.c_str());
        return 2;
      }
    } else {
      fprintf(stderr, "dycc: unknown option '%s'\n", A.c_str());
      usage();
      return 2;
    }
  }

  std::string Source;
  {
    FILE *In = Path == "-" ? stdin : std::fopen(Path.c_str(), "rb");
    if (!In) {
      fprintf(stderr, "dycc: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), In)) > 0)
      Source.append(Buf, N);
    if (In != stdin)
      std::fclose(In);
  }

  core::DycContext Ctx;
  std::vector<std::string> Errors;
  if (!Ctx.compile(Source, Errors)) {
    for (const std::string &E : Errors)
      fprintf(stderr, "dycc: error: %s\n", E.c_str());
    return 1;
  }

  if (DumpIR)
    printf("%s", ir::printModule(Ctx.module()).c_str());

  if (DumpBTA) {
    std::vector<bta::RegionInfo> Regions = Ctx.analyze(Flags);
    for (const bta::RegionInfo &R : Regions)
      if (!R.Contexts.empty())
        printf("%s",
               bta::printRegionInfo(R, Ctx.module().function(R.FuncIdx))
                   .c_str());
  }

  if (Advise && !Tiered)
    Speculate = true; // the promotion advisor rides the speculative run-time

  if (Tenants) {
    if (Static || Speculate || Tiered || Profile || Advise) {
      fprintf(stderr, "dycc: --tenants is exclusive with "
                      "--static/--speculate/--tier/--profile/--advise\n");
      return 2;
    }
    server::ServerConfig SCfg;
    SCfg.IC = ICCfg;
    std::unique_ptr<server::SpecServer> Server =
        Ctx.buildMultiTenant(Flags, std::move(SCfg));
    auto ServerRegion = [&](size_t Ord) { return Server->regionStats(Ord); };
    std::vector<std::unique_ptr<vm::VM>> Clients;
    for (unsigned T = 1; T <= Tenants; ++T)
      Clients.push_back(Server->makeClientVM(T));
    if (!RunFunc.empty()) {
      int F = Server->findFunction(RunFunc);
      if (F < 0) {
        fprintf(stderr, "dycc: no function named '%s'\n", RunFunc.c_str());
        return 1;
      }
      for (unsigned T = 0; T != Tenants; ++T)
        runAndPrint(*Clients[T], F, Ctx.module().function(F), RunFunc,
                    RunArgs, Iterations, formatString("tenant %u: ", T + 1));
    }
    Server->drain();
    if (Stats) {
      for (unsigned T = 0; T != Tenants; ++T) {
        printf("tenant %u: exec %llu cycles, dyncomp %llu cycles, "
               "icache %llu/%llu\n",
               T + 1, (unsigned long long)Clients[T]->execCycles(),
               (unsigned long long)Clients[T]->dynCompCycles(),
               (unsigned long long)Clients[T]->icache().hits(),
               (unsigned long long)Clients[T]->icache().misses());
        printf("tenant %u ledger: %s\n", T + 1,
               Server->tenantStats(T + 1).toString().c_str());
      }
      printf("server: %s\n", Server->stats().toString().c_str());
      printRegions(Server->numRegions(), ServerRegion);
    }
    if (DumpResidual)
      for (size_t Ord = 0; Ord != Server->numRegions(); ++Ord)
        printf("%s", Server->disassembleRegion(Ord).c_str());
    return 0;
  }

  if (Tiered) {
    if (Static || Speculate) {
      fprintf(stderr,
              "dycc: --tier is exclusive with --static/--speculate\n");
      return 2;
    }
    if (Profile) {
      fprintf(stderr, "dycc: --profile is not supported with --tier\n");
      return 2;
    }
    server::ServerConfig SCfg;
    SCfg.IC = ICCfg;
    std::unique_ptr<server::SpecServer> Server =
        Ctx.buildTiered(Flags, std::move(SCfg));
    auto ServerRegion = [&](size_t Ord) { return Server->regionStats(Ord); };
    std::unique_ptr<vm::VM> Client = Server->makeClientVM();
    if (!RunFunc.empty()) {
      int F = Server->findFunction(RunFunc);
      if (F < 0) {
        fprintf(stderr, "dycc: no function named '%s'\n", RunFunc.c_str());
        return 1;
      }
      runAndPrint(*Client, F, Ctx.module().function(F), RunFunc, RunArgs,
                  Iterations);
    }
    Server->drain();
    if (Stats) {
      printMachine(*Client);
      printf("server: %s\n", Server->stats().toString().c_str());
      printRegions(Server->numRegions(), ServerRegion);
    }
    if (DumpResidual)
      for (size_t Ord = 0; Ord != Server->numRegions(); ++Ord)
        printf("%s", Server->disassembleRegion(Ord).c_str());
    if (Advise) {
      const tier::TierController *TC = Server->tierController();
      printf("tier advisor (per-region transition evidence):\n");
      for (size_t Ord = 0; Ord != Server->numRegions(); ++Ord)
        printf("  region %zu: level %s%s\n", Ord,
               tier::tierLevelName(TC->level(Ord)),
               TC->counters(Ord).advice().c_str());
    }
    return 0;
  }

  if (Static && Speculate) {
    fprintf(stderr, "dycc: --static and --speculate are exclusive\n");
    return 2;
  }
  std::unique_ptr<core::Executable> E =
      Static ? Ctx.buildStatic(vm::CostModel(), ICCfg)
      : Speculate
          ? Ctx.buildSpeculative(speculate::SpeculationPolicy(), Flags,
                                 vm::CostModel(), ICCfg)
          : Ctx.buildDynamic(Flags, vm::CostModel(), ICCfg);

  if (DumpGenExt && E->RT) {
    for (size_t Ord = 0; Ord != E->RT->numRegions(); ++Ord)
      printf("%s", E->RT->printRegion(Ord, Ctx.module()).c_str());
  }

  profile::ValueProfiler Prof;
  if (Profile)
    Prof.attach(*E->Machine);

  if (!RunFunc.empty()) {
    int F = E->findFunction(RunFunc);
    if (F < 0) {
      fprintf(stderr, "dycc: no function named '%s'\n", RunFunc.c_str());
      return 1;
    }
    runAndPrint(*E->Machine, F, Ctx.module().function(F), RunFunc, RunArgs,
                Iterations);
  }

  // The run-time whose regions --stats, --dump-residual and --advise show.
  runtime::DycRuntime *RT =
      E->RT ? E->RT.get() : E->Spec ? &E->Spec->runtime() : nullptr;
  auto RTRegion = [&](size_t Ord) -> const runtime::RegionStats & {
    return RT->stats(Ord);
  };

  if (Stats) {
    printMachine(*E->Machine);
    if (E->Spec)
      printf("%s", E->Spec->stats().toString().c_str());
    if (RT)
      printRegions(RT->numRegions(), RTRegion);
  }

  if (DumpResidual && RT)
    for (size_t Ord = 0; Ord != RT->numRegions(); ++Ord)
      printf("%s", RT->disassembleRegion(Ord).c_str());

  if (Advise) {
    // The promotion controller's evidence, function by function: the
    // online profile (calls, per-parameter dominance) and the trial-BTA
    // structural benefit of promoting every parameter.
    speculate::SpeculativeRuntime &Spec = *E->Spec;
    const profile::ValueProfiler &P = Spec.profiler();
    printf("promotion advisor (speculative run-time evidence):\n");
    const ir::Module &M = Spec.specModule();
    for (size_t FI = 0; FI != Ctx.module().numFunctions(); ++FI) {
      const ir::Function &Fn = M.function(static_cast<int>(FI));
      if (Fn.NumParams == 0)
        continue;
      std::vector<uint32_t> All;
      for (uint32_t PI = 0; PI != Fn.NumParams; ++PI)
        All.push_back(PI);
      speculate::PromotionController::Trial T =
          Spec.controller().probe(static_cast<uint32_t>(FI), All);
      printf("  %s: %llu calls, benefit %llu (%llu data folds), "
             "static/dynamic work %llu/%llu%s\n",
             Fn.Name.c_str(),
             (unsigned long long)P.calls(static_cast<uint32_t>(FI)),
             (unsigned long long)T.Benefit,
             (unsigned long long)T.DataFolds,
             (unsigned long long)T.StaticWork,
             (unsigned long long)T.DynWork,
             Spec.ordinalOf(static_cast<uint32_t>(FI)) >= 0
                 ? "  [promoted]"
                 : "");
      for (uint32_t PI = 0; PI != Fn.NumParams; ++PI) {
        const profile::ParamProfile &PP =
            P.param(static_cast<uint32_t>(FI), PI);
        if (PP.Observations == 0 && !PP.Blacklisted)
          continue;
        printf("    %-12s %llu observations, dominance %.2f%s%s\n",
               Fn.regName(PI).c_str(),
               (unsigned long long)PP.Observations, PP.dominance(),
               PP.Overflowed ? ", overflowed" : "",
               PP.Blacklisted ? ", blacklisted" : "");
      }
    }
  }

  if (Profile) {
    std::vector<profile::Suggestion> Sugg = profile::adviseAnnotations(
        Ctx.module(), *E->Machine, Prof);
    if (Sugg.empty()) {
      printf("annotation advisor: no promising make_static candidates\n");
    } else {
      printf("annotation advisor suggestions (best first):\n");
      for (const profile::Suggestion &S : Sugg)
        printf("  %s\n", S.toString().c_str());
    }
  }
  return 0;
}
