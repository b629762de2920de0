//===- workloads/Mipsi.cpp - MIPS R3000 simulation framework -----------------------===//
//
// mipsi interprets its input program; DyC specializes the interpreter for
// that program (Table 1: "its input program" = bubble sort). Multi-way
// complete loop unrolling over the static program counter effectively
// *compiles* the interpreted program: instruction fetches become static
// loads, decode logic folds away, and the address-translation routine is
// a static call memoized at dynamic-compile time (section 4.4.1). This is
// the paper's biggest speedup (5.0x region, 4.6x whole-program).
//
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

namespace dyc {
namespace workloads {

namespace {

const char *Source = R"(
/* Simple page-table address translation for instruction fetch; pure, so
   calls with static arguments run (memoized) at dynamic-compile time. */
pure int xlate(int* ptab, int vaddr) {
  return ptab[vaddr >> 6] + (vaddr & 63);
}

/* The interpreter. ISA (4 words per instruction):
   op: 0=li(a,c) 1=add(a,b,c) 2=ld(a,[rb+c]) 3=st([ra+c],rb)
       4=blt(ra<rb -> c) 5=jmp(c) 6=addi(a,b,c) 7=bge(ra>=rb -> c)
       8=halt */
int mipsi_run(int* prog, int nprog, int* ptab, int* mem, int* init,
              int nmem, int* regs) {
  /* reset simulated data memory from the pristine image (dynamic work,
     identical in both configurations) */
  int k;
  for (k = 0; k < nmem; k = k + 1) {
    mem[k] = init[k];
  }

  int pc = 0;
  make_static(prog, nprog, ptab, pc);
  while (pc < nprog) {               /* multi-way unrolled over pc */
    int base = xlate(ptab, pc) * 4;  /* static call, memoized */
    int op = prog@[base];            /* static loads: the fetch+decode */
    int a  = prog@[base + 1];
    int b  = prog@[base + 2];
    int c  = prog@[base + 3];
    if (op == 0) { regs[a] = c; pc = pc + 1; }
    else { if (op == 1) { regs[a] = regs[b] + regs[c]; pc = pc + 1; }
    else { if (op == 2) { regs[a] = mem[regs[b] + c]; pc = pc + 1; }
    else { if (op == 3) { mem[regs[a] + c] = regs[b]; pc = pc + 1; }
    else { if (op == 4) { if (regs[a] < regs[b]) { pc = c; } else { pc = pc + 1; } }
    else { if (op == 5) { pc = c; }
    else { if (op == 6) { regs[a] = regs[b] + c; pc = pc + 1; }
    else { if (op == 7) { if (regs[a] < regs[b]) { pc = pc + 1; } else { pc = c; } }
    else { pc = nprog; } } } } } } } }
  }
  return regs[2];
}
)";

void putInstr(vm::Memory &Mem, int64_t Prog, int Idx, int64_t Op,
              int64_t A, int64_t B, int64_t C) {
  Mem[Prog + Idx * 4 + 0] = Word::fromInt(Op);
  Mem[Prog + Idx * 4 + 1] = Word::fromInt(A);
  Mem[Prog + Idx * 4 + 2] = Word::fromInt(B);
  Mem[Prog + Idx * 4 + 3] = Word::fromInt(C);
}

} // namespace

Workload makeMipsi() {
  Workload W;
  W.Name = "mipsi";
  W.Description = "MIPS R3000 simulator";
  W.StaticVars = "its input program";
  W.StaticVals = "bubble sort";
  W.IsKernel = false;
  W.Source = Source;
  W.RegionFunc = "mipsi_run";
  W.MainFunc = "mipsi_run"; // the whole program IS the interpreter run
  W.RegionInvocations = 10;
  W.Setup = [](vm::VM &M) {
    WorkloadSetup S;
    const int NElems = 24;
    int64_t Prog = M.allocMemory(64 * 4);
    int64_t PTab = M.allocMemory(8);
    int64_t Mem0 = M.allocMemory(NElems + 4);
    int64_t Init = M.allocMemory(NElems + 4);
    int64_t Regs = M.allocMemory(16);
    auto &Mem = M.memory();
    // Identity page table (one 64-entry page).
    for (int I = 0; I != 8; ++I)
      Mem[PTab + I] = Word::fromInt(I * 64);
    DeterministicRNG RNG(0x317051);
    for (int I = 0; I != NElems; ++I)
      Mem[Init + I] =
          Word::fromInt(static_cast<int64_t>(RNG.nextBelow(1000)));

    // Bubble sort over mem[0..NElems):
    //   r1=i r2=j r3=n r4=a[j] r5=a[j+1] r6=one r7=n-1 r8=i+j
    int N = 0;
    putInstr(Mem, Prog, N++, 0, 3, 0, NElems); //  0: li   r3, n
    putInstr(Mem, Prog, N++, 0, 6, 0, 1);      //  1: li   r6, 1
    putInstr(Mem, Prog, N++, 0, 1, 0, 0);      //  2: li   r1, 0   (i)
    putInstr(Mem, Prog, N++, 6, 7, 3, -1);     //  3: addi r7, r3, -1
    putInstr(Mem, Prog, N++, 7, 1, 7, 17);     //  4: bge  i, r7 -> 17
    putInstr(Mem, Prog, N++, 0, 2, 0, 0);      //  5: li   r2, 0   (j)
    putInstr(Mem, Prog, N++, 1, 8, 1, 2);      //  6: add  r8, i, j
    putInstr(Mem, Prog, N++, 7, 8, 7, 15);     //  7: bge  r8, r7 -> 15
    putInstr(Mem, Prog, N++, 2, 4, 2, 0);      //  8: ld   r4, [j+0]
    putInstr(Mem, Prog, N++, 2, 5, 2, 1);      //  9: ld   r5, [j+1]
    putInstr(Mem, Prog, N++, 4, 4, 5, 13);     // 10: blt  r4, r5 -> 13
    putInstr(Mem, Prog, N++, 3, 2, 5, 0);      // 11: st   [j+0], r5
    putInstr(Mem, Prog, N++, 3, 2, 4, 1);      // 12: st   [j+1], r4
    putInstr(Mem, Prog, N++, 1, 2, 2, 6);      // 13: add  j, j, 1
    putInstr(Mem, Prog, N++, 5, 0, 0, 6);      // 14: jmp  6
    putInstr(Mem, Prog, N++, 1, 1, 1, 6);      // 15: add  i, i, 1
    putInstr(Mem, Prog, N++, 5, 0, 0, 3);      // 16: jmp  3
    putInstr(Mem, Prog, N++, 8, 0, 0, 0);      // 17: halt

    S.RegionArgs = {Word::fromInt(Prog), Word::fromInt(N),
                    Word::fromInt(PTab), Word::fromInt(Mem0),
                    Word::fromInt(Init), Word::fromInt(NElems),
                    Word::fromInt(Regs)};
    S.MainArgs = S.RegionArgs;
    // One invocation interprets the whole program.
    S.UnitsPerInvocation = NElems * NElems * 4.0; // ~simulated instructions
    S.UnitName = "simulated instructions";
    S.OutBase = Mem0;
    S.OutLen = NElems;
    return S;
  };
  return W;
}

} // namespace workloads
} // namespace dyc
