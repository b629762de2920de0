//===- workloads/M88ksim.cpp - Motorola 88000 simulator (SPEC95) -------------------===//
//
// The paper dynamically compiles one routine of m88ksim: ckbrkpts, the
// breakpoint check executed once per simulated instruction, specialized
// on the (usually empty) breakpoint table. With the SPEC input there are
// no breakpoints, so the entire scan folds away (Table 3: 6 instructions
// generated). The cache_one_unchecked policy is essential here — the
// region is entered per simulated instruction, and a hashed dispatch per
// entry would erase the win (section 4.4.3).
//
//===----------------------------------------------------------------------===//

#include "workloads/Workload.h"

namespace dyc {
namespace workloads {

namespace {

const char *Source = R"(
/* Breakpoint table: 6 fixed slots of (enabled, address) pairs, as in
   m88ksim's fixed-size bp table. */
int ckbrkpts(int* bkpts, int pc) {
  int i;
  int hit = 0;
  make_static(bkpts, i : cache_one_unchecked);
  for (i = 0; i < 6; i = i + 1) {        /* unrolled (static bound) */
    int en = bkpts@[i * 2];              /* static load */
    if (en == 1) {                       /* folds at specialize time */
      hit = hit | (bkpts@[i * 2 + 1] == pc);
    }
  }
  return hit;
}

/* The surrounding simulator: a small 88k-flavored interpreter that calls
   ckbrkpts for every instruction it executes (the paper's usage). It is
   NOT annotated; only ckbrkpts is dynamically compiled, which is why
   m88ksim spends just ~10% of its time in the dynamic region (Table 4).
   ISA: op r[a], r[b], r[c]; encoded as 4 words per instruction.
   op: 0=li(a,imm) 1=add 2=sub 3=mul 4=ld(a,[b+imm]) 5=st([a+imm],b)
       6=bcnd(a!=0 -> imm) 7=br(imm) 8=halt */
int m88k_run(int* text, int ntext, int* data, int* regs, int* bkpts,
             int* pipe, int maxsteps) {
  int pc = 0;
  int steps = 0;
  int stopped = 0;
  while (stopped == 0) {
    if (ckbrkpts(bkpts, pc) == 1) { stopped = 1; }
    if (stopped == 0) {
      int base = pc * 4;
      int op = text[base];
      int a = text[base + 1];
      int b = text[base + 2];
      int c = text[base + 3];
      /* pipeline timing model: advance 8 stages, check a RAW hazard
         against the two most recent writers (m88ksim models the 88100
         pipeline in detail; this is the analogous per-instruction cost) */
      int st;
      int stall = 0;
      for (st = 0; st < 8; st = st + 1) {
        pipe[st] = pipe[st + 1];
        if (pipe[st] == a) { stall = stall + 1; }
      }
      pipe[8] = b;
      pipe[9] = c;
      data[66] = data[66] + stall;
      if (op == 0) { regs[a] = c; pc = pc + 1; }
      else { if (op == 1) { regs[a] = regs[b] + regs[c]; pc = pc + 1; }
      else { if (op == 2) { regs[a] = regs[b] - regs[c]; pc = pc + 1; }
      else { if (op == 3) { regs[a] = regs[b] * regs[c]; pc = pc + 1; }
      else { if (op == 4) { regs[a] = data[regs[b] + c]; pc = pc + 1; }
      else { if (op == 5) { data[regs[a] + c] = regs[b]; pc = pc + 1; }
      else { if (op == 6) { if (regs[a] != 0) { pc = c; } else { pc = pc + 1; } }
      else { if (op == 7) { pc = c; }
      else { stopped = 1; } } } } } } } }
      steps = steps + 1;
      if (steps >= maxsteps) { stopped = 1; }
      if (pc >= ntext) { stopped = 1; }
    }
  }
  return steps;
}
)";

/// Encodes one simulator instruction.
void putInstr(vm::Memory &Mem, int64_t Text, int Idx, int64_t Op,
              int64_t A, int64_t B, int64_t C) {
  Mem[Text + Idx * 4 + 0] = Word::fromInt(Op);
  Mem[Text + Idx * 4 + 1] = Word::fromInt(A);
  Mem[Text + Idx * 4 + 2] = Word::fromInt(B);
  Mem[Text + Idx * 4 + 3] = Word::fromInt(C);
}

} // namespace

Workload makeM88ksim() {
  Workload W;
  W.Name = "m88ksim";
  W.Description = "Motorola 88000 simulator";
  W.StaticVars = "an array of breakpoints";
  W.StaticVals = "no breakpoints";
  W.IsKernel = false;
  W.Source = Source;
  W.RegionFunc = "ckbrkpts";
  W.MainFunc = "m88k_run";
  W.RegionInvocations = 300;
  W.Setup = [](vm::VM &M) {
    WorkloadSetup S;
    int64_t Bkpts = M.allocMemory(16); // 8 (enabled, addr) slots
    auto &Mem = M.memory();
    for (int I = 0; I != 16; ++I)
      Mem[Bkpts + I] = Word::fromInt(0); // SPEC input: no breakpoints

    // The simulated program: checksum over a data array with an inner
    // scale loop — enough work that m88k_run dominates execution.
    const int NData = 64;
    int64_t Text = M.allocMemory(64 * 4);
    int64_t Data = M.allocMemory(NData + 8);
    int64_t Regs = M.allocMemory(16);
    int64_t Pipe = M.allocMemory(12);
    DeterministicRNG RNG(0x88000);
    for (int I = 0; I != NData; ++I)
      Mem[Data + I] = Word::fromInt(static_cast<int64_t>(RNG.nextBelow(97)));
    for (int I = 0; I != 16; ++I)
      Mem[Regs + I] = Word::fromInt(0);
    // r1 = i, r2 = sum, r3 = limit, r4 = tmp, r5 = const 1
    int N = 0;
    putInstr(Mem, Text, N++, 0, 1, 0, 0);      // li r1, 0
    putInstr(Mem, Text, N++, 0, 2, 0, 0);      // li r2, 0
    putInstr(Mem, Text, N++, 0, 3, 0, NData);  // li r3, NData
    putInstr(Mem, Text, N++, 0, 5, 0, 1);      // li r5, 1
    int Loop = N;
    putInstr(Mem, Text, N++, 4, 4, 1, 0);      // ld r4, [r1+0]
    putInstr(Mem, Text, N++, 3, 4, 4, 4);      // mul r4, r4, r4
    putInstr(Mem, Text, N++, 1, 2, 2, 4);      // add r2, r2, r4
    putInstr(Mem, Text, N++, 1, 1, 1, 5);      // add r1, r1, r5
    putInstr(Mem, Text, N++, 2, 4, 3, 1);      // sub r4, r3, r1
    putInstr(Mem, Text, N++, 6, 4, 0, Loop);   // bcnd r4 != 0 -> Loop
    putInstr(Mem, Text, N++, 5, 6, 2, NData);  // st [r6+NData], r2
    putInstr(Mem, Text, N++, 8, 0, 0, 0);      // halt

    S.RegionArgs = {Word::fromInt(Bkpts), Word::fromInt(4096)};
    S.MainArgs = {Word::fromInt(Text),  Word::fromInt(N),
                  Word::fromInt(Data),  Word::fromInt(Regs),
                  Word::fromInt(Bkpts), Word::fromInt(Pipe),
                  Word::fromInt(100000)};
    S.UnitsPerInvocation = 1;
    S.UnitName = "breakpoint checks";
    S.OutBase = Data + NData;
    S.OutLen = 1;
    return S;
  };
  return W;
}

} // namespace workloads
} // namespace dyc
