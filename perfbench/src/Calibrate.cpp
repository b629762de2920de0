//===- perfbench/src/Calibrate.cpp -----------------------------------------===//

#include "Calibrate.h"
#include "Util.h"

#include <cmath>
#include <memory>
#include <string>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr size_t ProgramLen = 512;
constexpr size_t MemoryWords = 1 << 14; // 128 KB, like a program's data
constexpr unsigned InterpPasses = 24;
constexpr size_t HeapNodes = 160;
constexpr size_t ZeroWords = 1 << 17; // 1 MB

// Keeps the loops' results alive; one per thread, since every server
// client calibrates on its own.
thread_local volatile uint64_t Sink;

} // namespace

// Each loop's median time on a 4-vCPU Xeon host while it was quiet, run
// between steady-state batches.
const std::array<double, NumKinds> Calibrator::NominalNs = {36000, 70000,
                                                            41000};

Calibrator::Calibrator() {
  Rng R(0xca11b7a7eULL);
  for (size_t I = 0; I != ProgramLen; ++I) {
    Instr In;
    In.Op = static_cast<uint8_t>(R.below(8));
    In.A = static_cast<uint8_t>(R.below(16));
    In.B = static_cast<uint8_t>(R.below(16));
    In.C = static_cast<uint8_t>(R.below(16));
    In.Imm = static_cast<int32_t>(In.Op == 4 ? 1 + R.below(3) : R.below(4096));
    Program.push_back(In);
  }
  Memory.resize(MemoryWords);
  for (uint64_t &W : Memory)
    W = R.below(1000);
  for (size_t I = 0; I != HeapNodes * 4; ++I)
    Keys.push_back(static_cast<uint32_t>(R.below(HeapNodes)));
}

void Calibrator::sample() {
  // An interpreter over predecoded instructions with data-dependent loads,
  // stores and branches.
  uint64_t T0 = nowNs();
  {
    // Unsigned, so that sums and products wrap instead of overflowing.
    uint64_t Reg[16] = {};
    for (unsigned P = 0; P != InterpPasses; ++P)
      for (size_t PC = 0; PC < ProgramLen; ++PC) {
        const Instr &In = Program[PC];
        switch (In.Op) {
        case 0: Reg[In.A] = Reg[In.B] + Reg[In.C]; break;
        case 1: Reg[In.A] = Reg[In.B] ^ (Reg[In.C] >> 3); break;
        case 2:
          Reg[In.A] = Memory[static_cast<size_t>(Reg[In.B] + In.Imm) &
                             (MemoryWords - 1)];
          break;
        case 3:
          Memory[static_cast<size_t>(Reg[In.B] + In.Imm) &
                 (MemoryWords - 1)] = Reg[In.A];
          break;
        case 4:
          if (Reg[In.A] & 1)
            PC += static_cast<size_t>(In.Imm);
          break;
        case 5: Reg[In.A] = Reg[In.B] * 3 + In.Imm; break;
        case 6: Reg[In.A] = In.Imm; break;
        default: Reg[In.A] = Reg[In.B] - Reg[In.C]; break;
        }
      }
    Sink = Reg[0] + Reg[7];
  }
  // Small named heap objects, built, looked up by name and freed.
  uint64_t T1 = nowNs();
  {
    struct Node {
      std::string Name;
      std::vector<uint32_t> Uses;
    };
    std::vector<std::unique_ptr<Node>> Nodes;
    std::unordered_map<std::string, size_t> ByName;
    for (size_t I = 0; I != HeapNodes; ++I) {
      auto N = std::make_unique<Node>();
      N->Name = "value_" + std::to_string(I * 7919) + "_of_block";
      for (size_t U = 0; U != 4; ++U)
        N->Uses.push_back(Keys[I * 4 + U]);
      ByName.emplace(N->Name, I);
      Nodes.push_back(std::move(N));
    }
    uint64_t Sum = 0;
    for (const auto &N : Nodes)
      for (uint32_t U : N->Uses)
        Sum += ByName.at(Nodes[U]->Name);
    Sink = Sum;
  }
  // A fresh zeroed buffer.
  uint64_t T2 = nowNs();
  {
    std::vector<uint64_t> Buf(ZeroWords);
    Sink = Buf[static_cast<size_t>(Sink) % ZeroWords];
  }
  uint64_t T3 = nowNs();
  const uint64_t Ts[] = {T0, T1, T2, T3};
  for (size_t K = 0; K != NumKinds; ++K) {
    std::vector<double> &V = Recent[K];
    if (V.size() == Window)
      V.erase(V.begin());
    V.push_back(static_cast<double>(Ts[K + 1] - Ts[K]));
  }
}

double Calibrator::slowdown(const Mix &M) const {
  double LogSum = 0;
  for (size_t K = 0; K != NumKinds; ++K)
    if (M[K] != 0 && !Recent[K].empty())
      LogSum += M[K] * std::log(median(Recent[K]) / NominalNs[K]);
  return std::exp(LogSum);
}

} // namespace perfbench
