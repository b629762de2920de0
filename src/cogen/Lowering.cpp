//===- cogen/Lowering.cpp ---------------------------------------------------------===//

#include "cogen/Lowering.h"

#include "analysis/CFG.h"
#include "analysis/Liveness.h"

#include <map>

namespace dyc {
namespace cogen {

using namespace ir;
namespace v = vm;

v::Op vmOpOf(Opcode Op) {
  switch (Op) {
#define DYC_PURE(Name, Mnemonic, Shape, OpTy, ResTy, Cost, Fault, Msg, Value)  \
  case Opcode::Name:                                                           \
    return v::Op::Name;
#include "support/OpTable.def"
  default:
    fatal("opcode has no reg-reg VM form");
  }
}

v::Op immFormOf(Opcode Op) {
  switch (Op) {
#define DYC_IMM(Name, Mnemonic, Shape, RegForm, Cost, Fault, Msg)              \
  case Opcode::RegForm:                                                        \
    return v::Op::Name;
#include "support/OpTable.def"
  default:
    return v::Op::Halt;
  }
}

bool isCommutativeOpcode(Opcode Op) {
  switch (Op) {
  case Opcode::Add: case Opcode::Mul: case Opcode::And: case Opcode::Or:
  case Opcode::Xor: case Opcode::FAdd: case Opcode::FMul:
  case Opcode::CmpEq: case Opcode::CmpNe:
    return true;
  default:
    return false;
  }
}

Opcode mirrorCompare(Opcode Op) {
  switch (Op) {
  case Opcode::CmpLt: return Opcode::CmpGt;
  case Opcode::CmpLe: return Opcode::CmpGe;
  case Opcode::CmpGt: return Opcode::CmpLt;
  case Opcode::CmpGe: return Opcode::CmpLe;
  default: return Op;
  }
}

namespace {

/// A pure operation of the op table with two operands.
bool isBinaryArith(Opcode Op) {
  const OpcodeInfo &Info = opcodeInfo(Op);
  return Info.Pure && !Info.Unary;
}

struct FunctionLowering {
  const Function &F;
  const Module &M;
  bool WithRegions;
  const bta::RegionInfo *Region;
  int Ordinal;

  v::CodeObject CO = {};
  std::vector<uint32_t> BlockPC = {};
  struct Patch {
    size_t PC;
    BlockId Target;
    bool FieldC; // patch Instr.C instead of Instr.B
  };
  std::vector<Patch> Patches = {};

  uint32_t StageBase = 0, Scratch0 = 0, Scratch1 = 0;

  void computeLayout() {
    uint32_t MaxArgs = 0;
    for (const BasicBlock &BB : F.Blocks)
      for (const Instruction &I : BB.Instrs)
        if (I.Op == Opcode::Call || I.Op == Opcode::CallExt)
          MaxArgs = std::max(MaxArgs,
                             static_cast<uint32_t>(I.Args.size()));
    StageBase = F.numRegs();
    Scratch0 = StageBase + MaxArgs;
    Scratch1 = Scratch0 + 1;
    CO.NumRegs = Scratch1 + 1;
  }

  void emit(v::Instr I) { CO.Code.push_back(I); }

  /// Emits the exact shift sequence for division/remainder by the
  /// power-of-two \p Imm (C semantics: truncation toward zero, so
  /// negative dividends need the bias fixup):
  ///   bias = (x >> 63) & (Imm - 1);  q = (x + bias) >> log2(Imm)
  ///   r = x - (q << log2(Imm))
  void emitExactDivRem(bool WantRem, uint32_t Dst, uint32_t Src,
                       int64_t Imm) {
    unsigned K = log2OfPow2(Imm);
    emit({v::Op::ShrI, Scratch0, Src, 0, 63});
    emit({v::Op::AndI, Scratch0, Scratch0, 0, Imm - 1});
    emit({v::Op::Add, Scratch0, Src, Scratch0});
    if (!WantRem) {
      emit({v::Op::ShrI, Dst, Scratch0, 0, (int64_t)K});
      return;
    }
    emit({v::Op::ShrI, Scratch0, Scratch0, 0, (int64_t)K});
    emit({v::Op::ShlI, Scratch0, Scratch0, 0, (int64_t)K});
    emit({v::Op::Sub, Dst, Src, Scratch0});
  }

  void run() {
    computeLayout();
    CO.Name = F.Name;

    analysis::CFG G(F);
    analysis::Liveness LV(F, G);

    BlockPC.assign(F.numBlocks(), 0);
    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      BlockPC[B] = static_cast<uint32_t>(CO.Code.size());
      lowerBlock(B, LV);
    }
    for (const Patch &P : Patches) {
      v::Instr &I = CO.Code[P.PC];
      if (P.FieldC)
        I.C = BlockPC[P.Target];
      else
        I.B = BlockPC[P.Target];
    }
  }

  void lowerBlock(BlockId B, const analysis::Liveness &LV) {
    const BasicBlock &BB = F.block(B);

    // Block-local constant map and fold planning.
    struct ConstDef {
      Word Val;
      size_t DefIdx;
      bool IsFloat;
    };
    std::map<Reg, ConstDef> Consts;
    std::vector<uint8_t> FoldSrc1(BB.Instrs.size(), 0);
    std::vector<uint8_t> FoldSrc2(BB.Instrs.size(), 0);
    std::vector<uint8_t> ConstNeeded(BB.Instrs.size(), 0);

    auto MarkUse = [&](Reg R) {
      auto It = Consts.find(R);
      if (It != Consts.end())
        ConstNeeded[It->second.DefIdx] = 1;
    };

    for (size_t Idx = 0; Idx != BB.Instrs.size(); ++Idx) {
      const Instruction &I = BB.Instrs[Idx];
      if (isBinaryArith(I.Op) && immFormOf(I.Op) != v::Op::Halt) {
        bool C2 = Consts.count(I.Src2) != 0;
        bool C1 = Consts.count(I.Src1) != 0;
        // Float imm forms carry double bit patterns; int forms int values.
        if (C2) {
          FoldSrc2[Idx] = 1;
        } else if (C1 && (isCommutativeOpcode(I.Op) ||
                          mirrorCompare(I.Op) != I.Op)) {
          FoldSrc1[Idx] = 1;
        }
        if (!FoldSrc1[Idx])
          MarkUse(I.Src1);
        if (!FoldSrc2[Idx])
          MarkUse(I.Src2);
      } else if (I.Op == Opcode::Load && Consts.count(I.Src1)) {
        FoldSrc1[Idx] = 1;
      } else if (I.Op == Opcode::Store && Consts.count(I.Src1)) {
        FoldSrc1[Idx] = 1;
        MarkUse(I.Src2);
      } else if (I.Op == Opcode::Mov && Consts.count(I.Src1)) {
        // Re-materialized as a constant; the source constant is not read.
      } else if (I.Op == Opcode::Call || I.Op == Opcode::CallExt) {
        // Constant arguments are materialized directly into the staging
        // area; the defining constant instruction is not read.
        for (Reg U : I.Args)
          if (!Consts.count(U))
            MarkUse(U);
      } else {
        I.forEachUse(MarkUse);
      }
      if (I.definesReg()) {
        Consts.erase(I.Dst);
        if (I.Op == Opcode::ConstI)
          Consts[I.Dst] = {Word::fromInt(I.Imm), Idx, false};
        else if (I.Op == Opcode::ConstF)
          Consts[I.Dst] =
              {Word{static_cast<uint64_t>(I.Imm)}, Idx, true};
      }
    }
    // A constant that is live out of the block must be materialized.
    const BitVector &LiveOut = LV.liveOut(B);
    for (auto &[R, CD] : Consts)
      if (LiveOut.test(R))
        ConstNeeded[CD.DefIdx] = 1;
    // Re-walk to know, at each use point, the folded value (consts map was
    // mutated; rebuild on the emission pass).
    Consts.clear();

    for (size_t Idx = 0; Idx != BB.Instrs.size(); ++Idx) {
      const Instruction &I = BB.Instrs[Idx];
      switch (I.Op) {
      case Opcode::ConstI:
        if (ConstNeeded[Idx])
          emit({v::Op::ConstI, I.Dst, 0, 0, I.Imm});
        Consts.erase(I.Dst);
        Consts[I.Dst] = {Word::fromInt(I.Imm), Idx, false};
        continue;
      case Opcode::ConstF:
        if (ConstNeeded[Idx])
          emit({v::Op::ConstF, I.Dst, 0, 0, I.Imm});
        Consts.erase(I.Dst);
        Consts[I.Dst] = {Word{static_cast<uint64_t>(I.Imm)}, Idx, true};
        continue;
      case Opcode::Mov:
        if (auto It = Consts.find(I.Src1); It != Consts.end()) {
          emit({It->second.IsFloat ? v::Op::ConstF : v::Op::ConstI, I.Dst,
                0, 0, static_cast<int64_t>(It->second.Val.Bits)});
        } else {
          emit({I.Ty == Type::F64 ? v::Op::FMov : v::Op::Mov, I.Dst,
                I.Src1});
        }
        break;
      case Opcode::Load:
        if (FoldSrc1[Idx])
          emit({v::Op::LoadAbs, I.Dst, 0, 0,
                wrapAdd(Consts[I.Src1].Val.asInt(), I.Imm)});
        else
          emit({v::Op::Load, I.Dst, I.Src1, 0, I.Imm});
        break;
      case Opcode::Store:
        if (FoldSrc1[Idx])
          emit({v::Op::StoreAbs, I.Src2, 0, 0,
                wrapAdd(Consts[I.Src1].Val.asInt(), I.Imm)});
        else
          emit({v::Op::Store, I.Src2, I.Src1, 0, I.Imm});
        break;
      case Opcode::Call:
      case Opcode::CallExt: {
        for (size_t A = 0; A != I.Args.size(); ++A) {
          Reg Src = I.Args[A];
          uint32_t Dst = StageBase + static_cast<uint32_t>(A);
          if (auto It = Consts.find(Src); It != Consts.end()) {
            emit({It->second.IsFloat ? v::Op::ConstF : v::Op::ConstI, Dst,
                  0, 0, static_cast<int64_t>(It->second.Val.Bits)});
          } else if (Src != Dst) {
            bool IsF = F.regType(Src) == Type::F64;
            emit({IsF ? v::Op::FMov : v::Op::Mov, Dst, Src});
          }
        }
        emit({I.Op == Opcode::Call ? v::Op::Call : v::Op::CallExt,
              I.Dst == NoReg ? v::NoReg : I.Dst, StageBase,
              static_cast<uint32_t>(I.Args.size()), I.Callee});
        break;
      }
      case Opcode::Br:
        Patches.push_back({CO.Code.size(), I.TrueSucc, false});
        emit({v::Op::Br, 0, 0});
        break;
      case Opcode::CondBr:
        Patches.push_back({CO.Code.size(), I.TrueSucc, false});
        Patches.push_back({CO.Code.size(), I.FalseSucc, true});
        emit({v::Op::CondBr, I.Src1, 0, 0});
        break;
      case Opcode::Ret:
        emit({v::Op::Ret, I.Src1 == NoReg ? v::NoReg : I.Src1});
        break;
      case Opcode::MakeStatic: {
        if (!WithRegions)
          continue; // static compile: annotation ignored
        assert(Region && "annotated function lowered without region info");
        // Find the native-entry promotion for this block.
        int PromoId = -1;
        for (uint32_t PId : Region->NativeEntries)
          if (Region->Promos[PId].Block == B)
            PromoId = static_cast<int>(PId);
        assert(PromoId >= 0 && "make_static block has no native entry");
        int64_t Encoded = (static_cast<int64_t>(Ordinal) << 16) | PromoId;
        emit({v::Op::EnterRegion, 0, 0, 0, Encoded});
        return; // the rest of the block belongs to the region
      }
      case Opcode::MakeDynamic:
        continue;
      default: {
        assert(opcodeInfo(I.Op).Pure && "unhandled opcode in lowering");
        if (opcodeInfo(I.Op).Unary) {
          emit({vmOpOf(I.Op), I.Dst, I.Src1});
          break;
        }
        // Binary arithmetic / comparison.
        if (FoldSrc2[Idx]) {
          int64_t Imm = static_cast<int64_t>(Consts[I.Src2].Val.Bits);
          // Strength-reduce constant power-of-two multiply/divide/
          // remainder exactly, as an optimizing static compiler would.
          if (I.Op == Opcode::Mul && isPowerOf2(Imm)) {
            emit({v::Op::ShlI, I.Dst, I.Src1, 0,
                  (int64_t)log2OfPow2(Imm)});
            break;
          }
          if ((I.Op == Opcode::Div || I.Op == Opcode::Rem) &&
              isPowerOf2(Imm) && Imm >= 2) {
            emitExactDivRem(I.Op == Opcode::Rem, I.Dst, I.Src1, Imm);
            break;
          }
          emit({immFormOf(I.Op), I.Dst, I.Src1, 0, Imm});
        } else if (FoldSrc1[Idx]) {
          Opcode Op2 = isCommutativeOpcode(I.Op) ? I.Op : mirrorCompare(I.Op);
          emit({immFormOf(Op2), I.Dst, I.Src2, 0,
                static_cast<int64_t>(Consts[I.Src1].Val.Bits)});
        } else {
          emit({vmOpOf(I.Op), I.Dst, I.Src1, I.Src2});
        }
        break;
      }
      }
      if (I.definesReg())
        Consts.erase(I.Dst);
    }
  }
};

} // namespace

std::vector<LoweredFunction>
lowerModule(const Module &M, vm::Program &Prog, bool WithRegions,
            const std::vector<bta::RegionInfo> &Regions,
            const std::vector<int> &AnnotatedOrdinal) {
  assert(Regions.size() == M.numFunctions() &&
         AnnotatedOrdinal.size() == M.numFunctions() &&
         "per-function tables must parallel the module");
  std::vector<LoweredFunction> Out;
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    const Function &F = M.function(static_cast<int>(FI));
    FunctionLowering L{F, M, WithRegions,
                       Regions[FI].Contexts.empty() ? nullptr : &Regions[FI],
                       AnnotatedOrdinal[FI]};
    L.run();
    LoweredFunction R;
    R.VMIndex = Prog.addFunction(std::move(L.CO));
    assert(R.VMIndex == FI && "VM function indices must mirror the module");
    R.BlockPC = std::move(L.BlockPC);
    R.StageBase = L.StageBase;
    R.Scratch0 = L.Scratch0;
    R.Scratch1 = L.Scratch1;
    Out.push_back(std::move(R));
  }
  return Out;
}

LoweredFunction lowerFunction(const ir::Function &F, const ir::Module &M,
                              vm::Program &Prog, bool WithRegions,
                              const bta::RegionInfo *Region, int Ordinal,
                              const std::string &CodeName) {
  FunctionLowering L{F, M, WithRegions,
                     Region && !Region->Contexts.empty() ? Region : nullptr,
                     Ordinal};
  L.run();
  if (!CodeName.empty())
    L.CO.Name = CodeName;
  LoweredFunction R;
  R.VMIndex = Prog.addFunction(std::move(L.CO));
  R.BlockPC = std::move(L.BlockPC);
  R.StageBase = L.StageBase;
  R.Scratch0 = L.Scratch0;
  R.Scratch1 = L.Scratch1;
  return R;
}

namespace {

/// A declaration's type as MiniC spells it (pointers lower to int).
const char *sourceTypeName(ir::Type T) {
  switch (T) {
  case ir::Type::Void:
    return "void";
  case ir::Type::I64:
    return "int";
  case ir::Type::F64:
    return "double";
  }
  return "?";
}

/// The IR type of what a host function returns.
ir::Type resultType(const vm::ExternalFunction &F) {
  return F.Result == vm::ExtResult::Double ? ir::Type::F64 : ir::Type::I64;
}

/// The host functions a module's externals bind to.
const vm::ExternalRegistry &hostCatalog() {
  static const vm::ExternalRegistry Catalog = [] {
    vm::ExternalRegistry R;
    R.addStandardMath();
    return R;
  }();
  return Catalog;
}

} // namespace

bool checkExternals(const ir::Module &M, std::vector<std::string> &Errors) {
  const vm::ExternalRegistry &Catalog = hostCatalog();
  bool Ok = true;
  for (size_t E = 0; E != M.numExternals(); ++E) {
    const ExternalDecl &D = M.external(static_cast<int>(E));
    std::string Where = D.Line ? formatString("line %u: ", D.Line) : "";
    int Idx = Catalog.find(D.Name);
    if (Idx < 0) {
      Errors.push_back(Where + "no host implementation for external '" +
                       D.Name + "'");
      Ok = false;
      continue;
    }
    const vm::ExternalFunction &Host =
        Catalog.get(static_cast<unsigned>(Idx));
    if (Host.NumArgs != D.NumArgs) {
      Errors.push_back(Where +
                       formatString("external '%s' is declared with %u "
                                    "parameter%s, but its host "
                                    "implementation takes %u",
                                    D.Name.c_str(), D.NumArgs,
                                    D.NumArgs == 1 ? "" : "s", Host.NumArgs));
      Ok = false;
      continue;
    }
    ir::Type HostTy = resultType(Host);
    if (HostTy != D.RetTy) {
      Errors.push_back(Where + formatString("external '%s' is declared to "
                                            "return %s, but its host "
                                            "implementation returns %s",
                                            D.Name.c_str(),
                                            sourceTypeName(D.RetTy),
                                            sourceTypeName(HostTy)));
      Ok = false;
    }
  }
  return Ok;
}

void bindExternals(const ir::Module &M, vm::Program &Prog) {
  const vm::ExternalRegistry &Catalog = hostCatalog();
  for (size_t E = 0; E != M.numExternals(); ++E) {
    const ExternalDecl &D = M.external(static_cast<int>(E));
    int Idx = Catalog.find(D.Name);
    assert(Idx >= 0 && "external without a host implementation");
    const vm::ExternalFunction &Impl =
        Catalog.get(static_cast<unsigned>(Idx));
    assert(Impl.NumArgs == D.NumArgs && "external arity mismatch");
    assert(resultType(Impl) == D.RetTy && "external return type mismatch");
    unsigned Bound = Prog.Externals.add(Impl);
    assert(Bound == E && "external indices must mirror the module");
    (void)Bound;
  }
}

} // namespace cogen
} // namespace dyc
