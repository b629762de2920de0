//===- vm/Decoded.h - Predecoded translation cache -------------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM's staged execution substrate: a per-CodeObject translation built
/// lazily on first execution, mirroring DyC's own set-up-once/run-many
/// story at the host level. A translation lowers the bytecode into
///
///  * a decoded instruction stream — one fixed-size DecodedInstr per PC
///    with a resolved handler index, copied operands, the precomputed
///    CostModel charge, and quickened superinstructions for the
///    straight-line idioms the specializer emits (ConstI feeding Add,
///    Mov before Br, hole-patched ConstI runs, compare-and-branch); and
///
///  * basic-block "superblocks" — per-block cycle sums, instruction
///    counts, and I-cache line segments whose set index and tag are split
///    from the address at translation time under the VM's I-cache
///    geometry, so the hot loop checks fuel once per block and charges
///    its cycles and fetches in one step (ICache::chargeBlock) while
///    reproducing the per-instruction engine's counters bit-identically.
///
/// Invalidation contract: translations are keyed by the CodeObject's
/// simulated BaseAddr — Program::allocCodeAddr never reuses addresses, so
/// a freed chain's stale translation can never be reached by a new chain —
/// and validated against (Code.size(), Version). The Emitter bumps Version
/// whenever it rewrites already-emitted instructions, and the inline
/// runtime eagerly drops translations of chains it unpublishes (capacity
/// eviction and one-slot displacement). Entering code mid-block (a
/// Dispatch target or ExitRegion resume offset decode didn't predict)
/// promotes that PC to a block leader and re-translates, so steady-state
/// execution is always on the superblock fast path.
///
/// Translations of generated code are shared: every VM of one front end
/// connects to its core's SharedTranslations table, the first VM to
/// translate a chain publishes that translation, and every other VM adopts
/// it on first touch instead of translating again. Shared translations are
/// validated by exactly the same (BaseAddr, CodeSize, Version) rules, so
/// the invalidation contract is unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_VM_DECODED_H
#define DYC_VM_DECODED_H

#include "vm/Bytecode.h"
#include "vm/CostModel.h"
#include "vm/ICache.h"

#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

namespace dyc {
namespace vm {

/// Decoded handler opcodes. The first block mirrors Op one-to-one (same
/// order, expanded from the same op table); quickened superinstructions
/// follow.
enum class DOp : uint16_t {
#define DYC_OP(Name, Mnemonic, Shape, Cost) Name,
#include "support/OpTable.def"
  // --- Superinstructions (each executes two original instructions) ------
  ConstIConstI, ///< back-to-back constant materializations (hole-patched
                ///< ConstI runs from the Emitter)
  ConstIAdd,    ///< ConstI into a scratch register feeding an Add
  MovBr,        ///< register copy falling into an unconditional branch
  CmpICondBr,   ///< reg-imm compare feeding CondBr; X holds its Op
  CmpCondBr,    ///< reg-reg compare (integer or floating) feeding CondBr;
                ///< X as above
  ConstIDispatch, ///< constant materialization falling into the region
                  ///< trap (the promoted key's last ConstI before a
                  ///< Dispatch/EnterRegion)
  NumHandlers
};

/// One predecoded instruction: resolved handler plus copied operands and
/// the precomputed execution-cost charge. Superinstruction handlers read
/// the second fused instruction's operands from the next slot (the stream
/// stays parallel to the bytecode, so mid-stream entry is always valid).
struct DecodedInstr {
  uint16_t H = 0; ///< DOp
  uint16_t X = 0; ///< handler-specific extra (a fused compare's Op)
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t C = 0;
  uint32_t Cost = 0; ///< CostModel::costOf(I, IsDynamicCode)
  int64_t Imm = 0;
};

/// One straight-line superblock: [First, First + Count) instructions with
/// their total cycle cost and I-cache line segments (DecodedLineSeg, in
/// vm/ICache.h) precomputed.
struct DecodedBlock {
  uint32_t First = 0;
  uint32_t Count = 0;
  uint64_t CostSum = 0;
  uint32_t SegBegin = 0; ///< index range into DecodedCode::Segs
  uint32_t SegEnd = 0;
};

/// The complete translation of one CodeObject.
struct DecodedCode {
  size_t CodeSize = 0;  ///< validation: CO.Code.size() at build time
  uint32_t Version = 0; ///< validation: CO.Version at build time
  std::vector<DecodedInstr> Instrs; ///< parallel to CO.Code
  std::vector<DecodedBlock> Blocks;
  std::vector<DecodedLineSeg> Segs;
  /// Per PC: index of the block this PC *leads*, or -1 (mid-block).
  std::vector<int32_t> BlockOf;
  /// Entry PCs promoted to leaders after mid-block entries (kept across
  /// re-translations of the same object).
  std::vector<uint32_t> ExtraLeaders;
};

/// Builds the translation of \p CO under \p CM and the I-cache geometry
/// \p IC (each line segment's set and tag), treating \p ExtraLeaders as
/// additional block leaders. \p Recycle, if non-null, donates its heap
/// buffers: the translation is rebuilt in place so steady-state
/// re-translation (chain eviction and re-specialization) reuses capacity
/// instead of reallocating.
std::unique_ptr<DecodedCode>
buildDecoded(const CodeObject &CO, const CostModel &CM,
             const ICacheConfig &IC, std::vector<uint32_t> ExtraLeaders,
             std::unique_ptr<DecodedCode> Recycle = nullptr);

/// Translations of dynamic-code objects shared by every VM of one front
/// end, keyed by the owning CodeObject's simulated BaseAddr. A VM that
/// builds the first translation of a chain publishes it here; every other
/// connected VM (VM::setSharedTranslations) adopts the immutable
/// translation on first touch instead of building its own. Thread safe:
/// client VMs publish and adopt concurrently while the front end releases
/// the entries of chains it unpublishes.
class SharedTranslations {
public:
  /// Whether a VM configured with \p CM and \p IC may connect. The first
  /// caller fixes the table's configuration and later callers must match
  /// it: a translation carries precomputed costs and I-cache sets and
  /// tags, so a differently configured VM keeps translating for itself.
  bool admits(const CostModel &CM, const ICacheConfig &IC) {
    std::unique_lock<std::shared_mutex> L(Mu);
    if (!Config)
      Config.emplace(CM, IC);
    return Config->first == CM && Config->second == IC;
  }

  /// Publishes (or replaces) the translation for \p BaseAddr.
  void publish(uint64_t BaseAddr, std::shared_ptr<const DecodedCode> DC) {
    std::unique_lock<std::shared_mutex> L(Mu);
    Map.insert_or_assign(BaseAddr, std::move(DC));
  }

  /// The published translation for \p BaseAddr, or null.
  std::shared_ptr<const DecodedCode> find(uint64_t BaseAddr) const {
    std::shared_lock<std::shared_mutex> L(Mu);
    auto It = Map.find(BaseAddr);
    return It == Map.end() ? nullptr : It->second;
  }

  /// Drops the entry for \p BaseAddr, if any. VMs that already adopted the
  /// translation keep their shared reference until their own caches drop
  /// it.
  void release(uint64_t BaseAddr) {
    std::unique_lock<std::shared_mutex> L(Mu);
    Map.erase(BaseAddr);
  }

  size_t size() const {
    std::shared_lock<std::shared_mutex> L(Mu);
    return Map.size();
  }

private:
  mutable std::shared_mutex Mu;
  std::unordered_map<uint64_t, std::shared_ptr<const DecodedCode>> Map;
  std::optional<std::pair<CostModel, ICacheConfig>> Config;
};

/// The per-VM translation cache. Not thread-safe: each VM owns one. A
/// cache entry either owns a translation private to this VM (static code,
/// promoted leaders, or no shared table) or holds a reference to a
/// translation in the SharedTranslations table.
class DecodedCache {
public:
  /// Returns the (valid) translation of \p CO, building or rebuilding it
  /// if absent or stale. With a shared table connected, a miss on a
  /// dynamic-code object adopts the published translation, or builds one
  /// and publishes it.
  const DecodedCode *get(const CodeObject &CO, const CostModel &CM,
                         const ICacheConfig &IC);

  /// Re-translates \p CO with \p PC promoted to a block leader. Returns
  /// the new translation, or null if the promotion budget is exhausted
  /// (the caller falls back to single-stepping).
  const DecodedCode *promoteLeader(const CodeObject &CO, uint32_t PC,
                                   const CostModel &CM,
                                   const ICacheConfig &IC);

  /// Drops the translation of \p CO (the runtime unpublished its chain).
  /// An owned translation's buffers are kept on a small spare list and
  /// donated to the next build; a shared translation's reference is simply
  /// released (the table or other VMs may still hold it).
  void invalidate(const CodeObject &CO) {
    auto It = Map.find(CO.BaseAddr);
    if (It == Map.end())
      return;
    if (LastDC == dcOf(It->second))
      LastDC = nullptr;
    if (It->second.Owned && Spares.size() < MaxSpares)
      Spares.push_back(std::move(It->second.Owned));
    Map.erase(It);
  }

  void clear() {
    Map.clear();
    LastDC = nullptr;
  }
  size_t size() const { return Map.size(); }
  uint64_t builds() const { return Builds; }
  uint64_t adopts() const { return Adopts; }

  /// Connects this cache to a shared translation table (null
  /// disconnects). The table must outlive the cache or be detached first;
  /// VM::setSharedTranslations keeps it alive.
  void setTable(SharedTranslations *T) { Table = T; }

private:
  /// One cache entry: exactly one of the two pointers is set.
  struct Slot {
    std::unique_ptr<DecodedCode> Owned;
    std::shared_ptr<const DecodedCode> Shared;
  };

  static const DecodedCode *dcOf(const Slot &S) {
    return S.Owned ? S.Owned.get() : S.Shared.get();
  }

  /// Promotion budget per code object; beyond it, unpredicted entry PCs
  /// single-step to the next leader instead of re-translating.
  static constexpr size_t MaxExtraLeaders = 256;

  /// Eviction/re-specialization churn bound: how many retired
  /// translations' buffers are retained for reuse.
  static constexpr size_t MaxSpares = 8;

  std::unique_ptr<DecodedCode> takeSpare() {
    if (Spares.empty())
      return nullptr;
    auto S = std::move(Spares.back());
    Spares.pop_back();
    return S;
  }

  std::unordered_map<uint64_t, Slot> Map;
  std::vector<std::unique_ptr<DecodedCode>> Spares;
  /// Most-recently-returned memo: the VM re-derives the translation on
  /// every frame re-entry (each dispatch and return), which in steady
  /// state is the same object back-to-back.
  uint64_t LastAddr = 0;
  const DecodedCode *LastDC = nullptr;
  uint64_t Builds = 0;
  uint64_t Adopts = 0;
  SharedTranslations *Table = nullptr;
};

} // namespace vm
} // namespace dyc

#endif // DYC_VM_DECODED_H
