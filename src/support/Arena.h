//===- support/Arena.h - Bump and pooled allocation for the run-time -----===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Allocation substrates for the specializer's hot paths:
///
///  * BumpArena — a chunked bump allocator with stack-discipline Scope
///    rollback. The unroll driver's per-run scratch (worklist items, the
///    memoization map's nodes, patch records) comes from a per-region
///    BumpArena; a Scope opened around each specialization run rolls the
///    bump pointer back when the run finishes, so the chunks reach a
///    high-water mark once and every later run recycles them with zero
///    allocator traffic. Scopes nest (a static call at specialize time can
///    re-enter the specializer on the same thread), which plain reset()
///    could not survive. Not thread-safe: specialization is
///    caller-serialized (see RegionExec.h's concurrency contract).
///
///  * RecyclingPool — a thread-safe, size-bucketed block pool over a
///    BumpArena. SpecEntry / CodeChain / EntryStats control blocks are
///    allocate_shared'd from a per-region pool; when an evicted chain's
///    last reference drops at a collection safe point, its blocks return
///    to the pool's freelists and the next specialization reuses them.
///    Deallocation can happen on any thread (the server's clients release
///    entry references concurrently), hence the internal mutex.
///
/// Both expose raw allocate/deallocate plus STL allocator adapters
/// (ArenaAllocator for BumpArena, PoolAllocator holding shared ownership
/// of its RecyclingPool so pooled objects can never outlive their pool).
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SUPPORT_ARENA_H
#define DYC_SUPPORT_ARENA_H

#include "support/Support.h"

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

namespace dyc {

/// Chunked bump allocator. deallocate() is a no-op; memory is reclaimed by
/// Scope rollback (or reset(), which is rollback-to-empty). Chunks are
/// retained across rollbacks, so steady-state allocation never touches the
/// system allocator.
class BumpArena {
public:
  explicit BumpArena(size_t ChunkBytes = 1 << 16) : ChunkBytes(ChunkBytes) {}
  BumpArena(const BumpArena &) = delete;
  BumpArena &operator=(const BumpArena &) = delete;
  /// Moving takes the chunks along; what was allocated stays where it is.
  /// Not while a Scope is open on the source.
  BumpArena(BumpArena &&) = default;
  BumpArena &operator=(BumpArena &&) = default;

  void *allocate(size_t Bytes, size_t Align);
  void deallocate(void *, size_t) {} ///< reclaimed by Scope / reset()

  /// Rolls back to empty, keeping every chunk for reuse.
  void reset() {
    CurChunk = 0;
    CurOffset = 0;
  }

  size_t allocatedBytes() const {
    size_t N = 0;
    for (const Chunk &C : Chunks)
      N += C.Size;
    return N;
  }
  uint64_t allocations() const { return NumAllocs; }

  /// RAII high-water mark: destruction rolls the bump pointer back to
  /// where it was at construction. Scopes must nest (destroy in reverse
  /// order of construction), which the specializer's call structure
  /// guarantees — nested specialization is reentrant on one thread.
  class Scope {
  public:
    explicit Scope(BumpArena &A)
        : A(A), Chunk(A.CurChunk), Offset(A.CurOffset) {}
    ~Scope() {
      A.CurChunk = Chunk;
      A.CurOffset = Offset;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    BumpArena &A;
    size_t Chunk;
    size_t Offset;
  };

private:
  struct Chunk {
    std::unique_ptr<char[]> Mem;
    size_t Size = 0;
  };

  std::vector<Chunk> Chunks;
  size_t CurChunk = 0;  ///< index of the chunk being bumped
  size_t CurOffset = 0; ///< next free byte within it
  size_t ChunkBytes;
  uint64_t NumAllocs = 0;
};

/// Thread-safe size-bucketed block pool. Blocks are carved from an
/// internal BumpArena on first use and recycled through per-size
/// freelists; the arena is never rolled back while the pool lives, so a
/// freed block is always safe to reuse.
class RecyclingPool {
public:
  RecyclingPool() : Arena(1 << 16) {}
  RecyclingPool(const RecyclingPool &) = delete;
  RecyclingPool &operator=(const RecyclingPool &) = delete;
  ~RecyclingPool();

  void *allocate(size_t Bytes, size_t Align);
  void deallocate(void *P, size_t Bytes);

  uint64_t reuses() const;
  uint64_t freshBlocks() const;

private:
  struct FreeNode {
    FreeNode *Next;
  };

  /// Size classes in 16-byte steps up to 512 bytes; larger blocks (none of
  /// the pooled run-time objects reach that) go straight to operator new.
  static constexpr size_t ClassBytes = 16;
  static constexpr size_t NumClasses = 32;
  static size_t classOf(size_t Bytes) {
    return (Bytes + ClassBytes - 1) / ClassBytes;
  }

  mutable std::mutex Mu;
  BumpArena Arena;
  FreeNode *Buckets[NumClasses + 1] = {};
  uint64_t Reuses = 0;
  uint64_t Fresh = 0;
  uint64_t OversizeLive = 0;
};

/// STL allocator over a BumpArena (deallocate is a no-op; lifetime is the
/// enclosing Scope). Container element destructors still run normally.
template <class T> class ArenaAllocator {
public:
  using value_type = T;

  explicit ArenaAllocator(BumpArena &A) : A(&A) {}
  template <class U>
  ArenaAllocator(const ArenaAllocator<U> &O) : A(O.arena()) {}

  T *allocate(size_t N) {
    return static_cast<T *>(A->allocate(N * sizeof(T), alignof(T)));
  }
  void deallocate(T *P, size_t N) { A->deallocate(P, N * sizeof(T)); }

  BumpArena *arena() const { return A; }

  template <class U> bool operator==(const ArenaAllocator<U> &O) const {
    return A == O.arena();
  }
  template <class U> bool operator!=(const ArenaAllocator<U> &O) const {
    return A != O.arena();
  }

private:
  BumpArena *A;
};

/// STL allocator over a shared RecyclingPool. Holds shared ownership so an
/// allocate_shared'd object (and its control block) keeps its pool alive —
/// a test or client that outlives the region core cannot free into a dead
/// pool.
template <class T> class PoolAllocator {
public:
  using value_type = T;

  explicit PoolAllocator(std::shared_ptr<RecyclingPool> P)
      : P(std::move(P)) {}
  template <class U>
  PoolAllocator(const PoolAllocator<U> &O) : P(O.pool()) {}

  T *allocate(size_t N) {
    return static_cast<T *>(P->allocate(N * sizeof(T), alignof(T)));
  }
  void deallocate(T *Ptr, size_t N) { P->deallocate(Ptr, N * sizeof(T)); }

  const std::shared_ptr<RecyclingPool> &pool() const { return P; }

  template <class U> bool operator==(const PoolAllocator<U> &O) const {
    return P == O.pool();
  }
  template <class U> bool operator!=(const PoolAllocator<U> &O) const {
    return P != O.pool();
  }

private:
  std::shared_ptr<RecyclingPool> P;
};

} // namespace dyc

#endif // DYC_SUPPORT_ARENA_H
