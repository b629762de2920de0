//===- support/Arena.h - Bump allocation with scoped rollback ------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BumpArena, a chunked bump allocator with stack-discipline Scope
/// rollback, and ArenaAllocator, its STL adapter. The unroll driver's
/// per-run scratch (worklist items, the memoization map's nodes, patch
/// records) comes from a per-region BumpArena; a Scope opened around each
/// specialization run rolls the bump pointer back when the run finishes,
/// so the chunks reach a high-water mark once and every later run recycles
/// them with zero allocator traffic. Scopes nest (a static call at
/// specialize time can re-enter the specializer on the same thread), which
/// plain reset() could not survive. The front end's AST and token text
/// live in arenas too (frontend/AST.h). Not thread-safe: specialization is
/// caller-serialized (see RegionExec.h's concurrency contract).
///
/// Objects that outlive a run — published entries and code chains — are
/// plain make_shared allocations: they are freed one at a time, on any
/// thread, when their last reference drops.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_SUPPORT_ARENA_H
#define DYC_SUPPORT_ARENA_H

#include "support/Support.h"

#include <cstddef>
#include <memory>
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

} // namespace dyc

#endif // DYC_SUPPORT_ARENA_H
