//===- support/Arena.cpp --------------------------------------------------===//

#include "support/Arena.h"

#include <cstddef>

namespace dyc {

namespace {

size_t alignUp(size_t V, size_t Align) { return (V + Align - 1) & ~(Align - 1); }

} // namespace

void *BumpArena::allocate(size_t Bytes, size_t Align) {
  assert(Align != 0 && (Align & (Align - 1)) == 0 && "non-power-of-2 align");
  if (Bytes == 0)
    Bytes = 1;
  for (;;) {
    if (CurChunk < Chunks.size()) {
      Chunk &C = Chunks[CurChunk];
      size_t Off = alignUp(CurOffset, Align);
      if (Off + Bytes <= C.Size) {
        CurOffset = Off + Bytes;
        return C.Mem.get() + Off;
      }
      // This chunk is full (or too small for an oversize request); move to
      // the next retained chunk, or fall through to grow.
      ++CurChunk;
      CurOffset = 0;
      continue;
    }
    Chunk C;
    C.Size = Bytes + Align > ChunkBytes ? Bytes + Align : ChunkBytes;
    C.Mem = std::make_unique<char[]>(C.Size);
    Chunks.push_back(std::move(C));
    // Loop re-enters with CurChunk pointing at the new chunk.
    CurChunk = Chunks.size() - 1;
    CurOffset = 0;
  }
}

} // namespace dyc
