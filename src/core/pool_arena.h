// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// PoolArena + ArenaVec: the memory backend of the CandidatePool's arrays.
//
// At DRAM-resident n the pool's arrays (candidate records and rows, the
// item→slot index, the group member heaps) span tens of megabytes that the
// run loops probe randomly — the same access pattern as the Database's
// item-major mirror, which PR 4 moved onto an mmap'd, MADV_HUGEPAGE-advised
// blob exactly because 4 KiB-paged random probes pay an L2-TLB miss / page
// walk on top of every data fetch. The arena gives the pool the same
// treatment: one bump allocator over a short chain of anonymous mappings,
// geometrically sized, with chunks at or above a 2 MiB threshold advised
// MADV_HUGEPAGE before first touch (best-effort, like the mirror; small pools
// stay on small un-advised chunks and never pay hugepage alignment waste).
//
// The arena only ever grows and never frees individual spans: an ArenaVec
// that outgrows its capacity bump-allocates a doubled span and abandons the
// old one (bounded waste — geometric growth retires at most one live-sized
// span per array; the item→slot index is assigned one exact n-cell span
// instead, replaced only when a later query's n is larger), and the whole
// arena is released only when the pool is destroyed. This is the pool's
// existing retention contract (storage is kept across queries so a warmed
// pool serves an unbounded query stream without touching the allocator)
// made explicit in the allocator itself: a warmed pool performs no mmap, no
// malloc and no madvise, which the zero-allocation and arena-growth tests
// assert.
//
// A process's resident memory counts the pages the arena touched, not the
// bytes it handed out: a 4 KiB page of an un-advised chunk, or a whole
// 2 MiB page of an advised one once any byte of an aligned 2 MiB range is
// touched (when the kernel can back it with a hugepage). Which spans land in
// which chunk therefore moves the RSS of a small pool by up to a hugepage,
// independently of how many bytes it uses.

#ifndef TOPK_CORE_POOL_ARENA_H_
#define TOPK_CORE_POOL_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace topk {

/// Bump allocator over mmap'd chunks. Spans are 64-byte aligned (one span
/// never straddles a cache line it does not own) and are never individually
/// freed; the chunks are unmapped by the destructor. Not thread-safe — it
/// lives inside a CandidatePool, which is borrowed by one execution at a
/// time.
class PoolArena {
 public:
  /// First chunk size; subsequent chunks double. Small pools (unit tests,
  /// cache-resident workloads) stay within un-advised sub-2 MiB chunks.
  static constexpr size_t kFirstChunkBytes = size_t{256} << 10;

  /// Chunks at or above this size are advised MADV_HUGEPAGE before first
  /// touch — the "size threshold" of the hugepage treatment: in THP
  /// "madvise" mode the kernel backs the interior 2 MiB-aligned ranges with
  /// hugepages at fault time. Below it the advice could not produce a single
  /// hugepage anyway.
  static constexpr size_t kHugeAdviseBytes = size_t{2} << 20;

  PoolArena() = default;
  PoolArena(const PoolArena&) = delete;
  PoolArena& operator=(const PoolArena&) = delete;
  ~PoolArena() {
    for (const Chunk& chunk : chunks_) {
#ifdef __linux__
      if (chunk.mapped) {
        munmap(chunk.base, chunk.size);
        continue;
      }
#endif
      ::operator delete[](chunk.base, std::align_val_t{64});
    }
  }

  /// Bump-allocates `bytes` (64-byte aligned). Never fails softly: on mmap
  /// exhaustion it falls back to aligned operator new (which throws).
  void* Allocate(size_t bytes) {
    bytes = (bytes + 63) & ~size_t{63};
    if (chunks_.empty() || used_ + bytes > chunks_.back().size) {
      Grow(bytes);
    }
    void* span = static_cast<unsigned char*>(chunks_.back().base) + used_;
    used_ += bytes;
    bytes_used_ += bytes;
    return span;
  }

  /// Total bytes reserved across all chunks — stable across warmed queries
  /// (asserted by the arena-growth test in zero_alloc_test).
  size_t bytes_reserved() const { return bytes_reserved_; }

  /// Bytes handed out to live + retired spans (retired = abandoned by an
  /// ArenaVec that doubled past them; bounded by the geometric growth).
  size_t bytes_used() const { return bytes_used_; }

  size_t num_chunks() const { return chunks_.size(); }

 private:
  struct Chunk {
    void* base = nullptr;
    size_t size = 0;
    bool mapped = false;
  };

  void Grow(size_t min_bytes) {
    size_t size = chunks_.empty() ? kFirstChunkBytes : chunks_.back().size * 2;
    while (size < min_bytes) {
      size *= 2;
    }
    Chunk chunk;
    chunk.size = size;
#ifdef __linux__
    void* map = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map != MAP_FAILED) {
      if (size >= kHugeAdviseBytes) {
        madvise(map, size, MADV_HUGEPAGE);  // best-effort hint
      }
      chunk.base = map;
      chunk.mapped = true;
    }
#endif
    if (chunk.base == nullptr) {
      chunk.base = ::operator new[](size, std::align_val_t{64});
    }
    chunks_.push_back(chunk);
    used_ = 0;
    bytes_reserved_ += size;
  }

  std::vector<Chunk> chunks_;
  size_t used_ = 0;  // into chunks_.back()
  size_t bytes_reserved_ = 0;
  size_t bytes_used_ = 0;
};

/// Minimal growable array of a trivially-copyable T over a PoolArena: the
/// std::vector subset the CandidatePool uses, with growth redirected to the
/// arena (the mutating calls that can grow take the arena explicitly, so the
/// type stays a default-constructible 16-byte {pointer, size, capacity} —
/// cheap to hold per mask group). Elements added by resize() are
/// uninitialized unless a fill value is given, mirroring the pool's contract
/// that every cell is written before it is read.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVec memcpy-moves its elements on growth");

 public:
  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Bounds-checked in Debug builds: the spans live inside mmap'd chunks, so
  // ASan cannot see an index past size() (Release compiles the check out).
  T& operator[](size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }
  void pop_back() { --size_; }

  void push_back(PoolArena& arena, const T& value) {
    if (size_ == capacity_) {
      Reserve(arena, capacity_ == 0 ? kMinCapacity : capacity_ * 2);
    }
    data_[size_++] = value;
  }

  /// Grows (or shrinks) to `count` elements; new elements are uninitialized.
  void resize(PoolArena& arena, size_t count) {
    if (count > capacity_) {
      Reserve(arena, count);
    }
    size_ = count;
  }

  void resize(PoolArena& arena, size_t count, const T& fill) {
    const size_t old_size = size_;
    resize(arena, count);
    for (size_t i = old_size; i < count; ++i) {
      data_[i] = fill;
    }
  }

  /// Discards the contents and refills with `count` copies of `fill` (the
  /// index and mask tables' sizing primitive — no copy of the old cells; a
  /// larger count takes one exact-sized span, not a doubled one).
  void assign(PoolArena& arena, size_t count, const T& fill) {
    if (count > capacity_) {
      data_ = static_cast<T*>(arena.Allocate(count * sizeof(T)));
      capacity_ = count;
    }
    size_ = count;
    for (size_t i = 0; i < count; ++i) {
      data_[i] = fill;
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  void Reserve(PoolArena& arena, size_t capacity) {
    T* grown = static_cast<T*>(arena.Allocate(capacity * sizeof(T)));
    if (size_ > 0) {
      std::memcpy(grown, data_, size_ * sizeof(T));
    }
    data_ = grown;
    capacity_ = capacity;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace topk

#endif  // TOPK_CORE_POOL_ARENA_H_
