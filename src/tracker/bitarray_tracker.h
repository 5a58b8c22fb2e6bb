// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Best-position management (paper, Section 5.2). A tracker records which
// positions of one sorted list have been seen (under any access mode) and
// maintains the *best position*: the greatest position bp such that every
// position in [1, bp] has been seen.
//
// Bit-array best-position management (paper, Section 5.2.1): an n-bit array of
// seen flags plus a pointer `bp` that only ever moves forward. Advancing bp
// costs O(n) over the whole query, i.e. O(n/u) amortized per access; space is
// n bits plus a uint32_t epoch stamp per 64-bit word. It is the evaluation's
// choice (Section 6.1) and the only tracker here; the Section 5.2.2 B+tree
// (O(log u) amortized, O(u) space) measured slower on every warmed query
// (README, "src/tracker").
//
// Two deviations from the textbook layout, both for the per-access constant:
//  * Reset() is O(1). Instead of clearing n bits per query, every word
//    carries a generation stamp and counts as all-zero unless its stamp
//    matches the tracker's current epoch. Bumping the epoch invalidates every
//    word at once; words are lazily re-zeroed on first write in the new
//    epoch. Observable behavior is identical to a freshly constructed tracker
//    (the stamp wrap-around at 2^32 falls back to one eager clear).
//  * MarkSeen is branchless on the "seen before?" question. Whether a random
//    position was already marked is close to a coin flip in the BPA/BPA2
//    inner loops, so a test-and-branch mispredicts constantly; an
//    unconditional masked store costs a couple of ALU ops instead (the seen
//    count is recovered by popcount on demand). The stamp lives next to its
//    word (one 16-byte slot) so a mark touches exactly one cache line.

#ifndef TOPK_TRACKER_BITARRAY_TRACKER_H_
#define TOPK_TRACKER_BITARRAY_TRACKER_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "lists/types.h"

namespace topk {

/// Tracks the seen positions of one list and exposes its best position.
class BitArrayTracker {
 public:
  explicit BitArrayTracker(size_t list_size);

  /// Records `position` (1-based) as seen. Idempotent. Defined inline, like
  /// IsSeen: the BPA/BPA2 hot loops inline it down to a few word operations.
  void MarkSeen(Position position) {
    assert(position >= 1 && position <= list_size_);
    const size_t index = position - 1;
    Word& word = words_[index >> 6];
    const uint64_t mask = uint64_t{1} << (index & 63);
    const uint64_t bits = word.epoch == epoch_ ? word.bits : uint64_t{0};
    word.bits = bits | mask;
    word.epoch = epoch_;
    // Paper 5.2.1: B[j] := 1; while (bp < n and B[bp+1] = 1) bp := bp + 1.
    // Invariant: the bit at bp (0-based) is unset unless bp == n, so the walk
    // can only make progress when this mark lands exactly on bp.
    if (index == best_position_) {
      AdvanceBestPosition();
    }
  }
  /// The greatest position bp such that all of [1, bp] are seen; 0 if
  /// position 1 has not been seen yet.
  Position best_position() const { return best_position_; }

  /// Cache hint that MarkSeen(position) is imminent (write intent, so the
  /// line arrives in exclusive state). The BPA loop reads the positions its
  /// upcoming random accesses will mark out of the already-prefetched mirror
  /// rows a couple of sorted rows ahead and prefetches the word slots here —
  /// at DRAM-scale n the word array is megabytes per list, so the marks are
  /// otherwise a chain of cold read-modify-writes.
  void PrefetchMark(Position position) const {
    __builtin_prefetch(&words_[(position - 1) >> 6], /*rw=*/1);
  }
  /// True iff `position` has been marked seen.
  bool IsSeen(Position position) const {
    assert(position >= 1 && position <= list_size_);
    return TestBit(position - 1);
  }
  // Computed on demand (popcount over current-epoch words) so MarkSeen needs
  // no counter maintenance; callers are tests/ablations, never hot loops.
  size_t seen_count() const {
    size_t count = 0;
    for (const Word& word : words_) {
      if (word.epoch == epoch_) {
        count += static_cast<size_t>(std::popcount(word.bits));
      }
    }
    return count;
  }
  /// Forgets all seen positions.
  void Reset();
  std::string name() const { return "bit-array"; }

 private:
  /// 64 seen flags and their generation stamp, colocated in one 16-byte slot
  /// so any mark or test touches a single cache line.
  struct Word {
    uint64_t bits = 0;
    uint32_t epoch = 0;  // bits are valid iff == the tracker's epoch_
  };

  /// Walks bp forward over the seen prefix a word at a time (counting the
  /// trailing run of ones instead of re-testing bit by bit).
  void AdvanceBestPosition() {
    size_t index = best_position_;
    while (index < list_size_) {
      const Word& word = words_[index >> 6];
      const uint64_t bits = word.epoch == epoch_ ? word.bits : uint64_t{0};
      const unsigned offset = static_cast<unsigned>(index & 63);
      // Zero-fill above bit 63-offset stops the count at the word boundary.
      const unsigned run =
          static_cast<unsigned>(std::countr_one(bits >> offset));
      index += run;
      if (run < 64 - offset) {
        break;  // first unseen position found inside this word
      }
    }
    best_position_ = static_cast<Position>(std::min(index, list_size_));
  }

  bool TestBit(size_t index) const {
    const Word& word = words_[index >> 6];
    return word.epoch == epoch_ && ((word.bits >> (index & 63)) & 1ULL);
  }

  size_t list_size_;
  std::vector<Word> words_;  // bit i (0-based) == position i+1 seen
  uint32_t epoch_ = 1;       // stamps start at 0, so 1 == all clear
  Position best_position_ = 0;
};

}  // namespace topk

#endif  // TOPK_TRACKER_BITARRAY_TRACKER_H_
