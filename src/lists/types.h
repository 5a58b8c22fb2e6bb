// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Fundamental types of the sorted-list data model (paper, Section 2).

#ifndef TOPK_LISTS_TYPES_H_
#define TOPK_LISTS_TYPES_H_

#include <cstdint>

namespace topk {

/// Identifier of a data item. Item ids are dense: a database over n items uses
/// ids 0 .. n-1 (the paper's d1..dn map to 0..n-1).
using ItemId = uint32_t;

/// A local or overall score. The paper defines local scores as non-negative
/// reals; the library accepts arbitrary reals (the paper's own Gaussian
/// databases produce negative scores).
using Score = double;

/// 1-based position of an item within a sorted list, following the paper:
/// the item with the highest local score is at position 1.
using Position = uint32_t;

/// Sentinel for "no position" (positions are 1-based).
inline constexpr Position kInvalidPosition = 0;

/// Sentinel for "no item".
inline constexpr ItemId kInvalidItem = UINT32_MAX;

// The random-access structure (the Database's interleaved item-major mirror
// rows) is laid out assuming the index types stay 32-bit: an item's m scores
// and m positions pack into 12*m contiguous bytes, which is what keeps a full
// per-item resolution inside one or two cache lines at DRAM scale (n in the
// millions). Widening either type is a
// deliberate layout decision, not a typedef edit — these asserts make the
// contract explicit.
static_assert(sizeof(ItemId) == 4, "item ids are 32-bit by layout contract");
static_assert(sizeof(Position) == 4, "positions are 32-bit by layout contract");

/// One (data item, local score) pair of a sorted list.
struct ListEntry {
  ItemId item = kInvalidItem;
  Score score = 0.0;

  friend bool operator==(const ListEntry& a, const ListEntry& b) {
    return a.item == b.item && a.score == b.score;
  }
};

/// Result of a random (by-item) access: the item's local score and position.
struct ItemLookup {
  Score score = 0.0;
  Position position = kInvalidPosition;
};

}  // namespace topk

#endif  // TOPK_LISTS_TYPES_H_
