// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Database: the paper's "set of m sorted lists" over a common item universe,
// plus the one by-item index over them (the item-major mirror below).

#ifndef TOPK_LISTS_DATABASE_H_
#define TOPK_LISTS_DATABASE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/result.h"
#include "lists/sorted_list.h"
#include "lists/types.h"

namespace topk {

/// An immutable collection of m sorted lists over items 0..n-1. Every item
/// appears exactly once in every list (enforced at construction).
class Database {
 public:
  Database() = default;

  /// Builds a database from already-constructed lists. Fails if there are no
  /// lists or the lists disagree on n.
  static Result<Database> Make(std::vector<SortedList> lists);

  /// Builds a database from an n x m score matrix: scores[i][j] is the local
  /// score of item i in list j. Fails if rows are ragged or empty.
  static Result<Database> FromScoreMatrix(
      const std::vector<std::vector<Score>>& scores);

  /// Number of lists (the paper's m).
  size_t num_lists() const { return lists_.size(); }

  /// Number of items per list (the paper's n).
  size_t num_items() const { return lists_.empty() ? 0 : lists_[0].size(); }

  /// The i-th list, 0-based.
  const SortedList& list(size_t i) const { return lists_[i]; }

  const std::vector<SortedList>& lists() const { return lists_; }

  // --- item-major random-access mirror ---
  //
  // The lists store their sorted order only; every by-item read — the
  // algorithms' random accesses, list owners' lookups, exact-score reports —
  // goes through this mirror, built from the sorted arrays at construction.
  // An algorithm resolving an item reads it in *every* list, so the mirror
  // stores one interleaved row per item: the item's m scores followed by its
  // m 32-bit positions, contiguous in a single blob. Rows are padded to a
  // stride that divides (or is a multiple of) the 64-byte cache line and the
  // blob's base is line-aligned, so a row occupies exactly ceil(12*m/64)
  // lines and never straddles an extra one — for the common m <= 5 a full
  // per-item resolution (all scores and all positions) is ONE cache-line
  // touch. That is what the DRAM-resident (n in the millions) BPA/TA loops
  // prefetch against. Costs n*stride bytes (stride below), next to the lists'
  // 12*m bytes per item.

  /// Random access without counting: score and 1-based position of `item`
  /// in list `list`. Item must be < n.
  ItemLookup Lookup(size_t list, ItemId item) const {
    return ItemLookup{ItemScoresRow(item)[list],
                      ItemPositionsRow(item)[list]};
  }

  /// Local score of `item` in list `list`. Item must be < n.
  Score ScoreOf(size_t list, ItemId item) const {
    return ItemScoresRow(item)[list];
  }

  /// The m local scores of `item`, indexed by list: ItemScoresRow(d)[j] is
  /// d's score in list(j). The row is the first half of the item's mirror
  /// row; its positions follow contiguously (same cache line for m <= 5).
  const Score* ItemScoresRow(ItemId item) const {
    return reinterpret_cast<const Score*>(
        rows_base_ + static_cast<size_t>(item) * row_stride_);
  }

  /// The m 1-based positions of `item`, indexed by list:
  /// list(j).EntryAt(ItemPositionsRow(d)[j]).item == d.
  const Position* ItemPositionsRow(ItemId item) const {
    return reinterpret_cast<const Position*>(
        rows_base_ + static_cast<size_t>(item) * row_stride_ +
        positions_offset_);
  }

  /// Stride in bytes between consecutive items' mirror rows (12*m payload
  /// rounded up to 16/32/a multiple of 64).
  size_t item_row_stride_bytes() const { return row_stride_; }

  /// Payload bytes of one mirror row: m scores + m positions = 12*m.
  static constexpr size_t ItemRowPayloadBytes(size_t m) {
    return m * (sizeof(Score) + sizeof(Position));
  }

  /// True iff all local scores in all lists are non-negative (the paper's
  /// formal model; required by TPUT and by NRA's default score floor).
  bool AllScoresNonNegative() const;

  /// Exact overall score of `item` under `combine`, reading one score per list
  /// (used by the naive algorithm and by tests as ground truth).
  template <typename CombineFn>
  Score OverallScore(ItemId item, CombineFn&& combine) const {
    const Score* row = ItemScoresRow(item);
    return combine(std::vector<Score>(row, row + lists_.size()));
  }

 private:
  explicit Database(std::vector<SortedList> lists);

  std::vector<SortedList> lists_;

  // Interleaved item-major mirror. The blob is written once (via memcpy) at
  // construction and read-only afterwards through the typed row pointers
  // above; ownership is shared so a copied Database shares the immutable
  // blob instead of duplicating tens of megabytes. On Linux the blob is an
  // anonymous mapping advised MADV_HUGEPAGE before first touch: at DRAM
  // scale (n in the millions) the mirror spans tens of thousands of 4 KiB
  // pages and every random access would pay an L2-TLB miss / page walk on
  // top of the data fetch — 2 MiB transparent hugepages collapse the TLB
  // footprint ~512x.
  std::shared_ptr<unsigned char> item_rows_;
  const unsigned char* rows_base_ = nullptr;  // 64-byte-aligned first row
  size_t row_stride_ = 0;        // bytes between consecutive items' rows
  size_t positions_offset_ = 0;  // = m * sizeof(Score), start of positions
};

}  // namespace topk

#endif  // TOPK_LISTS_DATABASE_H_
