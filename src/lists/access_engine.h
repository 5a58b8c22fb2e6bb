// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// AccessEngine: counted access layer between the algorithms and a Database.
// Every sorted/random/direct access an algorithm performs goes through this
// class, which maintains the per-run AccessStats, the per-list sorted-access
// cursors, and (optionally) a per-position audit trail used by the tests to
// verify access-pattern theorems (e.g. Theorem 5: BPA2 never accesses a list
// position twice).

#ifndef TOPK_LISTS_ACCESS_ENGINE_H_
#define TOPK_LISTS_ACCESS_ENGINE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "lists/access_stats.h"
#include "lists/database.h"
#include "lists/types.h"

namespace topk {

/// Result of one sorted or direct access.
struct AccessedEntry {
  ItemId item = kInvalidItem;
  Score score = 0.0;
  Position position = kInvalidPosition;
};

/// Counted access layer over an immutable Database. Not thread-safe; use one
/// engine per concurrent query execution. An engine is reusable: Reset()
/// rebinds it to a database and zeroes all cursors and counters while keeping
/// the backing storage, so repeated queries cost no allocations.
class AccessEngine {
 public:
  /// Creates an unbound engine; call Reset() before use.
  AccessEngine() = default;

  /// \param audit when true, records how many times each (list, position) pair
  ///        was touched; needed only by tests/ablations (costs O(n*m) memory).
  explicit AccessEngine(const Database& db, bool audit = false) {
    Reset(db, audit);
  }

  /// Rebinds the engine to `db` and clears stats, cursors and the audit trail.
  void Reset(const Database& db, bool audit = false);

  /// Sorted access: the next unread entry of list `list_index` (paper mode 1).
  /// Precondition: !SortedExhausted(list_index).
  /// (The three access primitives are inline: they sit on the hot path of
  /// every algorithm, and inlining them into the run loops is worth more than
  /// any of their bodies.)
  AccessedEntry SortedAccess(size_t list_index) {
    assert(!SortedExhausted(list_index));
    const Position pos = static_cast<Position>(++cursors_[list_index]);
    const ListEntry entry = db_->list(list_index).EntryAt(pos);
    ++stats_.sorted_accesses;
    RecordTouch(list_index, pos);
    return AccessedEntry{entry.item, entry.score, pos};
  }

  /// True when the sorted cursor of the list has walked past position n.
  bool SortedExhausted(size_t list_index) const {
    return cursors_[list_index] >= db_->num_items();
  }

  /// Current sorted-access depth of a list: the position of the last entry
  /// returned by SortedAccess (0 before the first access).
  Position SortedDepth(size_t list_index) const {
    return static_cast<Position>(cursors_[list_index]);
  }

  /// Largest sorted-access depth over all lists; the "stopping position" that
  /// the paper reports for FA/TA/BPA.
  Position MaxSortedDepth() const;

  /// Random access: score and position of `item` in list `list_index`
  /// (paper mode 2).
  ItemLookup RandomAccess(size_t list_index, ItemId item) {
    const ItemLookup lookup = db_->list(list_index).Lookup(item);
    ++stats_.random_accesses;
    RecordTouch(list_index, lookup.position);
    return lookup;
  }

  /// Direct access: entry at `position` of list `list_index` (Section 5.1).
  AccessedEntry DirectAccess(size_t list_index, Position position) {
    assert(position >= 1 && position <= db_->num_items());
    const ListEntry entry = db_->list(list_index).EntryAt(position);
    ++stats_.direct_accesses;
    RecordTouch(list_index, position);
    return AccessedEntry{entry.item, entry.score, position};
  }

  /// Access counts so far.
  const AccessStats& stats() const { return stats_; }

  /// Adds externally tallied accesses (the RawListIo fast path counts in a
  /// stack-local AccessStats and flushes once per run).
  void AddStats(const AccessStats& stats) { stats_ += stats; }

  /// The database being accessed.
  const Database& database() const { return *db_; }

  // --- audit trail (enabled via Reset/constructor flag) ---

  /// Number of times position `pos` of list `list_index` was touched by any
  /// access mode; always 0 when audit mode is off.
  uint32_t TouchCount(size_t list_index, Position pos) const {
    return audit_ ? touch_counts_[list_index][pos - 1] : 0;
  }

  /// Maximum touch count over all positions of a list; always 0 when audit
  /// mode is off.
  uint32_t MaxTouchCount(size_t list_index) const;

 private:
  void RecordTouch(size_t list_index, Position pos) {
    if (audit_) {
      ++touch_counts_[list_index][pos - 1];
    }
  }

  const Database* db_ = nullptr;
  AccessStats stats_;
  std::vector<size_t> cursors_;  // entries consumed per list (0-based count)
  bool audit_ = false;
  std::vector<std::vector<uint32_t>> touch_counts_;  // [list][pos-1]
};

}  // namespace topk

#endif  // TOPK_LISTS_ACCESS_ENGINE_H_
