// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// SortedList: one of the paper's m lists. Stores n (item, local score) pairs in
// descending score order as two parallel arrays, items_[] and scores_[]
// (position -> item, position -> score): sorted and direct access read them.
// A list keeps no by-item index: random access reads the Database's
// interleaved item-major mirror (one row per item holding all m lists'
// scores and positions), the library's one by-item index.

#ifndef TOPK_LISTS_SORTED_LIST_H_
#define TOPK_LISTS_SORTED_LIST_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "lists/types.h"

namespace topk {

/// An immutable list of n items sorted by descending local score.
///
/// Serves two of the paper's access primitives by position:
///  * sorted access    — a read at the next position 1..n via EntryAt();
///  * direct access    — EntryAt(position) returns the entry at a position.
/// Random access (by item) is the Database's: Database::Lookup(list, item).
///
/// Ties are broken by ascending item id so that list order is deterministic.
class SortedList {
 public:
  SortedList() = default;

  /// Builds a list over items 0..scores.size()-1 where item i has local score
  /// scores[i]. Fails with Status::Invalid, naming the item, on a non-finite
  /// score (it goes through FromEntries' check).
  static Result<SortedList> FromScores(const std::vector<Score>& scores);

  /// Builds a list from arbitrary (item, score) pairs. Fails with
  /// Status::Invalid unless the items are exactly 0..n-1, each once.
  static Result<SortedList> FromEntries(std::vector<ListEntry> entries);

  /// Number of items in the list.
  size_t size() const { return items_.size(); }

  bool empty() const { return items_.empty(); }

  /// Entry at a 1-based position; position must be in [1, size()].
  ListEntry EntryAt(Position position) const {
    const size_t i = position - 1;
    return ListEntry{items_[i], scores_[i]};
  }

  /// Checked variant of EntryAt.
  Result<ListEntry> EntryAtChecked(Position position) const;

  /// Local score at a 1-based position — like EntryAt(position).score but a
  /// single array load (the BPA/BPA2 stop rules only need the score).
  Score ScoreAtPosition(Position position) const {
    return scores_[position - 1];
  }

  /// Highest local score (score at position 1). List must be non-empty.
  Score MaxScore() const { return scores_.front(); }

  /// Lowest local score (score at position n). List must be non-empty.
  Score MinScore() const { return scores_.back(); }

  /// True iff every local score is >= 0 (the paper's formal model).
  bool AllScoresNonNegative() const { return MinScore() >= 0.0; }

  /// Item ids in descending-score order (position p is items()[p-1]).
  const std::vector<ItemId>& items() const { return items_; }

  /// Local scores in descending order, parallel to items().
  const std::vector<Score>& scores() const { return scores_; }

 private:
  void BuildFrom(std::vector<ListEntry> entries);

  std::vector<ItemId> items_;  // position-1 -> item (descending score)
  std::vector<Score> scores_;  // position-1 -> local score
};

}  // namespace topk

#endif  // TOPK_LISTS_SORTED_LIST_H_
