// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "lists/sorted_list.h"

#include <algorithm>
#include <cmath>

namespace topk {

namespace {

// Descending by score; ascending item id breaks ties deterministically.
bool DescendingScoreOrder(const ListEntry& a, const ListEntry& b) {
  if (a.score != b.score) {
    return a.score > b.score;
  }
  return a.item < b.item;
}

}  // namespace

Result<SortedList> SortedList::FromScores(const std::vector<Score>& scores) {
  std::vector<ListEntry> entries(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    entries[i] = ListEntry{static_cast<ItemId>(i), scores[i]};
  }
  return FromEntries(std::move(entries));
}

Result<SortedList> SortedList::FromEntries(std::vector<ListEntry> entries) {
  const size_t n = entries.size();
  std::vector<bool> seen(n, false);
  for (const ListEntry& e : entries) {
    if (e.item >= n) {
      return Status::Invalid("item id ", e.item, " out of range for list of ",
                             n, " items");
    }
    if (seen[e.item]) {
      return Status::Invalid("item id ", e.item, " appears more than once");
    }
    if (!std::isfinite(e.score)) {
      // A NaN would break the sort's strict weak ordering.
      return Status::Invalid("item id ", e.item, " has non-finite score ",
                             e.score);
    }
    seen[e.item] = true;
  }
  SortedList list;
  list.BuildFrom(std::move(entries));
  return list;
}

Result<ListEntry> SortedList::EntryAtChecked(Position position) const {
  if (position == kInvalidPosition || position > items_.size()) {
    return Status::OutOfRange("position ", position, " not in [1, ",
                              items_.size(), "]");
  }
  return EntryAt(position);
}

void SortedList::BuildFrom(std::vector<ListEntry> entries) {
  std::sort(entries.begin(), entries.end(), DescendingScoreOrder);
  const size_t n = entries.size();
  items_.resize(n);
  scores_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    items_[i] = entries[i].item;
    scores_[i] = entries[i].score;
  }
}

}  // namespace topk
