// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "dist/remote_io.h"

#include <algorithm>

namespace topk {

bool RemoteIo::Fetch(size_t list, Position position, Position last,
                     MessageType type, Score threshold) {
  list_ = kNoList;
  if (!SortedAlive(list)) {
    return false;
  }
  RemoteReads& r = *r_;
  r.request.type = type;
  r.request.list_index = static_cast<uint32_t>(list);
  r.request.start = position;
  r.request.max_entries = static_cast<uint32_t>(
      std::min<uint64_t>(c_->options_.window_rows, last - position + 1));
  r.request.threshold = threshold;
  r.request.items.clear();
  const Status status = c_->ListRpc(list, r.request, &r.reply);
  if (!status.ok()) {
    // Unavailable: the whole replica group died (ListAlive turns false).
    if (!status.IsUnavailable()) {
      r.error = status;
    }
    return false;
  }
  if (r.window_end[list] != 0 && !r.scores_by_position[list].empty()) {
    r.scores_by_position[list][r.window_end[list] - 1] =
        r.window[list].back().score;  // see ScoreAt
  }
  r.window[list].swap(r.reply.entries);  // the next reply clears it
  r.window_base[list] = position;
  r.window_end[list] = position + static_cast<Position>(r.window[list].size());
  return true;
}

Position RemoteIo::OpenSpan(Position row) {
  // A list a later refill kills (a multi-list owner) still bounds the span:
  // a shorter span is always safe, as the next row opens another.
  Position last = static_cast<Position>(c_->n_);
  bool live = false;
  for (size_t list = 0; list < num_lists(); ++list) {
    if (FetchSorted(list, row, c_->n_)) {
      live = true;
      last = std::min(last, r_->window_end[list] - 1);
    }
  }
  return live ? last : row;
}

void RemoteIo::SendLookups() {
  RemoteReads& r = *r_;
  for (size_t list = 0; list < r.requested.size(); ++list) {
    r.lookup_cursor[list] = 0;
    r.lookups[list].clear();  // a list without replies serves no reads
    if (r.requested[list].empty() || !SortedAlive(list)) {
      continue;
    }
    r.request.type = MessageType::kRandomLookup;
    r.request.list_index = static_cast<uint32_t>(list);
    r.request.items.swap(r.requested[list]);
    const Status status = c_->ListRpc(list, r.request, &r.reply);
    r.request.items.swap(r.requested[list]);  // Random checks against it
    if (!status.ok()) {
      if (!status.IsUnavailable()) {
        r.error = status;
      }
      continue;
    }
    r.lookups[list].swap(r.reply.lookups);  // the next reply clears it
    if (!r.scores_by_position[list].empty()) {
      for (const ItemLookup& lookup : r.lookups[list]) {
        r.scores_by_position[list][lookup.position] = lookup.score;
      }
    }
  }
}

ItemLookup RemoteIo::Misread(size_t list, ItemId item) {
  if (r_->error.ok()) {
    r_->error = Status::Internal("RemoteIo: read of item ", item, " on list ",
                                 list, " was not announced to BatchRandom");
  }
  return ItemLookup{MinScore(list), 1};
}

}  // namespace topk
