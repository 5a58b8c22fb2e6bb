// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "dist/list_owner.h"

#include <algorithm>
#include <utility>

namespace topk {

ListOwner::ListOwner(const Database* db, std::vector<size_t> lists)
    : db_(db), lists_(std::move(lists)) {}

Status ListOwner::Serve(const Request& request, Reply* reply) const {
  reply->Clear();
  switch (request.type) {
    case MessageType::kHello:
      return ServeHello(reply);
    case MessageType::kSortedWindow:
      return ServeWindow(request, reply);
    case MessageType::kDrain:
      return ServeDrain(request, reply);
    case MessageType::kRandomLookup:
      return ServeLookup(request, reply);
    case MessageType::kProbe:
      // Liveness check: an empty OK reply is the whole answer. The health
      // tracker only needs to know whether the owner responds.
      return Status::OK();
  }
  return Status::Invalid("ListOwner: unknown message type ",
                         static_cast<int>(request.type));
}

Status ListOwner::CheckOwnership(uint32_t list_index) const {
  for (size_t owned : lists_) {
    if (owned == list_index) return Status::OK();
  }
  return Status::Invalid("ListOwner: list ", list_index,
                         " is not served by this owner");
}

Status ListOwner::ServeHello(Reply* reply) const {
  reply->catalog.reserve(lists_.size());
  for (size_t index : lists_) {
    const SortedList& list = db_->list(index);
    if (list.empty()) {
      return Status::Invalid("ListOwner: list ", index, " is empty");
    }
    reply->catalog.push_back(ListCatalog{
        static_cast<uint32_t>(index), static_cast<uint32_t>(list.size()),
        list.MaxScore(), list.MinScore()});
  }
  return Status::OK();
}

Status ListOwner::ServeWindow(const Request& request, Reply* reply) const {
  Status owned = CheckOwnership(request.list_index);
  if (!owned.ok()) return owned;
  const SortedList& list = db_->list(request.list_index);
  const size_t n = list.size();
  if (request.start < 1 || request.start > n) {
    return Status::OutOfRange("ListOwner: window start ", request.start,
                              " outside [1, ", n, "] on list ",
                              request.list_index);
  }
  const size_t count =
      std::min<size_t>(request.max_entries, n - (request.start - 1));
  reply->entries.reserve(count);
  for (size_t off = 0; off < count; ++off) {
    reply->entries.push_back(
        list.EntryAt(static_cast<Position>(request.start + off)));
  }
  return Status::OK();
}

Status ListOwner::ServeDrain(const Request& request, Reply* reply) const {
  Status owned = CheckOwnership(request.list_index);
  if (!owned.ok()) return owned;
  const SortedList& list = db_->list(request.list_index);
  const size_t n = list.size();
  if (request.start < 1 || request.start > n) {
    return Status::OutOfRange("ListOwner: drain start ", request.start,
                              " outside [1, ", n, "] on list ",
                              request.list_index);
  }
  // TPUT phase 2 contract: serve descending rows from `start` and stop AFTER
  // the first entry whose score falls below the threshold — that entry is
  // included, so the coordinator's cursor score ends strictly below the
  // threshold exactly as a local sorted scan's would. max_entries caps the
  // batch; the coordinator re-drains from the new cursor when a full batch
  // ends while still at/above the threshold.
  const size_t limit =
      std::min<size_t>(request.max_entries, n - (request.start - 1));
  reply->entries.reserve(std::min<size_t>(limit, 64));
  for (size_t off = 0; off < limit; ++off) {
    const ListEntry entry =
        list.EntryAt(static_cast<Position>(request.start + off));
    reply->entries.push_back(entry);
    if (entry.score < request.threshold) {
      reply->drained_to_threshold = true;
      break;
    }
  }
  return Status::OK();
}

Status ListOwner::ServeLookup(const Request& request, Reply* reply) const {
  Status owned = CheckOwnership(request.list_index);
  if (!owned.ok()) return owned;
  const size_t n = db_->num_items();
  reply->lookups.reserve(request.items.size());
  for (ItemId item : request.items) {
    if (item >= n) {
      return Status::KeyError("ListOwner: item ", item, " outside [0, ", n,
                              ") on list ", request.list_index);
    }
    reply->lookups.push_back(db_->Lookup(request.list_index, item));
  }
  return Status::OK();
}

}  // namespace topk
