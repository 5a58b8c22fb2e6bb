// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/execution_context.h"

#include <algorithm>

namespace topk {

namespace {

// Invalidates every stamp by moving to the next epoch; a wrapped epoch
// clears the stamps once instead.
void NextEpoch(std::vector<uint32_t>* stamps, uint32_t* epoch) {
  if (++*epoch == 0) {
    std::fill(stamps->begin(), stamps->end(), 0u);
    *epoch = 1;
  }
}

// LoseList's signal, built before any query runs: every copy shares this
// payload, so signalling a lost list allocates nothing.
const Status kListLost(StatusCode::kUnavailable, "a list died permanently");

}  // namespace

void ScoreMemo::Reset(size_t n) {
  if (stamps_.size() < n) {
    stamps_.resize(n, epoch_);  // grown entries start stale (== old epoch)
    scores_.resize(n, 0.0);
  }
  NextEpoch(&stamps_, &epoch_);
}

void ScoreMemo::BeginSpan() {
  if (span_stamps_.size() < stamps_.size()) {
    span_stamps_.resize(stamps_.size(), span_epoch_);  // stale, as in Reset
  }
  NextEpoch(&span_stamps_, &span_epoch_);
}

Status ExecutionContext::LoseList(size_t list, const char* reason) {
  lost_list_ = list;
  lost_reason_ = reason;
  return kListLost;
}

Status ExecutionContext::LostListStatus(const char* engine) const {
  return Status::Unavailable(engine, ": list ", lost_list_,
                             " died permanently; ", lost_reason_);
}

void ExecutionContext::Prepare(const Database& db, bool audit, size_t k) {
  engine_.Reset(db.num_lists(), db.num_items(), audit);
  Prepare(db.num_lists(), k);
}

void ExecutionContext::Prepare(size_t m, size_t k) {
  buffer_.Reset(k);
  local_scores_.assign(m, 0.0);
  last_scores_.assign(m, 0.0);
  bound_scores_.assign(m, 0.0);
}

void ExecutionContext::PrepareTrackers(size_t n, size_t m) {
  if (n != tracker_list_size_) {
    trackers_.clear();
    tracker_list_size_ = n;
  }
  const size_t reused = std::min(m, trackers_.size());
  for (size_t i = 0; i < reused; ++i) {
    trackers_[i].Reset();
  }
  while (trackers_.size() < m) {
    trackers_.emplace_back(n);
  }
}

}  // namespace topk
