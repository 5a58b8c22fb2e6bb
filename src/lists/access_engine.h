// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// AccessEngine: the bookkeeping of one run's list accesses — the per-run
// AccessStats and (optionally) a per-position audit trail used by the tests
// to verify access-pattern theorems (e.g. Theorem 5: BPA2 never accesses a
// list position twice). It reads no list: the access policies of
// core/list_io.h read, tally their counts in registers and store them here
// once per run, and the audited policy (FaultIo) records each read's touch
// here.

#ifndef TOPK_LISTS_ACCESS_ENGINE_H_
#define TOPK_LISTS_ACCESS_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lists/access_stats.h"
#include "lists/types.h"

namespace topk {

/// Result of one sorted or direct access.
struct AccessedEntry {
  ItemId item = kInvalidItem;
  Score score = 0.0;
  Position position = kInvalidPosition;
};

/// Access counts and audit trail of one run. Not thread-safe; use one engine
/// per concurrent query execution. An engine is reusable: Reset() zeroes the
/// counters and the audit trail while keeping the backing storage, so
/// repeated queries cost no allocations.
class AccessEngine {
 public:
  /// Clears the counts and sizes the audit trail for `m` lists of `n`
  /// positions. \param audit when true, records how many times each (list,
  /// position) pair is touched; needed only by tests/ablations (costs O(n*m)
  /// memory).
  void Reset(size_t m, size_t n, bool audit = false);

  /// Access counts so far.
  const AccessStats& stats() const { return stats_; }

  /// Stores the run's counts so far (the read policies count in registers
  /// and store their running total once per run).
  void set_stats(const AccessStats& stats) { stats_ = stats; }

  // --- audit trail (enabled via Reset) ---

  /// True when the last Reset enabled the audit trail.
  bool auditing() const { return audit_; }

  /// Records one touch of position `pos` of list `list_index`. Requires
  /// audit mode.
  void RecordTouch(size_t list_index, Position pos) {
    ++touch_counts_[list_index][pos - 1];
  }

  /// Number of times position `pos` of list `list_index` was touched by any
  /// access mode; always 0 when audit mode is off.
  uint32_t TouchCount(size_t list_index, Position pos) const {
    return audit_ ? touch_counts_[list_index][pos - 1] : 0;
  }

  /// Maximum touch count over all positions of a list; always 0 when audit
  /// mode is off.
  uint32_t MaxTouchCount(size_t list_index) const;

 private:
  AccessStats stats_;
  bool audit_ = false;
  std::vector<std::vector<uint32_t>> touch_counts_;  // [list][pos-1]
};

}  // namespace topk

#endif  // TOPK_LISTS_ACCESS_ENGINE_H_
