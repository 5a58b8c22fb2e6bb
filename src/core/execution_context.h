// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// ExecutionContext: the reusable per-query scratch state of one algorithm
// execution — the access engine, best-position trackers, top-k buffer, score
// scratch vectors and the memoization table. Algorithms borrow a context per
// run; callers that execute many queries (TopKServer workers, benchmarks,
// coordinators) keep one context per thread and reuse it, which makes the
// hot path allocation-free after warm-up: every structure resets in O(1) or
// O(k)/O(m) writes into storage that is retained across queries and only
// ever grows.

#ifndef TOPK_CORE_EXECUTION_CONTEXT_H_
#define TOPK_CORE_EXECUTION_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/candidate_pool.h"
#include "core/query_governor.h"
#include "core/topk_buffer.h"
#include "lists/access_engine.h"
#include "lists/database.h"
#include "lists/fault_injection.h"
#include "lists/types.h"
#include "tracker/bitarray_tracker.h"

namespace topk {

/// Epoch-stamped memo of resolved overall scores, keyed by dense item id.
/// Replaces the per-query unordered_map of the TA/BPA memoization ablation:
/// one flat array touch per lookup, no hashing, no node allocations, and an
/// O(1) per-query reset (epoch bump instead of clearing n entries).
class ScoreMemo {
 public:
  /// Forgets all entries and guarantees capacity for items 0..n-1. O(1)
  /// except when capacity grows or the 32-bit epoch wraps (every 2^32 resets,
  /// which falls back to one eager clear).
  void Reset(size_t n);

  bool Contains(ItemId item) const { return stamps_[item] == epoch_; }

  /// Memoized overall score of `item`; requires Contains(item).
  Score Get(ItemId item) const { return scores_[item]; }

  void Put(ItemId item, Score score) {
    stamps_[item] = epoch_;
    scores_[item] = score;
  }

  /// Pulls `item`'s stamp and score toward the cache. At DRAM-resident n the
  /// memo arrays are far too large to stay cached, so the TA/BPA loops
  /// prefetch the memo entry alongside the item-major mirror row of the
  /// sorted rows they will process a few iterations from now.
  void Prefetch(ItemId item) const {
    __builtin_prefetch(&stamps_[item]);
    __builtin_prefetch(&scores_[item]);
  }

  /// Span marks, for policies that announce BPA's random reads a span of
  /// rows ahead (RemoteIo): an item the span already announced is resolved
  /// by then, so it must not be announced again. BeginSpan forgets every
  /// mark in O(1), like Reset, and sizes the marks to the memo on first use,
  /// so runs that never announce a span never allocate them.
  void BeginSpan();

  /// Marks `item` announced in the current span; false if it already was.
  bool Announce(ItemId item) {
    if (span_stamps_[item] == span_epoch_) {
      return false;
    }
    span_stamps_[item] = span_epoch_;
    return true;
  }

 private:
  std::vector<uint32_t> stamps_;  // stamps_[item] == epoch_ <=> entry valid
  std::vector<Score> scores_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> span_stamps_;  // == span_epoch_ <=> announced
  uint32_t span_epoch_ = 0;
};

/// Reusable execution state borrowed by an algorithm's run loop. Not
/// thread-safe; use one context per concurrent execution. A context adapts
/// to whatever database/query shape it is prepared for, so one instance can
/// serve mixed workloads (different n, m, k, algorithms) back to back.
class ExecutionContext {
 public:
  ExecutionContext() = default;
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Called by TopKAlgorithm::ExecuteInto before the run: resets the access
  /// counts (and sizes the audit trail when `audit`), resets the top-k buffer
  /// to `k` and zero-fills the per-list score scratch. Tracker/memo/matrix
  /// scratch is prepared lazily by the algorithms that need it.
  void Prepare(const Database& db, bool audit, size_t k);

  /// Prepare for a run whose m lists are not in a local Database — the
  /// distributed coordinator reads them through RemoteIo. Resets the buffer
  /// and the per-list scratch; engine() stays unused.
  void Prepare(size_t m, size_t k);

  /// The run's access counts and audit trail, reset by the last Prepare.
  AccessEngine& engine() { return engine_; }

  /// The paper's set Y, reset to the k of the last Prepare.
  TopKBuffer& buffer() { return buffer_; }

  /// The per-query governance limits (deadline, budgets, cancellation).
  /// Armed by ExecuteInto from AlgorithmOptions::governor; callers that hold
  /// the context may RequestCancel() on it from another thread.
  QueryGovernor& governor() { return governor_; }

  /// The fault injector the FaultIo policy rolls; its lists die through the
  /// shared FaultSchedule. Armed by ExecuteInto when
  /// AlgorithmOptions::fault_plan is enabled; stays armed across an in-flight
  /// NRA failover so dead lists stay dead and the schedule continues.
  FaultInjectingAccessEngine& faults() { return faults_; }

  /// The random-access loops' failover signal (FA, TA, BPA, BPA2, TPUT):
  /// records that `list` died permanently and what the loop lost with it
  /// (`reason`, a string literal), and returns a prebuilt Unavailable status
  /// whose copy allocates nothing. ExecuteInto and the Coordinator discard
  /// it when NRA takes over.
  Status LoseList(size_t list, const char* reason);

  /// The last LoseList as a named status, "<engine>: list <j> died
  /// permanently; <reason>", for a caller that returns it instead of
  /// failing over (NRA serves at most CandidatePool::kMaxLists lists).
  Status LostListStatus(const char* engine) const;

  // --- per-list score scratch, sized m and zero-filled by Prepare ---

  std::vector<Score>& local_scores() { return local_scores_; }
  std::vector<Score>& last_scores() { return last_scores_; }
  std::vector<Score>& bound_scores() { return bound_scores_; }

  // --- lazily prepared scratch ---

  /// Ensures m reset best-position trackers for lists of n positions.
  /// Existing trackers are reused via Reset() (O(1)); they are only
  /// (re)created when the list size changes.
  void PrepareTrackers(size_t n, size_t m);

  /// The trackers of the last PrepareTrackers, contiguous: BPA/BPA2 index
  /// them with no pointer chase.
  BitArrayTracker* trackers() { return trackers_.data(); }

  /// The memo table for the memoize_seen_items ablation, reset for items
  /// 0..n-1.
  ScoreMemo& PrepareMemo(size_t n) {
    memo_.Reset(n);
    return memo_;
  }

  /// The flat candidate pool of the no-random-access family (NRA/CA/TPUT),
  /// reset for a query of `k` over `m` lists of `n` items at score `floor`.
  /// O(1) reset via epoch stamping; storage — including the pool's mmap'd,
  /// hugepage-advised arena (core/pool_arena.h) — is retained across
  /// queries, so a warmed context sizes itself to the workload once and then
  /// serves queries without growing. `groups` picks the pool's per-mask
  /// group index (see CandidatePool::Reset): the max side for NRA's stop
  /// checks, the dual heap for CA's per-stop-check prune peels (a
  /// per-registration cost only its peel frequency justifies), none for
  /// TPUT's one phase-3 sweep and the non-sum scorers' per-candidate sweeps.
  CandidatePool& PreparePool(size_t n, size_t m, size_t k, Score floor,
                             GroupIndex groups) {
    pool_.Reset(n, m, k, floor, groups);
    return pool_;
  }

  /// Read-only view of the candidate pool as the last pool algorithm left it
  /// (tests inspect peak occupancy and arena sizing after a run; a later
  /// PreparePool resets).
  const CandidatePool& pool() const { return pool_; }

  /// Zero-filled scratch of `count` scores (FA/naive gather matrices).
  std::vector<Score>& ZeroedScoreMatrix(size_t count) {
    score_matrix_.assign(count, 0.0);
    return score_matrix_;
  }

  /// Zero-filled byte flags of length `count`.
  std::vector<uint8_t>& ZeroedFlags(size_t count) {
    flags_.assign(count, 0);
    return flags_;
  }

  /// Zero-filled uint16 counters of length `count`.
  std::vector<uint16_t>& ZeroedCounts(size_t count) {
    counts_.assign(count, 0);
    return counts_;
  }

  /// Emptied (capacity-retaining) item-id scratch.
  std::vector<ItemId>& ClearedItems() {
    item_scratch_.clear();
    return item_scratch_;
  }

  /// Emptied (capacity-retaining) position scratch (TPUT's per-list depths).
  std::vector<Position>& ClearedPositions() {
    position_scratch_.clear();
    return position_scratch_;
  }

  /// Emptied (capacity-retaining) generic 32-bit scratch. TPUT collects its
  /// phase-3 survivor slots here; CA collects prune-victim item ids (ItemId
  /// aliases uint32_t — if item ids ever widen, CA needs its own scratch).
  std::vector<uint32_t>& ClearedSlots() {
    slot_scratch_.clear();
    return slot_scratch_;
  }

 private:
  AccessEngine engine_;
  QueryGovernor governor_;
  FaultInjectingAccessEngine faults_;
  TopKBuffer buffer_;
  std::vector<Score> local_scores_;
  std::vector<Score> last_scores_;
  std::vector<Score> bound_scores_;
  size_t lost_list_ = 0;             // the last LoseList
  const char* lost_reason_ = "";

  std::vector<BitArrayTracker> trackers_;
  size_t tracker_list_size_ = 0;  // the list size trackers_ were built for

  ScoreMemo memo_;
  CandidatePool pool_;
  std::vector<Score> score_matrix_;
  std::vector<uint8_t> flags_;
  std::vector<uint16_t> counts_;
  std::vector<ItemId> item_scratch_;
  std::vector<Position> position_scratch_;
  std::vector<uint32_t> slot_scratch_;
};

}  // namespace topk

#endif  // TOPK_CORE_EXECUTION_CONTEXT_H_
