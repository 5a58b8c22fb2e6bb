// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// NRA — "No Random Access" (Fagin, Lotem, Naor; the paper's reference [15]).
// Included as a comparison baseline for settings where random access is
// unavailable or prohibitively expensive. NRA performs only sorted accesses
// and maintains, for every seen item, a lower bound (unknown local scores
// replaced by the score floor) and an upper bound (unknown scores replaced by
// the current last-seen score of the respective list). It stops when the k-th
// best lower bound is at least (a) the upper bound of every other seen item
// and (b) the threshold f(last scores), which upper-bounds all unseen items.
//
// NRA certifies top-k *membership*; the exact overall scores of the winners
// may still be open when it stops. For reporting and test comparability the
// implementation resolves the winners' exact scores with uncounted reads —
// the access metrics stay faithful to the NRA model (zero random accesses).
// A run that ends with a dead list (fault injection, or the distributed
// coordinator's degraded path) cannot read the dead cells: it reports
// Completion::kListFailure with the winners' certified lower bounds instead.
//
// The run loop is templated on the access policy (core/list_io.h):
// TopKAlgorithm (topk_algorithm.cc) instantiates it over the local
// policies and calls it directly for the random-access algorithms' fault
// failover; the distributed coordinator runs it over RemoteIo for its
// degraded path. It reads lists only through the policy.

#ifndef TOPK_CORE_NRA_LOOP_H_
#define TOPK_CORE_NRA_LOOP_H_

#include <algorithm>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/candidate_bounds.h"
#include "core/candidate_pool.h"
#include "core/execution_context.h"
#include "core/list_io.h"
#include "core/topk_algorithm.h"

namespace topk {

// Stop-rule cadence: the rule is evaluated every kNraCheckInterval rows
// (correct — checking less often can only delay the stop, never produce a
// wrong answer). Sorted access is round-batched on the same cadence: each
// round reads a block of kNraCheckInterval rows per list, which keeps one
// list's entries (and its cursor state) hot instead of touching all m lists
// per row.
// The pool state at a round boundary is identical to the row-major order's —
// the same (list, depth) prefix has been recorded and the threshold heap's
// membership is order-independent — so stop positions and access counts are
// unchanged.
inline constexpr Position kNraCheckInterval = 8;

// Templated on the access policy and the concrete scorer (like TA/BPA): the
// default configuration — raw list reads, summation scoring — inlines the
// whole row loop and evaluates the stop rule on the pool's per-mask group
// index in O(#groups) instead of sweeping every candidate. Non-summation
// scorers fall back to the per-candidate sweep (their bounds do not decompose
// per mask).
template <typename IoT, typename ScorerT>
Status RunNraLoop(const AlgorithmOptions& options, const TopKQuery& query,
                  ExecutionContext* context, IoT io, TopKResult* result) {
  const size_t n = io.num_items();
  const size_t m = io.num_lists();
  const ScorerT& scorer = static_cast<const ScorerT&>(*query.scorer);

  // The group index serves only the summation stop rule; the generic-scorer
  // fallback sweeps per candidate, so it skips the index maintenance. NRA
  // leaves the groups' min side off: it would be pushed on each of ~n
  // registrations but peeled only by the rare watermark-triggered
  // compactions (see CandidatePool::Reset), so compaction walks the max
  // side instead.
  CandidatePool& pool = context->PreparePool(
      n, m, query.k, options.score_floor,
      std::is_same_v<ScorerT, SumScorer> ? GroupIndex::kMaxSide
                                         : GroupIndex::kNone);
  std::vector<Score>& last_scores = context->last_scores();
  if constexpr (IoT::kFaultAware) {
    // A list can be dead before its first read (the NRA failover after a
    // random-access algorithm lost it) and then never writes its cursor
    // score; seed every cursor with the list maximum (an uncounted,
    // decision-free metadata read) so the bounds stay sound instead of
    // reading whatever the previous run left in the scratch buffer.
    for (size_t i = 0; i < m; ++i) {
      last_scores[i] = io.MaxScore(i);
    }
  }
  std::vector<Score>& tmp = context->bound_scores();
  const double margin = SummationErrorMargin(io, options.score_floor);

  std::vector<ItemId>& winners = context->ClearedItems();
  // Pool-compaction watermark: once the pool reaches it, candidates whose
  // upper bound is strictly below the k-th lower bound are erased (a
  // behavioral no-op for NRA, see GroupCompact) and the watermark resets to
  // 1.25x the surviving size — occupancy hugs the live population instead
  // of O(every seen item), the difference between ~k-digit pools and
  // n-sized pools at DRAM-scale n. The tight 1.25x productive schedule
  // (rather than 2x) is affordable because a productive pass's walk is
  // dominated by the subtree-bulk victim collection it erases — the walk
  // amortizes against the erasures, so re-triggering at 1.25x live instead
  // of 2x only re-walks what genuinely survived.
  size_t compact_watermark =
      std::max<size_t>(options.nra_compaction_floor, 2 * query.k);
  int unproductive_passes = 0;  // consecutive; escalates the backoff
  QueryGovernor& governor = context->governor();
  Completion reason = Completion::kExact;
  Score unseen_upper = std::numeric_limits<Score>::infinity();
  Position depth = 0;
  while (depth < n) {
    io.BeginRound();
    const Position round_end = std::min<Position>(
        depth + kNraCheckInterval, static_cast<Position>(n));
    for (size_t i = 0; i < m; ++i) {
      for (Position d = depth + 1; d <= round_end; ++d) {
        if constexpr (IoT::kFaultAware) {
          // A dead list's scan freezes; its last_scores entry keeps
          // bounding the list's unseen entries (they all sit below the
          // frozen cursor), so every bound stays sound over the survivors.
          if (!io.FetchSorted(i, d, n)) {
            break;
          }
        }
        // Prefetch pipelining (same discipline as the TA/BPA mirror
        // prefetches): request the pool's index cell for the item this list
        // reveals kPrefetchRowsAhead rows from now — the item id is read
        // straight off the list's sequential (cache-resident) item array,
        // uncounted and decision-free, so the access pattern is untouched
        // while the FindOrInsert lookup's DRAM latency overlaps the rows in
        // between.
        if (d + kPrefetchRowsAhead <= n) {
          pool.PrefetchItem(io.PeekItem(i, d + kPrefetchRowsAhead));
        }
        const AccessedEntry entry = io.Sorted(i, d);
        last_scores[i] = entry.score;
        const uint32_t slot = pool.FindOrInsert(entry.item);
        if (pool.SetSeen(slot, i, entry.score)) {
          // The row's unknown cells hold the floor, so combining it is the
          // lower bound; bounds only grow, so the threshold heap and the
          // group index update incrementally instead of being rebuilt per
          // check.
          pool.OfferLower(slot, scorer.Combine(pool.row(slot), m));
        }
      }
    }
    depth = round_end;

    unseen_upper = scorer.Combine(last_scores.data(), m);
    if (options.collect_trace) {
      result->trace.push_back(StopRuleTrace{
          depth, unseen_upper,
          pool.HeapFull() ? pool.KthLower()
                          : std::numeric_limits<double>::quiet_NaN(),
          pool.heap_size(), 0});
    }
    if (!pool.HeapFull()) {
      // The round still consumed accesses (and possibly pool bytes), so the
      // governor must see it even though no stop rule can fire yet.
      if ((reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                    io.VirtualLatencyMs())) !=
          Completion::kExact) {
        break;
      }
      continue;
    }
    // Unseen items are bounded by the row threshold. Their ids are unknown,
    // so a tie could still displace the k-th buffered (score, id) pair —
    // the stop requires a strictly larger k-th lower bound (or a complete
    // scan, after which nothing is unseen). Seen candidates are checked
    // id-aware: the group walk (summation) and the fallback sweep both block
    // on any candidate whose (upper bound, id) still beats the weakest heap
    // member. This keeps the returned set exactly the deterministic
    // (score desc, item id asc) top-k.
    bool can_stop = pool.KthLower() > unseen_upper;
    if constexpr (IoT::kFaultAware) {
      // A full scan only certifies exactness when every list was actually
      // read to the bottom — dead cells never resolve.
      can_stop = can_stop || (depth == n && io.DeadLists() == 0);
    } else {
      can_stop = can_stop || depth == n;
    }
    if constexpr (std::is_same_v<ScorerT, SumScorer>) {
      // Deliberate trade vs the old sweep: disqualified candidates are never
      // erased (the group walk just skips their subtrees), so the pool grows
      // to every distinct seen item for the life of the query. Erasure is
      // observably a no-op for NRA — a re-seen erased candidate re-enters
      // with weaker knowledge and a provably sub-threshold bound — and
      // skipping it keeps the walk side-effect-free and early-exitable; the
      // memory trade is tracked in ROADMAP.md. The walk itself only runs
      // when the cheap threshold tests pass.
      if (can_stop &&
          GroupFindBlocker(pool, last_scores, options.score_floor, margin)) {
        can_stop = false;
      }
    } else {
      if (PruneAndFindBlocker(pool, scorer, last_scores, tmp)) {
        can_stop = false;
      }
    }
    if (can_stop) {
      pool.AppendHeapItems(&winners);
      break;
    }
    if constexpr (std::is_same_v<ScorerT, SumScorer>) {
      if (options.nra_pool_compaction && pool.size() >= compact_watermark) {
        const size_t before = pool.size();
        GroupCompact(pool, last_scores, options.score_floor, margin,
                     context->ClearedSlots());
        const size_t after = pool.size();
        // Productive passes (a quarter or more erased — on the compactable
        // shapes they erase 80%+) reset the watermark tight: 1.25x the
        // surviving live set (rather than 2x), so occupancy hugs the live
        // population. The quarter bar also keeps marginally-dead pools out
        // of the tight schedule: resetting tight on a 10% erase makes the
        // live-heavy shapes churn (erase, re-see, re-insert) near the
        // productivity boundary. Unproductive passes back off with
        // escalation — 2x on the first, 4x from the second in a row: the
        // first unproductive pass is usually just the threshold heap not
        // being strong *yet* (its backoff bounds the peak, so it should be
        // gentle — on the gaussian n=1M smoke the peak is exactly the first
        // backoff's landing point), while a streak means the pool is
        // genuinely live (uniform m=5: hundreds of thousands of
        // partially-seen candidates block mid-scan) and each O(live) walk
        // has nothing to amortize it, so the ladder must outrun the pool.
        if (before - after >= before / 4) {
          unproductive_passes = 0;
          compact_watermark = std::max<size_t>(options.nra_compaction_floor,
                                               after + after / 4);
        } else {
          ++unproductive_passes;
          compact_watermark = std::max<size_t>(
              options.nra_compaction_floor,
              (unproductive_passes >= 2 ? 4 : 2) * before);
        }
      }
    }
    // Governance: one predictable branch per round when nothing is armed.
    // Placed after the stop check so an exact stop always wins.
    if ((reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                  io.VirtualLatencyMs())) !=
        Completion::kExact) {
      break;
    }
  }
  io.Flush();

  if constexpr (IoT::kFaultAware) {
    if (reason == Completion::kExact && io.DeadLists() > 0) {
      // Either the scan ran out of live rows without a certified stop —
      // unseen data remains behind the dead cursors — or the stop certified
      // membership, but a dead list's unread cells cannot resolve the
      // winners' exact scores (a permanent death removes data, see
      // lists/fault_injection.h). Both degrade, as CA does.
      reason = Completion::kListFailure;
    }
  }
  if (reason != Completion::kExact) {
    // Anytime exit: report the threshold heap with its certified lower
    // bounds — NRA's contract charges every read, so a degraded answer gets
    // no uncounted raw-score resolution. The unreturned upper bound folds
    // the unseen-item threshold with the strongest surviving non-heap
    // candidate's upper bound.
    if (winners.empty()) {
      pool.AppendHeapItems(&winners);
    }
    CertifyPoolAnytime(reason, pool, winners, scorer, last_scores,
                       unseen_upper, tmp, result);
    result->stop_position = depth;
    return Status::OK();
  }

  if (winners.empty()) {
    // Defensive: a full scan resolves every bound exactly, so the heap is the
    // exact top-k.
    pool.AppendHeapItems(&winners);
  }

  // Membership is certified; resolve exact winner scores for reporting
  // (uncounted — outside the NRA access model, see header).
  result->items.reserve(winners.size());
  for (ItemId item : winners) {
    for (size_t i = 0; i < m; ++i) {
      tmp[i] = io.ExactScore(i, item);
    }
    result->items.push_back(ResultItem{item, scorer.Combine(tmp.data(), m)});
  }
  result->stop_position = depth;
  return Status::OK();
}

template <typename IoT>
Status DispatchNra(const AlgorithmOptions& options, const TopKQuery& query,
                   ExecutionContext* context, IoT io, TopKResult* result) {
  if (dynamic_cast<const SumScorer*>(query.scorer) != nullptr) {
    return RunNraLoop<IoT, SumScorer>(options, query, context, io, result);
  }
  return RunNraLoop<IoT, Scorer>(options, query, context, io, result);
}

}  // namespace topk

#endif  // TOPK_CORE_NRA_LOOP_H_
