// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// The Best Position Algorithm (BPA), paper Section 4 — the paper's first
// contribution. BPA scans like TA but additionally records the *positions*
// revealed by sorted and random accesses. Its stopping threshold
// λ = f(s1(bp1), ..., sm(bpm)) is evaluated at each list's best position
// (deepest fully-seen prefix), which is >= TA's sorted depth, so λ <= δ and
// BPA stops at least as early as TA (Lemma 1) and up to (m-1) times earlier
// (Lemma 3).
//
// The Threshold Algorithm (TA), paper Section 3.2 (Fagin/Lotem/Naor;
// Güntzer/Kießling/Balke; Nepal/Ramakrishna), runs on the same loop: it
// scans all lists in parallel, after each row computes the threshold
// δ = f(last scores seen under sorted access) and stops once the buffer holds
// k items with overall score >= δ. BPA is TA with its threshold taken at the
// best positions instead of the last sorted row.
//
// The run loop is templated on the access policy (core/list_io.h):
// TopKAlgorithm (topk_algorithm.cc) instantiates it over the local
// policies, the distributed coordinator over RemoteIo. It reads lists only
// through the policy.

#ifndef TOPK_CORE_BPA_LOOP_H_
#define TOPK_CORE_BPA_LOOP_H_

#include <algorithm>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/execution_context.h"
#include "core/list_io.h"
#include "core/topk_algorithm.h"
#include "core/topk_buffer.h"
#include "tracker/bitarray_tracker.h"

namespace topk {

/// The tracker argument that runs the loop as TA (paper Section 3.2): no
/// best positions are tracked, and the threshold δ combines the last scores
/// seen under sorted access where BPA's λ combines the best-position scores.
struct NoTracker {};

// The run loop is templated on the access policy, the tracker (the bit array,
// or NoTracker for TA) and the concrete scorer. Scorer classes are `final`,
// so under summation every per-access call inlines down to a handful of
// loads; the generic scorer instantiation keeps virtual dispatch.
template <typename IoT, typename TrackerT, typename ScorerT>
Status RunBpaLoop(const AlgorithmOptions& options, const TopKQuery& query,
                  ExecutionContext* context, IoT io, TopKResult* result) {
  constexpr bool kTa = std::is_same_v<TrackerT, NoTracker>;
  const size_t n = io.num_items();
  const size_t m = io.num_lists();
  const bool memoize = options.memoize_seen_items;
  const ScorerT& scorer = static_cast<const ScorerT&>(*query.scorer);

  TopKBuffer& buffer = context->buffer();
  std::vector<Score>& local = context->local_scores();
  std::vector<Score>& last_scores = context->last_scores();  // TA's δ
  if constexpr (kTa && IoT::kFaultAware) {
    // A list can die before its first sorted read and then never writes its
    // cursor score; seed every cursor with the list maximum (an uncounted,
    // decision-free metadata read, as in NRA, CA and FA) so δ stays sound
    // instead of reading whatever the previous run left in the buffer.
    for (size_t i = 0; i < m; ++i) {
      last_scores[i] = io.MaxScore(i);
    }
  }
  // Overall scores already resolved; used only when memoization is on (the
  // paper's accounting model re-issues the random accesses, see Lemma 2).
  ScoreMemo* resolved = memoize ? &context->PrepareMemo(n) : nullptr;
  BitArrayTracker* const trackers = context->trackers();  // unused by TA

  Position depth = 0;
  bool stopped = false;
  // The tracker-word prefetch stage only pays once the mirror (and with it
  // the tracker word arrays) outgrows the fast caches; at cache-resident
  // sizes the extra positions-row read plus m PrefetchMark calls per
  // (depth, list) are pure overhead (~10% BPA throughput at n=10k,
  // measured back-to-back), so it is gated on the mirror exceeding an
  // L2-sized footprint.
  const bool prefetch_marks = io.MirrorBytes() > (size_t{4} << 20);
  // λ cache: best positions only ever grow, so the bp sum is an exact
  // change signature — λ is recomputed only on rows where some bp advanced.
  uint64_t bp_signature = ~uint64_t{0};
  Score threshold = std::numeric_limits<Score>::infinity();  // λ or δ
  QueryGovernor& governor = context->governor();
  Completion reason = Completion::kExact;
  while (!stopped && depth < n) {
    ++depth;
    io.BeginRound();
    // Batching policies (RemoteIo) send random reads a span of rows at a
    // time: at a row no earlier span covers, they refill every live list's
    // sorted window and send, one message per list, the random reads of
    // every item rows depth..last resolve, `last` being the last row all
    // live windows hold. The enumeration replays the resolution decisions
    // the rows below make: a memo hit, or an item the span resolves at an
    // earlier sighting, reads nothing. The local policies read as they go.
    io.BatchSpan(depth, [&](Position last, auto&& add) {
      if (memoize) {
        resolved->BeginSpan();
      }
      for (Position row = depth; row <= last; ++row) {
        for (size_t i = 0; i < m; ++i) {
          if (!io.FetchSorted(i, row, n)) {
            continue;
          }
          const ItemId item = io.PeekItem(i, row);
          if (memoize &&
              (resolved->Contains(item) || !resolved->Announce(item))) {
            continue;
          }
          for (size_t j = 0; j < m; ++j) {
            if (j != i) {
              add(j, item);
            }
          }
        }
      }
    });
    // Fault injection: a dead list's sorted scan is skipped. λ stays a sound
    // upper bound on unseen items — the best-position argument is
    // depth-independent (an item never seen anywhere sits below every bp) —
    // and so does δ: a dead list's last score freezes, and everything unseen
    // still sits below every frozen cursor.
    [[maybe_unused]] bool row_progress = !IoT::kFaultAware;
    for (size_t i = 0; i < m; ++i) {
      if constexpr (IoT::kFaultAware) {
        if (!io.FetchSorted(i, depth, n)) {
          continue;
        }
        row_progress = true;
      }
      const AccessedEntry entry = io.Sorted(i, depth);
      // Prefetch pipelining: the sorted prefix is known ahead of time, so
      // the mirror row (and memo entry) of the row this list will reach
      // kPrefetchRowsAhead iterations from now is requested here, while the
      // current (already prefetched) row is combined — the DRAM latency of a
      // cold random access overlaps ~kPrefetchRowsAhead * m rows of work
      // instead of stalling each row's combine loop.
      if (depth + kPrefetchRowsAhead <= n) {
        const ItemId ahead = io.PeekItem(i, depth + kPrefetchRowsAhead);
        io.PrefetchRow(ahead);
        if (memoize) {
          resolved->Prefetch(ahead);
        }
      }
      // Second pipeline stage (BPA on DRAM-scale databases only): the
      // mirror row two sorted rows ahead is cached by now, so its positions
      // are readable at L1 cost — prefetch the tracker words the marks for
      // that row will hit. Uncounted, decision-free reads: the access
      // pattern and all counters are unchanged.
      if constexpr (!kTa) {
        if (prefetch_marks && depth + kPrefetchMarksAhead <= n) {
          const Position* positions =
              io.PositionsRow(io.PeekItem(i, depth + kPrefetchMarksAhead));
          for (size_t j = 0; j < m; ++j) {
            trackers[j].PrefetchMark(positions[j]);
          }
        }
      }
      if constexpr (kTa) {
        last_scores[i] = entry.score;
      } else {
        trackers[i].MarkSeen(entry.position);
      }
      if (memoize && resolved->Contains(entry.item)) {
        // BPA recorded this item's positions in every list the first time it
        // resolved it; only the buffer offer remains.
        buffer.Offer(entry.item, resolved->Get(entry.item));
        continue;
      }
      if constexpr (IoT::kFaultAware) {
        // TA and BPA resolve every newly seen item with (m-1) random
        // accesses; a dead list makes that impossible — fail over to NRA.
        for (size_t j = 0; j < m; ++j) {
          if (j != i && !io.RandomAlive(j)) {
            io.Flush();
            return context->LoseList(j, "random access is unavailable");
          }
        }
      }
      // Summation needs no per-list score vector: it accumulates in a
      // register (identical addition order to SumScorer::Combine over
      // local[]); other scorers combine local[].
      Score overall = 0.0;
      for (size_t j = 0; j < m; ++j) {
        Score score = entry.score;
        if (j != i) {
          const ItemLookup lookup = io.Random(j, entry.item);
          if constexpr (!kTa) {
            trackers[j].MarkSeen(lookup.position);
          }
          score = lookup.score;
        }
        if constexpr (std::is_same_v<ScorerT, SumScorer>) {
          overall += score;
        } else {
          local[j] = score;
        }
      }
      if constexpr (!std::is_same_v<ScorerT, SumScorer>) {
        overall = scorer.Combine(local.data(), m);
      }
      if (memoize) {
        resolved->Put(entry.item, overall);
      }
      buffer.Offer(entry.item, overall);
    }
    if constexpr (IoT::kFaultAware) {
      if (!row_progress) {
        reason = Completion::kListFailure;
        break;
      }
    }
    // TA's δ combines the row's last scores, BPA's λ the best positions'
    // scores. Reading si(bpi) is not a charged list access: the entry at the
    // best position was necessarily seen already.
    Position min_bp = 0;  // TA traces none
    if constexpr (kTa) {
      threshold = scorer.Combine(last_scores.data(), m);
    } else {
      uint64_t signature = 0;
      for (size_t i = 0; i < m; ++i) {
        signature += trackers[i].best_position();
      }
      if (signature != bp_signature) {
        bp_signature = signature;
        for (size_t i = 0; i < m; ++i) {
          local[i] = BestPositionScore(io, i, trackers[i].best_position());
        }
        threshold = scorer.Combine(local.data(), m);
      }
      if (options.collect_trace) {
        min_bp = static_cast<Position>(n);
        for (size_t i = 0; i < m; ++i) {
          min_bp = std::min(min_bp, trackers[i].best_position());
        }
      }
    }
    if (options.collect_trace) {
      result->trace.push_back(StopRuleTrace{
          depth, threshold,
          buffer.full() ? buffer.KthScore()
                        : std::numeric_limits<double>::quiet_NaN(),
          buffer.size(), min_bp});
    }
    // Strictly above the threshold: a tie could belong to an unseen item
    // with a smaller id (see TopKBuffer::HasKAbove). At depth == n the loop
    // ends with every item resolved — the exact deterministic top-k.
    if (buffer.HasKAbove(threshold)) {
      stopped = true;
    }
    // Governance: one predictable branch per row when nothing is armed.
    if (!stopped &&
        (reason = governor.Charge(io.stats(), 0, io.VirtualLatencyMs())) !=
            Completion::kExact) {
      break;
    }
  }
  io.Flush();

  buffer.AppendSortedItems(&result->items);
  result->stop_position = depth;
  if constexpr (!kTa) {
    Position min_bp = static_cast<Position>(n);
    for (size_t i = 0; i < m; ++i) {
      min_bp = std::min(min_bp, trackers[i].best_position());
    }
    result->min_best_position = min_bp;
  }
  if (reason != Completion::kExact) {
    // Anytime exit: buffered scores are exact (resolved at offer time); λ or
    // δ (from the last completed row) bounds every unseen item, and rejected
    // seen items sit below the k-th buffered score, which CertifyAnytime
    // folds in.
    const Score kth = result->items.empty()
                          ? -std::numeric_limits<Score>::infinity()
                          : result->items.back().score;
    CertifyAnytime(reason, kth, threshold, result);
  }
  return Status::OK();
}

template <typename IoT>
Status DispatchBpa(const AlgorithmOptions& options, const TopKQuery& query,
                   ExecutionContext* context, IoT io, TopKResult* result) {
  context->PrepareTrackers(io.num_items(), io.num_lists());
  if (dynamic_cast<const SumScorer*>(query.scorer) != nullptr) {
    return RunBpaLoop<IoT, BitArrayTracker, SumScorer>(options, query, context,
                                                       io, result);
  }
  return RunBpaLoop<IoT, BitArrayTracker, Scorer>(options, query, context, io,
                                                  result);
}

}  // namespace topk

#endif  // TOPK_CORE_BPA_LOOP_H_
