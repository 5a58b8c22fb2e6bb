// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// BPA2, paper Section 5 — the paper's second contribution. Same stopping rule
// as BPA, but sorted access is replaced by *direct access* to position bpi+1,
// which is by construction the smallest unseen position of the list. Hence no
// list position is ever accessed twice (Theorem 5) and the total number of
// accesses can be about (m-1) times lower than BPA's (Theorem 8). Best
// positions are conceptually managed by the list owners; the query originator
// only keeps Y and the m best-position scores.
//
// The run loop is templated like BPA's (core/bpa_loop.h) on the access
// policy and the concrete scorer: under summation all per-access work
// inlines.
// TopKAlgorithm (topk_algorithm.cc) instantiates it over the local policies.

#ifndef TOPK_CORE_BPA2_LOOP_H_
#define TOPK_CORE_BPA2_LOOP_H_

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

template <typename IoT, typename ScorerT>
Status RunBpa2Loop(const AlgorithmOptions& options, const TopKQuery& query,
                   ExecutionContext* context, IoT io, TopKResult* result) {
  const size_t n = io.num_items();
  const size_t m = io.num_lists();
  const ScorerT& scorer = static_cast<const ScorerT&>(*query.scorer);

  TopKBuffer& buffer = context->buffer();
  std::vector<Score>& local = context->local_scores();
  BitArrayTracker* const trackers = context->trackers();

  uint64_t rounds = 0;
  // λ cache: best positions only ever grow, so the bp sum is an exact
  // change signature — λ is recomputed only on rounds where some bp advanced.
  uint64_t bp_signature = ~uint64_t{0};
  Score lambda = std::numeric_limits<Score>::infinity();
  QueryGovernor& governor = context->governor();
  Completion reason = Completion::kExact;
  for (;;) {
    // One round: per list, direct access to the smallest unseen position
    // (bpi + 1 evaluated *now*, so random accesses earlier in this round that
    // advanced bpi are respected — this is what guarantees Theorem 5), then
    // (m-1) random accesses for the revealed item.
    bool any_access = false;
    // Speculative prefetch of every list's upcoming direct-access slot: bp
    // may still advance before list i's turn (the prefetch is then wasted,
    // which is unobservable), but when it does not — the common case — the
    // direct access below finds its sorted entry already in flight. BPA2's
    // bp jumps defeat the hardware stream prefetcher, so without this every
    // round serializes on m cold loads.
    for (size_t i = 0; i < m; ++i) {
      const Position bp = trackers[i].best_position();
      if (bp < n) {
        io.PrefetchEntry(i, bp + 1);
      }
    }
    for (size_t i = 0; i < m; ++i) {
      if constexpr (IoT::kFaultAware) {
        // A dead list stops contributing direct accesses (its bp freezes,
        // which keeps λ sound); whether the answer stays exact is decided
        // at the exhaustion exit below.
        if (!io.SortedAlive(i)) {
          continue;
        }
      }
      const Position bp = trackers[i].best_position();
      if (bp >= n) {
        continue;  // list fully seen
      }
      if constexpr (IoT::kFaultAware) {
        // The revealed item needs (m-1) random accesses; a dead list makes
        // BPA2 unservable — fail over to NRA.
        for (size_t j = 0; j < m; ++j) {
          if (j != i && !io.RandomAlive(j)) {
            io.Flush();
            return context->LoseList(j, "random access is unavailable");
          }
        }
      }
      const AccessedEntry entry = io.Direct(i, bp + 1);
      // Request the revealed item's mirror row before the tracker walks its
      // seen bits: MarkSeen's best-position advance overlaps the row fetch.
      io.PrefetchRow(entry.item);
      trackers[i].MarkSeen(entry.position);
      any_access = true;
      Score overall;
      if constexpr (std::is_same_v<ScorerT, SumScorer>) {
        // Summation needs no per-list score vector: accumulate in a register
        // (identical addition order to SumScorer::Combine over local[]).
        overall = 0.0;
        for (size_t j = 0; j < m; ++j) {
          if (j == i) {
            overall += entry.score;
            continue;
          }
          const ItemLookup lookup = io.Random(j, entry.item);
          trackers[j].MarkSeen(lookup.position);
          overall += lookup.score;
        }
      } else {
        for (size_t j = 0; j < m; ++j) {
          if (j == i) {
            local[j] = entry.score;
            continue;
          }
          const ItemLookup lookup = io.Random(j, entry.item);
          trackers[j].MarkSeen(lookup.position);
          local[j] = lookup.score;
        }
        overall = scorer.Combine(local.data(), m);
      }
      buffer.Offer(entry.item, overall);
    }
    if (!any_access) {
      if constexpr (IoT::kFaultAware) {
        // Exhaustion with a dead, not-fully-seen list means unseen data
        // remains: the answer is complete only over the survivors.
        for (size_t i = 0; i < m; ++i) {
          if (!io.SortedAlive(i) && trackers[i].best_position() < n) {
            reason = Completion::kListFailure;
            break;
          }
        }
      }
      break;  // every position of every live list has been seen
    }
    ++rounds;
    // λ over the best-position scores; the owners return si(bpi) alongside
    // accesses (paper step 3), so no extra charged access is needed.
    uint64_t signature = 0;
    for (size_t i = 0; i < m; ++i) {
      signature += trackers[i].best_position();
    }
    if (signature != bp_signature) {
      bp_signature = signature;
      for (size_t i = 0; i < m; ++i) {
        local[i] = BestPositionScore(io, i, trackers[i].best_position());
      }
      lambda = scorer.Combine(local.data(), m);
    }
    if (options.collect_trace) {
      Position min_bp = static_cast<Position>(n);
      for (size_t i = 0; i < m; ++i) {
        min_bp = std::min(min_bp, trackers[i].best_position());
      }
      result->trace.push_back(StopRuleTrace{
          static_cast<Position>(rounds), lambda,
          buffer.full() ? buffer.KthScore()
                        : std::numeric_limits<double>::quiet_NaN(),
          buffer.size(), min_bp});
    }
    // Strictly above λ: a tie could belong to an unseen item with a smaller
    // id (see TopKBuffer::HasKAbove). Once every position is seen the loop
    // ends via !any_access with every item resolved.
    if (buffer.HasKAbove(lambda)) {
      break;
    }
    // Governance: one predictable branch per round when nothing is armed.
    if ((reason = governor.Charge(io.stats(), 0, io.VirtualLatencyMs())) !=
        Completion::kExact) {
      break;
    }
  }
  io.Flush();

  buffer.AppendSortedItems(&result->items);
  result->stop_position = static_cast<Position>(rounds);
  Position min_bp = static_cast<Position>(n);
  for (size_t i = 0; i < m; ++i) {
    min_bp = std::min(min_bp, trackers[i].best_position());
  }
  result->min_best_position = min_bp;
  if (reason != Completion::kExact) {
    // Anytime exit: buffered scores are exact (BPA2 fully resolves every
    // revealed item in-round), λ bounds every unseen item.
    const Score kth = result->items.empty()
                          ? -std::numeric_limits<Score>::infinity()
                          : result->items.back().score;
    CertifyAnytime(reason, kth, lambda, result);
  }
  return Status::OK();
}

template <typename IoT>
Status DispatchBpa2(const AlgorithmOptions& options, const TopKQuery& query,
                    ExecutionContext* context, IoT io, TopKResult* result) {
  context->PrepareTrackers(io.num_items(), io.num_lists());
  if (dynamic_cast<const SumScorer*>(query.scorer) != nullptr) {
    return RunBpa2Loop<IoT, SumScorer>(options, query, context, io, result);
  }
  return RunBpa2Loop<IoT, Scorer>(options, query, context, io, result);
}

}  // namespace topk

#endif  // TOPK_CORE_BPA2_LOOP_H_
