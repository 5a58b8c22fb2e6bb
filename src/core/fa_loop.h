// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Fagin's Algorithm (FA), paper Section 3.1: scan the lists in parallel until
// at least k items have been seen in *all* lists under sorted access, then
// resolve the remaining local scores with random accesses.
//
// The run loop is templated on the access policy (core/list_io.h):
// TopKAlgorithm (topk_algorithm.cc) instantiates it over the local
// policies. The loop's aliveness guards are `if constexpr`-eliminated for the
// fault-free policies.

#ifndef TOPK_CORE_FA_LOOP_H_
#define TOPK_CORE_FA_LOOP_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "core/execution_context.h"
#include "core/list_io.h"
#include "core/topk_buffer.h"
#include "core/topk_result.h"

namespace topk {

template <typename IoT>
Status RunFaLoop(const TopKQuery& query, ExecutionContext* context, IoT io,
                 TopKResult* result) {
  const size_t n = io.num_items();
  const size_t m = io.num_lists();

  // Phase 1: sorted access in parallel until >= k items are seen in all lists.
  // seen_lists[d] counts the lists where d was seen under sorted access;
  // local[d*m + i] caches the local score revealed by that access.
  std::vector<uint16_t>& seen_lists = context->ZeroedCounts(n);
  std::vector<Score>& local = context->ZeroedScoreMatrix(n * m);
  std::vector<uint8_t>& known = context->ZeroedFlags(n * m);
  std::vector<Score>& last_scores = context->last_scores();
  for (size_t i = 0; i < m; ++i) {
    // Cursor-score bound for lists a fault kills before their first read (an
    // uncounted, decision-free metadata read; overwritten by every access).
    last_scores[i] = io.MaxScore(i);
  }

  QueryGovernor& governor = context->governor();
  Completion reason = Completion::kExact;
  size_t fully_seen = 0;
  Position depth = 0;
  std::vector<ItemId>& row_items = context->ClearedItems();  // last row's items
  // Returns false when no list is left alive (the row made no progress).
  const auto scan_row = [&]() -> bool {
    ++depth;
    row_items.clear();
    [[maybe_unused]] bool progress = !IoT::kFaultAware;
    for (size_t i = 0; i < m; ++i) {
      if constexpr (IoT::kFaultAware) {
        // A dead list's scan freezes; its last_scores entry keeps bounding
        // its unseen entries (they sit below the frozen cursor).
        if (!io.SortedAlive(i)) {
          continue;
        }
        progress = true;
      }
      const AccessedEntry entry = io.Sorted(i, depth);
      last_scores[i] = entry.score;
      row_items.push_back(entry.item);
      const size_t cell = static_cast<size_t>(entry.item) * m + i;
      local[cell] = entry.score;
      known[cell] = 1;
      if (++seen_lists[entry.item] == m) {
        ++fully_seen;
      }
    }
    return progress;
  };

  TopKBuffer& buffer = context->buffer();
  std::vector<Score>& scores = context->local_scores();
  const auto resolve_and_offer = [&](ItemId item) {
    for (size_t i = 0; i < m; ++i) {
      const size_t cell = static_cast<size_t>(item) * m + i;
      if (known[cell]) {
        scores[i] = local[cell];
      } else {
        scores[i] = io.Random(i, item).score;
        local[cell] = scores[i];
        known[cell] = 1;
      }
    }
    buffer.Offer(item, query.scorer->Combine(scores.data(), m));
  };

  // Anytime exit: fully-seen items resolve with zero extra accesses, so they
  // are offered before emitting; the unreturned upper bound sweeps the
  // partially-seen items (unknown cells bounded by their list's cursor
  // score) and folds the all-unseen bound f(last scores).
  const auto anytime = [&](Completion why) -> Status {
    for (ItemId item = 0; item < static_cast<ItemId>(n); ++item) {
      if (seen_lists[item] == m) {
        resolve_and_offer(item);  // every cell is known: no accesses
      }
    }
    io.Flush();
    buffer.AppendSortedItems(&result->items);
    result->stop_position = depth;
    const Score kth = result->items.empty()
                          ? -std::numeric_limits<Score>::infinity()
                          : result->items.back().score;
    Score upper = query.scorer->Combine(last_scores.data(), m);
    for (ItemId item = 0; item < static_cast<ItemId>(n); ++item) {
      if (seen_lists[item] == 0) {
        continue;
      }
      bool partial = false;
      for (size_t i = 0; i < m; ++i) {
        const size_t cell = static_cast<size_t>(item) * m + i;
        if (known[cell]) {
          scores[i] = local[cell];
        } else {
          scores[i] = last_scores[i];
          partial = true;
        }
      }
      if (partial) {
        // Fully-known items were offered (their exact score is either
        // returned or already below the k-th), so only partial items can
        // still beat the answer.
        upper = std::max(upper, query.scorer->Combine(scores.data(), m));
      }
    }
    CertifyAnytime(why, kth, upper, result);
    return Status::OK();
  };

  while (fully_seen < query.k && depth < n) {
    if (!scan_row()) {
      return anytime(Completion::kListFailure);  // every list is dead
    }
    // Governance: one predictable branch per row when nothing is armed.
    if ((reason = governor.Charge(io.stats(), 0, io.VirtualLatencyMs())) !=
        Completion::kExact) {
      return anytime(reason);
    }
  }

  // Phase 2: for every item seen somewhere, resolve missing local scores via
  // random access, aggregate, and keep the k best.
  size_t offered = 0;
  for (ItemId item = 0; item < static_cast<ItemId>(n); ++item) {
    if (seen_lists[item] == 0) {
      continue;
    }
    if constexpr (IoT::kFaultAware) {
      // Resolution needs random access to every unknown cell; a dead list
      // makes FA unservable — fail over to NRA over the survivors.
      for (size_t i = 0; i < m; ++i) {
        if (!known[static_cast<size_t>(item) * m + i] && !io.RandomAlive(i)) {
          io.Flush();
          return context->LoseList(i, "random access is unavailable");
        }
      }
    }
    resolve_and_offer(item);
    if ((++offered & 63u) == 0 &&
        (reason = governor.Charge(io.stats(), 0, io.VirtualLatencyMs())) !=
            Completion::kExact) {
      return anytime(reason);
    }
  }

  // Tie guard for the deterministic (score desc, item id asc) result order:
  // an item unseen in every list is bounded by f(last scores) and could tie
  // the k-th buffered score with a smaller id, so scan on until the boundary
  // is strict (or nothing is unseen). Every already-seen item is fully
  // resolved at this point, so each extra row only needs to resolve the (at
  // most m) items it reveals — re-resolving one costs no accesses and
  // re-offering its deterministic score is a no-op.
  while (depth < n &&
         !buffer.HasKAbove(query.scorer->Combine(last_scores.data(), m))) {
    if (!scan_row()) {
      return anytime(Completion::kListFailure);  // unseen data remains
    }
    for (ItemId item : row_items) {
      if constexpr (IoT::kFaultAware) {
        for (size_t i = 0; i < m; ++i) {
          if (!known[static_cast<size_t>(item) * m + i] &&
              !io.RandomAlive(i)) {
            io.Flush();
            return context->LoseList(i, "random access is unavailable");
          }
        }
      }
      resolve_and_offer(item);
    }
    if ((reason = governor.Charge(io.stats(), 0, io.VirtualLatencyMs())) !=
        Completion::kExact) {
      return anytime(reason);
    }
  }
  io.Flush();

  buffer.AppendSortedItems(&result->items);
  result->stop_position = depth;
  return Status::OK();
}

}  // namespace topk

#endif  // TOPK_CORE_FA_LOOP_H_
