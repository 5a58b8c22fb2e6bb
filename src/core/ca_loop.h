// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// CA — the "Combined Algorithm" of Fagin, Lotem and Naor (the paper's
// reference [15]), included to complete the middleware-cost framework the
// paper builds on. CA interpolates between NRA and TA based on the cost
// ratio h = cr/cs: it scans like NRA, and once every h rows it spends the
// equivalent of one random access per list to fully resolve the unresolved
// candidate with the highest upper bound. With cr >> cs this avoids TA's
// per-row random-access storm while stopping far earlier than NRA.
//
// Like NRA, CA lower-bounds unknown local scores with the configured score
// floor (AlgorithmOptions::score_floor) and rejects databases violating it
// (ValidatePoolQuery). TopKAlgorithm (topk_algorithm.cc) instantiates the
// run loop over the local policies.

#ifndef TOPK_CORE_CA_LOOP_H_
#define TOPK_CORE_CA_LOOP_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/candidate_bounds.h"
#include "core/candidate_pool.h"
#include "core/execution_context.h"
#include "core/list_io.h"
#include "core/topk_algorithm.h"

namespace topk {

// Templated on the access policy and the concrete scorer (like TA/BPA): the
// default configuration — raw list reads, summation scoring — inlines the
// row loop and runs both the stop rule and the victim selection on the
// pool's per-mask group index in O(#groups) instead of sweeping every
// candidate. Sorted access is round-batched between resolution boundaries
// (one block of rows per list per round), which is behavior-preserving: no
// decision is taken mid-round and the pool state at a boundary is
// order-independent. Non-summation scorers fall back to the per-candidate
// sweeps (their bounds do not decompose per mask).
template <typename IoT, typename ScorerT>
Status RunCaLoop(const AlgorithmOptions& options, const TopKQuery& query,
                 ExecutionContext* context, IoT io, TopKResult* result) {
  const size_t n = io.num_items();
  const size_t m = io.num_lists();
  const ScorerT& scorer = static_cast<const ScorerT&>(*query.scorer);

  const CostModel model =
      options.cost_model.value_or(CostModel::PaperDefault(n));
  // Resolve one candidate every h rows; h = cr/cs rounded, at least 1. Every
  // h > n runs alike (no resolution before the final stop check), so h is
  // clamped to n + 1 in floating point: a ratio past Position's range
  // (ExecuteInto admits any finite, non-negative costs) must not reach the
  // cast.
  const Position resolve_every = static_cast<Position>(std::clamp(
      std::round(model.random_cost / std::max(1e-9, model.sorted_cost)), 1.0,
      static_cast<double>(n) + 1.0));

  // The group index serves only the summation stop rule and victim argmax;
  // the generic-scorer fallback sweeps per candidate, so it skips the index
  // maintenance. CA is the one consumer of the groups' min side: its
  // prune-and-erase pass runs at every stop check (every h rows), which is
  // what amortizes the min side's per-registration entry pushes.
  CandidatePool& pool = context->PreparePool(
      n, m, query.k, options.score_floor,
      std::is_same_v<ScorerT, SumScorer> ? GroupIndex::kDualHeap
                                         : GroupIndex::kNone);
  std::vector<Score>& last_scores = context->last_scores();
  if constexpr (IoT::kFaultAware) {
    // Sound cursor bounds even for a list dead before its first read (see
    // nra_loop.h; defensive here — CA is never the failover target).
    for (size_t i = 0; i < m; ++i) {
      last_scores[i] = io.MaxScore(i);
    }
  }
  std::vector<Score>& tmp = context->bound_scores();
  const double margin = SummationErrorMargin(io, options.score_floor);

  // Fully resolves a candidate with charged random accesses; afterwards its
  // lower bound is its exact overall score. Under fault injection dead lists
  // are skipped: their cells stay unresolved (the candidate may be selected
  // again, which re-resolves nothing — harmless), so the offered bound stays
  // a lower bound over the survivors.
  const auto resolve = [&](uint32_t slot) {
    const ItemId item = pool.item_at(slot);
    for (size_t i = 0; i < m; ++i) {
      if constexpr (IoT::kFaultAware) {
        if (!io.RandomAlive(i)) {
          continue;
        }
      }
      if (!(pool.mask(slot) >> i & 1)) {
        pool.SetSeen(slot, i, io.Random(i, item).score);
      }
    }
    pool.OfferLower(slot, scorer.Combine(pool.row(slot), m));
  };

  std::vector<ItemId>& winners = context->ClearedItems();
  QueryGovernor& governor = context->governor();
  Completion reason = Completion::kExact;
  Score unseen_upper = std::numeric_limits<Score>::infinity();
  Position depth = 0;
  while (depth < n) {
    // One round: a block of rows per list up to the next resolution/stop
    // boundary (every h rows, plus the end of the lists).
    const Position round_end =
        std::min<Position>(depth + resolve_every, static_cast<Position>(n));
    for (size_t i = 0; i < m; ++i) {
      for (Position d = depth + 1; d <= round_end; ++d) {
        if constexpr (IoT::kFaultAware) {
          // A dead list's scan freezes; its last_scores entry keeps bounding
          // its unseen entries (they sit below the frozen cursor), so all
          // bounds stay sound over the survivors.
          if (!io.SortedAlive(i)) {
            break;
          }
        }
        // Index-cell prefetch pipelining — uncounted, decision-free; see
        // nra_loop.h.
        if (d + kPrefetchRowsAhead <= n) {
          pool.PrefetchItem(io.PeekItem(i, d + kPrefetchRowsAhead));
        }
        const AccessedEntry entry = io.Sorted(i, d);
        last_scores[i] = entry.score;
        const uint32_t slot = pool.FindOrInsert(entry.item);
        if (pool.SetSeen(slot, i, entry.score)) {
          pool.OfferLower(slot, scorer.Combine(pool.row(slot), m));
        }
      }
    }
    depth = round_end;
    unseen_upper = scorer.Combine(last_scores.data(), m);

    // Every h rows: fully resolve the unresolved candidate with the largest
    // upper bound (the one blocking the stop rule the hardest). Ties are
    // broken toward the smaller item id so the access pattern — not just the
    // answer — is deterministic.
    if (depth % resolve_every == 0) {
      uint32_t best_slot = CandidatePool::kNoSlot;
      if constexpr (std::is_same_v<ScorerT, SumScorer>) {
        best_slot = GroupArgmaxUnresolved(pool, last_scores,
                                          options.score_floor, margin);
      } else {
        ItemId best_item = kInvalidItem;
        Score best_upper = -std::numeric_limits<Score>::infinity();
        for (uint32_t slot = 0; slot < pool.size(); ++slot) {
          if (pool.fully_known(slot)) {
            continue;
          }
          const Score upper =
              PoolUpperBound(pool, slot, scorer, last_scores, tmp);
          if (upper > best_upper ||
              (upper == best_upper && pool.item_at(slot) < best_item)) {
            best_upper = upper;
            best_slot = slot;
            best_item = pool.item_at(slot);
          }
        }
      }
      if (best_slot != CandidatePool::kNoSlot) {
        resolve(best_slot);
      }
    }

    // Stop rule (NRA-style, checked with the same cadence as the resolver).
    // The governor is charged on every path out of the round — after the
    // natural stop check where one exists, so an exact stop always wins.
    if ((depth % resolve_every != 0 && depth != n) || !pool.HeapFull()) {
      if ((reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                    io.VirtualLatencyMs())) !=
          Completion::kExact) {
        break;
      }
      continue;
    }
    // Strict against unseen items (unknown ids could win the deterministic
    // tie-break); the id-aware blocking check against seen candidates is the
    // group walk (summation) or the fallback sweep. See nra_loop.h.
    bool can_stop = pool.KthLower() > unseen_upper;
    if constexpr (IoT::kFaultAware) {
      // A full scan only certifies when every list was read to the bottom.
      can_stop = can_stop || (depth == n && io.DeadLists() == 0);
    } else {
      can_stop = can_stop || depth == n;
    }
    if constexpr (std::is_same_v<ScorerT, SumScorer>) {
      // Unlike NRA, the check must also reproduce the sweep's pruning: the
      // victim selection above ranges over the surviving pool, so erasures
      // are part of CA's observable access pattern.
      if (GroupPruneAndFindBlocker(pool, last_scores, options.score_floor,
                                   margin, context->ClearedSlots())) {
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
    if ((reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                  io.VirtualLatencyMs())) !=
        Completion::kExact) {
      break;
    }
  }

  if constexpr (IoT::kFaultAware) {
    if (reason == Completion::kExact && io.DeadLists() > 0) {
      // With a dead list CA cannot resolve winners exactly (its contract is
      // charged resolution — no uncounted raw reads), so even a certified
      // membership degrades to lower-bound scores.
      reason = Completion::kListFailure;
    }
  }
  if (reason != Completion::kExact) {
    // Anytime exit. On a list failure the membership may still be certified
    // (winners already appended); tighten each winner with charged random
    // accesses over the surviving lists, then report its lower bound. On a
    // budget/deadline trip no further accesses are spent.
    if (winners.empty()) {
      pool.AppendHeapItems(&winners);
    }
    if (reason == Completion::kListFailure) {
      for (ItemId item : winners) {
        resolve(pool.FindSlot(item));
      }
    }
    io.Flush();
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

  // Resolve winners exactly: charged random accesses for still-unknown local
  // scores (unlike NRA, CA has random access at its disposal).
  result->items.reserve(winners.size());
  for (ItemId item : winners) {
    const uint32_t slot = pool.FindSlot(item);
    resolve(slot);
    result->items.push_back(
        ResultItem{item, scorer.Combine(pool.row(slot), m)});
  }
  io.Flush();
  result->stop_position = depth;
  return Status::OK();
}

template <typename IoT>
Status DispatchCa(const AlgorithmOptions& options, const TopKQuery& query,
                  ExecutionContext* context, IoT io, TopKResult* result) {
  if (dynamic_cast<const SumScorer*>(query.scorer) != nullptr) {
    return RunCaLoop<IoT, SumScorer>(options, query, context, io, result);
  }
  return RunCaLoop<IoT, Scorer>(options, query, context, io, result);
}

}  // namespace topk

#endif  // TOPK_CORE_CA_LOOP_H_
