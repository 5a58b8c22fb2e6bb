// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// TPUT — "Three-Phase Uniform Threshold" (Cao & Wang, PODC 2004), discussed in
// the paper's related work (Section 7). Implemented as a comparison baseline:
//
//   Phase 1: fetch the top k entries of every list; τ1 = k-th largest partial
//            sum (missing scores taken as the score floor).
//   Phase 2: continue fetching every list down to local score >= τ1/m; prune
//            candidates whose upper bound is below τ2, the new k-th largest
//            partial sum.
//   Phase 3: random accesses resolve the exact scores of survivors.
//
// TPUT's thresholding is defined for summation scoring over scores bounded
// below; ValidateTputQuery rejects other scorers or databases with scores
// below the configured floor. As the paper notes, TPUT is not
// instance-optimal: a list whose scores sit just above τ1/m forces it to
// fetch that entire list.
//
// The run loop is templated on the access policy (core/list_io.h):
// TopKAlgorithm (topk_algorithm.cc) instantiates it over the local
// policies, the distributed coordinator over RemoteIo. It reads lists only
// through the policy.

#ifndef TOPK_CORE_TPUT_LOOP_H_
#define TOPK_CORE_TPUT_LOOP_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "common/macros.h"
#include "core/candidate_bounds.h"
#include "core/candidate_pool.h"
#include "core/execution_context.h"
#include "core/list_io.h"
#include "core/topk_algorithm.h"
#include "core/topk_buffer.h"

namespace topk {

/// TPUT's query checks, messages naming `engine`: summation scoring only (τ1/m
/// splits a sum), plus the pool's checks over the policy's catalog.
template <typename IoT>
Status ValidateTputQuery(const char* engine, const TopKQuery& query,
                         const IoT& io, double score_floor) {
  if (query.scorer->name() != "sum") {
    return Status::NotImplemented(
        engine, " thresholding (τ1/m) is defined for summation scoring; got '",
        query.scorer->name(), "'");
  }
  return ValidatePoolQuery(engine, io, score_floor);
}

// Templated on the access policy (TPUT is summation-only, so there is no
// scorer dispatch): the default raw-list configuration inlines all three
// phases' access loops over the pool's flat rows. Phase 3's τ2 filter is
// one sweep over the pool, so the pool keeps no group index.
template <typename IoT>
Status RunTputLoop(const AlgorithmOptions& options, const TopKQuery& query,
                   ExecutionContext* context, IoT io, TopKResult* result) {
  const size_t n = io.num_items();
  const size_t m = io.num_lists();

  // Phases 1 and 2 only record rows. TPUT reads the k-th best lower bound
  // (partial sums with floor-filled gaps) only at a phase end — τ1, τ2 — or
  // at an anytime exit, so `publish` offers every candidate's bound to the
  // pool's threshold heap then, in one sweep. Bounds only grow, so the heap
  // ends up holding the same k strongest (lower bound, item id) keys that an
  // offer after every row would leave: the same τ1, τ2 and certificates.
  CandidatePool& pool = context->PreparePool(n, m, query.k, options.score_floor,
                                             GroupIndex::kNone);
  const auto record = [&](size_t list_index, const AccessedEntry& entry) {
    pool.SetSeen(pool.FindOrInsert(entry.item), list_index, entry.score);
  };
  const auto publish = [&]() {
    for (uint32_t slot = 0; slot < pool.size(); ++slot) {
      Score sum = 0.0;
      const Score* row = pool.row(slot);
      for (size_t i = 0; i < m; ++i) {
        sum += row[i];
      }
      pool.OfferLower(slot, sum);
    }
  };

  QueryGovernor& governor = context->governor();
  Completion reason = Completion::kExact;
  // Cursor scores, maintained from the very first access so an anytime exit
  // can always bound the unseen items; lists not yet scanned are bounded by
  // their maximum (an uncounted, decision-free metadata read).
  std::vector<Score>& last_scores = context->last_scores();
  for (size_t i = 0; i < m; ++i) {
    last_scores[i] = io.MaxScore(i);
  }
  Position depth = std::min<Position>(static_cast<Position>(query.k),
                                      static_cast<Position>(n));

  // Anytime exit (deadline/budget trips): the threshold heap's lower bounds,
  // published first, are the best certified answer; the unseen-item bound is
  // the cursor-score sum. TPUT is summation-only, so SumUpperBound is the one
  // arithmetic.
  const auto anytime = [&](Completion why) -> Status {
    io.Flush();
    publish();
    std::vector<ItemId>& winners = context->ClearedItems();
    pool.AppendHeapItems(&winners);
    const SumScorer sum;
    CertifyPoolAnytime(why, pool, winners, sum, last_scores,
                       sum.Combine(last_scores.data(), m),
                       context->bound_scores(), result);
    result->stop_position = depth;
    return Status::OK();
  };
  // Permanent deaths break TPUT's drain guarantee (an undrained dead list
  // can hide arbitrarily strong unseen items), so any death surfaces as the
  // Unavailable marker and the engine fails over to NRA.
  const auto check_deaths = [&]() -> Status {
    for (size_t i = 0; i < m; ++i) {
      if (!io.SortedAlive(i)) {
        io.Flush();
        return context->LoseList(
            i, "the τ1/m drain guarantee no longer covers its unseen entries");
      }
    }
    return Status::OK();
  };

  // ---- Phase 1: top-k prefix of every list, read one list at a time. ----
  io.BeginRound();
  for (size_t i = 0; i < m; ++i) {
    for (Position p = 1; p <= depth; ++p) {
      if constexpr (IoT::kFaultAware) {
        if (!io.FetchSorted(i, p, depth)) {
          break;
        }
      }
      // Index-cell prefetch pipelining — uncounted, decision-free; see
      // nra_loop.h.
      if (p + kPrefetchRowsAhead <= n) {
        pool.PrefetchItem(io.PeekItem(i, p + kPrefetchRowsAhead));
      }
      const AccessedEntry entry = io.Sorted(i, p);
      last_scores[i] = entry.score;
      record(i, entry);
      // Governance inside long prefix reads (k can be large).
      if ((p & 255u) == 0 &&
          (reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                    io.VirtualLatencyMs())) !=
              Completion::kExact) {
        return anytime(reason);
      }
    }
  }
  if constexpr (IoT::kFaultAware) {
    TOPK_RETURN_NOT_OK(check_deaths());
  }
  if ((reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                io.VirtualLatencyMs())) != Completion::kExact) {
    return anytime(reason);
  }
  // Phase 1 sees >= k distinct items (k rows of one list are distinct), so
  // the published heap is full and its weakest entry is τ1.
  publish();
  const Score tau1 = pool.KthLower();

  // ---- Phase 2: drain every list down to local score >= τ1/m. ----
  // The per-list scan continues from the shared phase-1 depth, whose cursor
  // scores phase 1 left in last_scores.
  io.BeginRound();
  const Score threshold = tau1 / static_cast<Score>(m);
  std::vector<Position>& list_depths = context->ClearedPositions();
  list_depths.assign(m, depth);
  for (size_t i = 0; i < m; ++i) {
    while (list_depths[i] < n && last_scores[i] >= threshold) {
      if constexpr (IoT::kFaultAware) {
        if (!io.DrainTo(i, list_depths[i] + 1, threshold)) {
          break;
        }
      }
      const Position p = ++list_depths[i];
      if (p + kPrefetchRowsAhead <= n) {
        pool.PrefetchItem(io.PeekItem(i, p + kPrefetchRowsAhead));
      }
      const AccessedEntry entry = io.Sorted(i, p);
      record(i, entry);
      last_scores[i] = entry.score;
      depth = std::max(depth, entry.position);
      // Governance inside the drain (it can run deep into the lists).
      if ((p & 255u) == 0 &&
          (reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                    io.VirtualLatencyMs())) !=
              Completion::kExact) {
        return anytime(reason);
      }
    }
  }
  if constexpr (IoT::kFaultAware) {
    TOPK_RETURN_NOT_OK(check_deaths());
  }
  if ((reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                io.VirtualLatencyMs())) != Completion::kExact) {
    return anytime(reason);
  }
  publish();
  const Score tau2 = pool.KthLower();

  // ---- Phase 3: resolve survivors exactly. ----
  io.BeginRound();
  // Upper bound: unknown lists contribute min(last seen score, threshold
  // ceiling) — after phase 2 any unseen score in list i is < max(last_scores
  // [i], threshold). Candidates below τ2 are pruned (strictly: a tie could
  // still belong to the deterministic top-k); items seen in no list at all
  // sum to strictly less than m * (τ1/m) = τ1 <= τ2, so the surviving
  // candidates contain the exact (score desc, item id asc) top-k.
  //
  // Folding the threshold ceiling into a capped copy of the depth scores
  // reduces the phase-3 bound to the shared SumUpperBound arithmetic — one
  // summation for every parity-sensitive call site. Survivors are resolved
  // in slot (first-seen) order, which decides how many random reads a
  // governed run spends before a budget trips.
  std::vector<Score>& capped_scores = context->bound_scores();
  for (size_t i = 0; i < m; ++i) {
    capped_scores[i] = std::min(last_scores[i], threshold);
  }
  std::vector<uint32_t>& survivors = context->ClearedSlots();
  for (uint32_t slot = 0; slot < pool.size(); ++slot) {
    if (SumUpperBound(pool, slot, capped_scores) >= tau2) {
      survivors.push_back(slot);
    }
  }

  // Batching policies send the survivors' random reads up front, one lookup
  // message per list.
  io.BatchRandom([&](auto&& add) {
    for (uint32_t slot : survivors) {
      const uint64_t mask = pool.mask(slot);
      for (size_t i = 0; i < m; ++i) {
        if (!(mask >> i & 1)) {
          add(i, pool.item_at(slot));
        }
      }
    }
  });
  TopKBuffer& buffer = context->buffer();
  size_t resolved = 0;
  for (uint32_t slot : survivors) {
    const ItemId item = pool.item_at(slot);
    const Score* row = pool.row(slot);
    const uint64_t mask = pool.mask(slot);
    if constexpr (IoT::kFaultAware) {
      // Phase 3 needs random access to every unseen list of the survivor.
      for (size_t i = 0; i < m; ++i) {
        if (!(mask >> i & 1) && !io.RandomAlive(i)) {
          io.Flush();
          return context->LoseList(i, "random access is unavailable");
        }
      }
    }
    Score sum = 0.0;
    for (size_t i = 0; i < m; ++i) {
      sum += (mask >> i & 1) ? row[i] : io.Random(i, item).score;
    }
    buffer.Offer(item, sum);
    // Governance across the survivor resolutions (their count is unbounded
    // by k); the heap's lower bounds stay the certified anytime answer (its
    // publish finds every bound unchanged).
    if ((++resolved & 31u) == 0 &&
        (reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                  io.VirtualLatencyMs())) !=
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

#endif  // TOPK_CORE_TPUT_LOOP_H_
