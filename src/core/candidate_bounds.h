// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Shared bound computations and the stop-rule checks of the candidate-pool
// algorithms (NRA, CA, TPUT).
//
// For summation scoring NRA's and CA's checks run on the pool's per-mask
// group index in O(#distinct masks), not O(pool size): a candidate's upper
// bound is its lower bound plus the sum of the current depth scores of its
// unseen lists — within one mask group that delta is shared, so ordering
// members by the immutable (lower bound, item id) key orders them by upper
// bound too, and each walk picks the dual-heap side whose root bounds the
// answer it needs:
//
//   - the *max* side (strongest at root, every subtree root majorizes its
//     descendants) serves the existence/argmax/bulk questions — "does any
//     member still block the stop?" (GroupFindBlocker), "which member has
//     the largest upper bound?" (GroupArgmaxUnresolved) and NRA's rare
//     compaction passes (GroupCompact) — pruning whole subtrees once their
//     keys drop below the decision threshold;
//   - CA's optional *min* side (weakest at root; see CandidatePool for the
//     when-it-pays analysis) serves its per-stop-check prune-and-erase pass
//     (GroupPruneAndFindBlocker): victims are peeled weakest-first and the
//     peel stops at the frontier where keys rise above the prune threshold,
//     so the pass costs what it erases (plus the margin band), not what is
//     alive. Before the min side existed that pass had to descend through
//     every surviving above-threshold member to reproduce the sweep's
//     erasures — O(live set) per stop check, the dominant cost of CA at
//     DRAM-resident n.
//
// The pruning comparison adds a safety margin that dominates the worst-case
// floating-point summation error (see SummationErrorMargin), and every member
// that survives the margin test is then evaluated with the exact same
// interleaved summation the pre-group-index per-candidate sweep used
// (PoolUpperBound). Decisions — stop positions, CA's resolution victims,
// and therefore all access counts — are thus byte-identical to the O(pool)
// sweeps they replace: members below the margined threshold provably cannot
// pass the exact comparison, and members above it face the exact comparison
// itself.
//
// Non-summation scorers keep the per-candidate sweep (PruneAndFindBlocker):
// a general monotonic f does not decompose per mask.

#ifndef TOPK_CORE_CANDIDATE_BOUNDS_H_
#define TOPK_CORE_CANDIDATE_BOUNDS_H_

#include <cmath>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "core/candidate_pool.h"
#include "core/query_governor.h"
#include "lists/database.h"
#include "lists/scorer.h"
#include "lists/types.h"

namespace topk {

/// Shared validation of the pool-backed algorithms (NRA/CA/TPUT) over the
/// catalog of an access policy (core/list_io.h): the pool's seen mask is one
/// 64-bit word, capping m at CandidatePool::kMaxLists, and every local score
/// must respect the floor the lower bounds are built from.
template <typename IoT>
Status ValidatePoolQuery(const char* algorithm, const IoT& io,
                         double score_floor) {
  if (io.num_lists() > CandidatePool::kMaxLists) {
    return Status::NotImplemented(
        algorithm, " candidate bookkeeping keeps per-candidate seen masks in "
        "a single 64-bit word, capping queries at ", CandidatePool::kMaxLists,
        " lists; got ", io.num_lists(),
        " (multi-word masks are not implemented)");
  }
  for (size_t i = 0; i < io.num_lists(); ++i) {
    if (io.MinScore(i) < score_floor) {
      return Status::Invalid(
          algorithm, " lower bounds assume scores >= score floor ",
          score_floor, "; list ", i, " has minimum ", io.MinScore(i),
          " (set AlgorithmOptions::score_floor accordingly)");
    }
  }
  return Status::OK();
}

/// The score floor the pool algorithms need for a database with signed
/// scores: the paper's model floor (0) lowered to the smallest local score.
/// Shared by the CLI-facing harnesses (bench_micro, parity_dump) and tests
/// so a floor-contract change propagates everywhere at once.
inline double DeriveScoreFloor(const Database& db) {
  double floor = 0.0;
  for (size_t i = 0; i < db.num_lists(); ++i) {
    floor = std::min(floor, db.list(i).MinScore());
  }
  return floor;
}

/// Absolute bound-comparison margin for the group walks: any two ways of
/// summing m <= 64 doubles drawn from the database's score range differ by
/// at most (m-1) * eps * sum(|max term|) ~ 2^-46 * S; the margin 2^-38 * S
/// exceeds that error by 256x while staying far below any score gap a
/// workload can resolve. Group members whose margined decomposed bound
/// (lower + per-mask delta) falls below a decision threshold are provably
/// also below it under the exact interleaved summation, so pruning on the
/// margined bound never changes a decision. `io` is the run's access policy
/// (core/list_io.h), which carries the lists' score range.
template <typename IoT>
inline double SummationErrorMargin(const IoT& io, double score_floor) {
  double sum = std::abs(score_floor);
  for (size_t i = 0; i < io.num_lists(); ++i) {
    sum += std::max(std::abs(io.MaxScore(i)), std::abs(io.MinScore(i))) +
           std::abs(score_floor);
  }
  return std::ldexp(sum, -38);
}

/// The exact summation upper bound of a candidate: a left-to-right
/// interleaved sum over the row with unknown cells replaced by the current
/// last-seen score of their list. Every per-candidate decision of the group
/// walks is made with this one arithmetic — the byte-parity guarantee
/// against the pre-group-index sweeps rests on all call sites sharing it.
inline Score SumUpperBound(const CandidatePool& pool, uint32_t slot,
                           const std::vector<Score>& last_scores) {
  const size_t m = pool.num_lists();
  const Score* row = pool.row(slot);
  const uint64_t mask = pool.mask(slot);
  Score sum = 0.0;
  for (size_t i = 0; i < m; ++i) {
    sum += (mask >> i & 1) ? row[i] : last_scores[i];
  }
  return sum;
}

/// Upper bound of a candidate's overall score: unknown local scores replaced
/// by the current last-seen score of their list. `tmp` is caller scratch of
/// size m (unused on the summation fast path). This is the exact arithmetic
/// every per-candidate decision is made with.
template <typename ScorerT>
inline Score PoolUpperBound(const CandidatePool& pool, uint32_t slot,
                            const ScorerT& scorer,
                            const std::vector<Score>& last_scores,
                            std::vector<Score>& tmp) {
  if constexpr (std::is_same_v<ScorerT, SumScorer>) {
    return SumUpperBound(pool, slot, last_scores);
  } else {
    const size_t m = pool.num_lists();
    const Score* row = pool.row(slot);
    const uint64_t mask = pool.mask(slot);
    for (size_t i = 0; i < m; ++i) {
      tmp[i] = (mask >> i & 1) ? row[i] : last_scores[i];
    }
    return scorer.Combine(tmp.data(), m);
  }
}

/// The pool algorithms' anytime certificate: the heap items in `winners` are
/// reported with their certified lower bounds, and the unreturned upper bound
/// folds `unseen_upper` (the bound on never-seen items) with the strongest
/// non-heap candidate's upper bound.
template <typename ScorerT>
void CertifyPoolAnytime(Completion reason, const CandidatePool& pool,
                        const std::vector<ItemId>& winners,
                        const ScorerT& scorer,
                        const std::vector<Score>& last_scores,
                        Score unseen_upper, std::vector<Score>& tmp,
                        TopKResult* result) {
  Score kth = std::numeric_limits<Score>::infinity();
  result->items.reserve(winners.size());
  for (ItemId item : winners) {
    const Score lower = pool.lower(pool.FindSlot(item));
    kth = std::min(kth, lower);
    result->items.push_back(ResultItem{item, lower});
  }
  if (result->items.empty()) {
    kth = -std::numeric_limits<Score>::infinity();
  }
  Score upper = unseen_upper;
  for (uint32_t slot = 0; slot < pool.size(); ++slot) {
    if (!pool.InHeap(slot)) {
      upper = std::max(upper,
                       PoolUpperBound(pool, slot, scorer, last_scores, tmp));
    }
  }
  CertifyAnytime(reason, kth, upper, result);
}

/// The group's shared upper-bound delta under summation: what the current
/// list depths contribute for the mask's unseen lists, relative to the floor
/// already baked into every member's lower bound.
inline Score GroupUnseenDelta(uint64_t mask, size_t m,
                              const std::vector<Score>& last_scores,
                              Score floor) {
  Score delta = 0.0;
  for (size_t i = 0; i < m; ++i) {
    if (!(mask >> i & 1)) {
      delta += last_scores[i] - floor;
    }
  }
  return delta;
}

/// What a group-walk visitor decides for the subtree rooted at the member it
/// was shown.
enum class GroupWalkAction {
  kDescend,      // keep walking into the member's children
  kSkipSubtree,  // the member's key bounds its descendants: prune them all
  kStop,         // decision made: abort the whole walk
};

/// Top-down walk over (the subtree at heap position `root` of) one side of a
/// group's dual member heap. The visitor is shown (heap position, member
/// slot) and steers the walk via GroupWalkAction; on the max side a member's
/// (lower bound, item id) key majorizes its whole subtree, on the min side it
/// minorizes it, so kSkipSubtree is sound whenever the visitor's test is
/// monotone in the key in the matching direction. Returns false iff the
/// visitor stopped the walk. The explicit stack holds at most one pending
/// sibling per level (64 levels cover any 2^32-slot pool).
template <typename Visitor>
inline bool WalkGroupMembers(const ArenaVec<uint32_t>& members, size_t root,
                             Visitor&& visit) {
  size_t stack[64];
  size_t depth = 0;
  stack[depth++] = root;
  while (depth > 0) {
    const size_t pos = stack[--depth];
    const GroupWalkAction action = visit(pos, members[pos]);
    if (action == GroupWalkAction::kStop) {
      return false;
    }
    if (action == GroupWalkAction::kSkipSubtree) {
      continue;
    }
    const size_t child = 2 * pos + 1;
    if (child < members.size()) {
      stack[depth++] = child;
      if (child + 1 < members.size()) {
        stack[depth++] = child + 1;
      }
    }
  }
  return true;
}

/// One stop-rule blocking check over the group index, O(#groups) plus the
/// walked frontier: a candidate outside the threshold heap blocks the stop
/// when its best possible (upper bound, id) pair still beats the weakest
/// heap member's (lower, id) pair — the id comparison keeps the returned set
/// exactly the deterministic (score desc, item id asc) top-k under ties.
/// Requires a full heap. Returns true iff some candidate blocks the stop.
inline bool GroupFindBlocker(const CandidatePool& pool,
                             const std::vector<Score>& last_scores,
                             Score floor, double margin) {
  const size_t m = pool.num_lists();
  const Score kth_lower = pool.KthLower();
  const ItemId kth_item = pool.KthItem();
  for (size_t g = 0; g < pool.num_groups(); ++g) {
    const ArenaVec<uint32_t>& members = pool.group_members(g);
    if (members.empty()) {
      continue;
    }
    const Score delta =
        GroupUnseenDelta(pool.group_mask(g), m, last_scores, floor);
    // A subtree whose root's margined bound is below the k-th lower bound
    // holds no blocker; the first blocker found stops the walk.
    const bool completed = WalkGroupMembers(
        members, 0, [&](size_t /*pos*/, uint32_t slot) {
          if (pool.lower(slot) + delta < kth_lower - margin) {
            return GroupWalkAction::kSkipSubtree;
          }
          // Exact bound — byte-identical to the per-candidate sweep this
          // walk replaces.
          const Score upper = SumUpperBound(pool, slot, last_scores);
          if (upper > kth_lower ||
              (upper == kth_lower && pool.item_at(slot) < kth_item)) {
            return GroupWalkAction::kStop;  // blocks the stop rule
          }
          return GroupWalkAction::kDescend;
        });
    if (!completed) {
      return true;
    }
  }
  return false;
}

/// CA's variant of the stop-rule check: like GroupFindBlocker, but with the
/// per-candidate pruning of the full sweep reproduced exactly — candidates
/// whose upper bound dropped strictly below the k-th lower bound are erased
/// for good (upper bounds only shrink and the k-th lower bound only grows).
/// CA must erase rather than merely skip them: its victim selection ranges
/// over the surviving pool, and an erased candidate that is seen again
/// re-enters as a fresh candidate with only its newly-seen lists known, so
/// the pool (and with it the victim choice and the random-access pattern)
/// only stays byte-identical to the sweep's if the erasures are too.
///
/// Runs as a peel off each group's *min side*: entries are popped
/// weakest-first and classified against the margined threshold — a stale
/// entry is discarded (its pop amortizes the deregistration that orphaned
/// it), certainly below is a victim with no bound arithmetic beyond one
/// compare, the margin band pays the exact interleaved bound (band
/// survivors are re-pushed — they are still registered), and the peel stops
/// the moment the root key is certainly above the band: every remaining
/// live member is then a surviving blocker, accounted for by size
/// arithmetic instead of visits. The pass therefore costs O(#groups +
/// #victims + #stale + #margin-band), not O(live set). A live entry's
/// stored bound is bit-identical to the member's current bound (keys are
/// immutable while registered), so the erased set and the blocked flag are
/// decided per member by exactly the sweep's classification — byte-
/// identical to the full sweep regardless of which members the peel never
/// visits. Requires a full heap and the min side (eager mode); `victims` is
/// caller scratch.
inline bool GroupPruneAndFindBlocker(CandidatePool& pool,
                                     const std::vector<Score>& last_scores,
                                     Score floor, double margin,
                                     std::vector<ItemId>& victims) {
  assert(pool.has_min_side());
  const size_t m = pool.num_lists();
  const Score kth_lower = pool.KthLower();
  const ItemId kth_item = pool.KthItem();
  bool blocked = false;
  victims.clear();
  for (size_t g = 0; g < pool.num_groups(); ++g) {
    if (pool.group_members(g).empty() && pool.group_min_entries(g).empty()) {
      continue;
    }
    const Score delta =
        GroupUnseenDelta(pool.group_mask(g), m, last_scores, floor);
    ArenaVec<CandidatePool::MinEntry>& band = pool.PeelScratch();
    size_t victims_here = 0;
    size_t band_here = 0;
    while (!pool.group_min_entries(g).empty()) {
      const CandidatePool::MinEntry entry = pool.group_min_entries(g).front();
      // The root minorizes every stored key; once it is certainly above the
      // band, no victim (and no band member) remains anywhere in the group.
      if (entry.lower + delta > kth_lower + margin) {
        break;
      }
      pool.PopGroupMin(g);
      if (!pool.MinEntryLive(entry)) {
        continue;  // orphaned by a past deregistration: discarded for good
      }
      // Live entry: entry.lower is bit-identical to the member's current
      // lower bound, so this is the sweep's exact classification.
      const Score bound = entry.lower + delta;
      if (bound < kth_lower - margin) {
        victims.push_back(entry.item);  // certainly below: no exact bound
        ++victims_here;
        continue;
      }
      // Inside the margin band: the exact bound decides, with the same
      // arithmetic and tie handling as the full sweep.
      const Score upper =
          SumUpperBound(pool, pool.FindSlot(entry.item), last_scores);
      if (upper < kth_lower) {
        victims.push_back(entry.item);
        ++victims_here;
      } else {
        pool.PushPeelScratch(entry);  // survives: still registered, must return
        ++band_here;
        if (upper > kth_lower ||
            (upper == kth_lower && entry.item < kth_item)) {
          blocked = true;
        }
      }
    }
    for (const CandidatePool::MinEntry& entry : band) {
      pool.PushGroupMin(g, entry);
    }
    // Every live member the peel did not reach is certainly above the band:
    // a surviving blocker, exactly as the sweep would have classified it.
    if (pool.group_members(g).size() > victims_here + band_here) {
      blocked = true;
    }
  }
  for (ItemId item : victims) {
    pool.Erase(pool.FindSlot(item));
  }
  return blocked;
}

/// NRA's pool compaction pass: erases every candidate outside the threshold
/// heap whose upper bound is strictly below the k-th lower bound. The same
/// margined classification as GroupPruneAndFindBlocker — a subtree certainly
/// below the threshold is erased wholesale without per-member bound
/// arithmetic, members inside the margin band pay the exact interleaved
/// bound, members certainly above survive untouched — but with no blocker
/// bookkeeping: compaction reclaims memory, it does not decide anything.
/// Runs on the max side (NRA does not carry a min side: compactions are
/// watermark-triggered and rare, so a per-registration min-side push costs
/// far more than the occasional O(live) walk it would replace — measured
/// ~2x end-to-end at n=1M; CA's per-stop-check pruning is the opposite
/// trade, see GroupPruneAndFindBlocker).
///
/// Erasure is behaviorally invisible to NRA (unlike CA, whose victim argmax
/// ranges over the surviving pool): an erased candidate's exact upper bound
/// was strictly below the k-th lower bound, both only move further apart,
/// and if the item is seen again it re-enters with strictly less knowledge —
/// every local score it re-learns is at most the depth score the old bound
/// already assumed — so its fresh upper bound stays strictly below the
/// (monotone) threshold: it can never block a stop, enter the threshold
/// heap, or displace a member. Stop positions, access counts and results are
/// therefore byte-identical with compaction on or off (certified by
/// parity_dump and the compaction differential test). Requires a full heap;
/// `victims` is caller scratch.
inline void GroupCompact(CandidatePool& pool,
                         const std::vector<Score>& last_scores, Score floor,
                         double margin, std::vector<ItemId>& victims) {
  const size_t m = pool.num_lists();
  const Score kth_lower = pool.KthLower();
  victims.clear();
  for (size_t g = 0; g < pool.num_groups(); ++g) {
    const ArenaVec<uint32_t>& members = pool.group_members(g);
    if (members.empty()) {
      continue;
    }
    const Score delta =
        GroupUnseenDelta(pool.group_mask(g), m, last_scores, floor);
    WalkGroupMembers(members, 0, [&](size_t pos, uint32_t slot) {
      const Score bound = pool.lower(slot) + delta;
      if (bound < kth_lower - margin) {
        // Certainly below, and so is every descendant: collect the subtree
        // (erasing re-heapifies the group under the walk's feet, so victims
        // are erased after all walks finish).
        WalkGroupMembers(members, pos, [&](size_t, uint32_t victim) {
          victims.push_back(pool.item_at(victim));
          return GroupWalkAction::kDescend;
        });
        return GroupWalkAction::kSkipSubtree;
      }
      if (bound > kth_lower + margin) {
        return GroupWalkAction::kDescend;  // certainly above: survives
      }
      if (SumUpperBound(pool, slot, last_scores) < kth_lower) {
        victims.push_back(pool.item_at(slot));
      }
      return GroupWalkAction::kDescend;
    });
  }
  for (ItemId item : victims) {
    pool.Erase(pool.FindSlot(item));
  }
}

/// CA's victim selection over the group index: the not-fully-resolved
/// candidate with the largest (upper bound, smaller-id-on-tie) pair — the one
/// blocking the stop rule the hardest. Scans every group (skipping the
/// fully-known mask) plus the <= k threshold-heap members, walking member
/// heaps with margined subtree pruning against the best candidate so far;
/// survivors are compared with the exact interleaved bound, so the victim is
/// byte-identical to the full sweep's argmax. Returns kNoSlot if every
/// candidate is fully resolved.
inline uint32_t GroupArgmaxUnresolved(const CandidatePool& pool,
                                      const std::vector<Score>& last_scores,
                                      Score floor, double margin) {
  const size_t m = pool.num_lists();
  const uint64_t full_mask =
      m == CandidatePool::kMaxLists ? ~uint64_t{0} : (uint64_t{1} << m) - 1;
  uint32_t best_slot = CandidatePool::kNoSlot;
  ItemId best_item = kInvalidItem;
  Score best_upper = -std::numeric_limits<Score>::infinity();

  const auto consider = [&](uint32_t slot) {
    const Score upper = SumUpperBound(pool, slot, last_scores);
    if (upper > best_upper ||
        (upper == best_upper && pool.item_at(slot) < best_item)) {
      best_upper = upper;
      best_slot = slot;
      best_item = pool.item_at(slot);
    }
  };

  for (size_t g = 0; g < pool.num_groups(); ++g) {
    if (pool.group_mask(g) == full_mask) {
      continue;  // fully known: nothing left to resolve
    }
    const ArenaVec<uint32_t>& members = pool.group_members(g);
    if (members.empty()) {
      continue;
    }
    const Score delta =
        GroupUnseenDelta(pool.group_mask(g), m, last_scores, floor);
    WalkGroupMembers(members, 0, [&](size_t /*pos*/, uint32_t slot) {
      if (pool.lower(slot) + delta + margin < best_upper) {
        return GroupWalkAction::kSkipSubtree;  // cannot beat the best so far
      }
      consider(slot);
      return GroupWalkAction::kDescend;
    });
  }
  // The <= k current-answer candidates live outside the groups.
  for (uint32_t slot : pool.heap_slots()) {
    if (!pool.fully_known(slot)) {
      consider(slot);
    }
  }
  return best_slot;
}

/// One stop-rule sweep over the whole pool, the generic-scorer fallback of
/// NRA and CA (a general monotonic f does not decompose per mask, so the
/// group index does not apply). Candidates outside the threshold heap are
/// pruned for good once their upper bound drops strictly below the k-th
/// lower bound (upper bounds only shrink and the k-th lower bound only
/// grows); a survivor whose best possible (upper bound, id) pair still beats
/// the weakest heap member's (lower, id) pair blocks the stop. Requires a
/// full heap. Returns true iff some candidate blocks the stop.
template <typename ScorerT>
inline bool PruneAndFindBlocker(CandidatePool& pool, const ScorerT& scorer,
                                const std::vector<Score>& last_scores,
                                std::vector<Score>& tmp) {
  const Score kth_lower = pool.KthLower();
  const ItemId kth_item = pool.KthItem();
  bool blocked = false;
  for (uint32_t slot = 0; slot < pool.size();) {
    if (pool.InHeap(slot)) {
      ++slot;
      continue;
    }
    const Score upper = PoolUpperBound(pool, slot, scorer, last_scores, tmp);
    if (upper < kth_lower) {
      pool.Erase(slot);  // moves the last slot here; re-examine it
      continue;
    }
    if (upper > kth_lower ||
        (upper == kth_lower && pool.item_at(slot) < kth_item)) {
      blocked = true;
    }
    ++slot;
  }
  return blocked;
}

}  // namespace topk

#endif  // TOPK_CORE_CANDIDATE_BOUNDS_H_
