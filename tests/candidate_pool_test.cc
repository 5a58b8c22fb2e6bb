// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// CandidatePool unit and property tests: epoch-reset reuse across queries,
// growth beyond the initial slot capacity, intrusive threshold-heap
// semantics (k-th lower bound, deterministic ties, erase/swap consistency),
// and a randomized differential against a std::unordered_map + full-sort
// reference model.

#include "core/candidate_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/algorithms.h"
#include "gen/database_generator.h"
#include "lists/scorer.h"

namespace topk {
namespace {

TEST(CandidatePoolTest, InsertRecordsRowMaskAndKnownCount) {
  CandidatePool pool;
  pool.Reset(/*n=*/8, /*m=*/3, /*k=*/2, /*floor=*/-1.0);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_FALSE(pool.Contains(7));

  const uint32_t slot = pool.FindOrInsert(7);
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.Contains(7));
  EXPECT_EQ(pool.item_at(slot), 7u);
  EXPECT_EQ(pool.mask(slot), 0u);
  EXPECT_EQ(pool.known_count(slot), 0u);
  // Unknown cells hold the floor.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(pool.row(slot)[i], -1.0);
  }

  EXPECT_TRUE(pool.SetSeen(slot, 1, 0.5));
  EXPECT_FALSE(pool.SetSeen(slot, 1, 0.5));  // already known
  EXPECT_EQ(pool.mask(slot), 0b010u);
  EXPECT_EQ(pool.known_count(slot), 1u);
  EXPECT_DOUBLE_EQ(pool.row(slot)[1], 0.5);
  EXPECT_DOUBLE_EQ(pool.row(slot)[0], -1.0);
  EXPECT_FALSE(pool.fully_known(slot));

  EXPECT_TRUE(pool.SetSeen(slot, 0, 0.25));
  EXPECT_TRUE(pool.SetSeen(slot, 2, 0.75));
  EXPECT_TRUE(pool.fully_known(slot));

  // FindOrInsert of an existing item returns the same slot.
  EXPECT_EQ(pool.FindOrInsert(7), slot);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(CandidatePoolTest, EpochResetForgetsCandidatesAndReusesStorage) {
  CandidatePool pool;
  for (int query = 0; query < 5; ++query) {
    pool.Reset(/*n=*/50, /*m=*/2, /*k=*/3, /*floor=*/0.0);
    EXPECT_EQ(pool.size(), 0u);
    EXPECT_EQ(pool.heap_size(), 0u);
    for (ItemId item = 0; item < 50; ++item) {
      EXPECT_FALSE(pool.Contains(item)) << "stale candidate after reset";
      const uint32_t slot = pool.FindOrInsert(item);
      pool.SetSeen(slot, 0, 1.0 + item + query);
      pool.OfferLower(slot, 1.0 + item + query);
    }
    EXPECT_EQ(pool.size(), 50u);
    ASSERT_TRUE(pool.HeapFull());
    // k = 3 best lower bounds are the three largest items this query.
    EXPECT_DOUBLE_EQ(pool.KthLower(), 1.0 + 47 + query);
  }
}

TEST(CandidatePoolTest, ResetAdaptsToNewListCountAndFloor) {
  CandidatePool pool;
  pool.Reset(/*n=*/4, /*m=*/4, /*k=*/1, /*floor=*/0.0);
  pool.SetSeen(pool.FindOrInsert(3), 3, 9.0);

  pool.Reset(/*n=*/4, /*m=*/2, /*k=*/1, /*floor=*/-7.5);
  const uint32_t slot = pool.FindOrInsert(3);
  EXPECT_EQ(pool.mask(slot), 0u);
  EXPECT_DOUBLE_EQ(pool.row(slot)[0], -7.5);
  EXPECT_DOUBLE_EQ(pool.row(slot)[1], -7.5);
}

TEST(CandidatePoolTest, GrowsBeyondInitialCapacity) {
  CandidatePool pool;
  pool.Reset(/*n=*/60000, /*m=*/1, /*k=*/5, /*floor=*/0.0);
  // Far beyond the initial slot capacity (64 records).
  constexpr ItemId kCount = 20000;
  for (ItemId item = 0; item < kCount; ++item) {
    const uint32_t slot = pool.FindOrInsert(item * 3 + 1);
    pool.SetSeen(slot, 0, static_cast<Score>(item));
    pool.OfferLower(slot, static_cast<Score>(item));
  }
  EXPECT_EQ(pool.size(), static_cast<size_t>(kCount));
  for (ItemId item = 0; item < kCount; ++item) {
    const uint32_t slot = pool.FindSlot(item * 3 + 1);
    ASSERT_NE(slot, CandidatePool::kNoSlot) << "item lost in growth";
    EXPECT_DOUBLE_EQ(pool.row(slot)[0], static_cast<Score>(item));
  }
  EXPECT_DOUBLE_EQ(pool.KthLower(), static_cast<Score>(kCount - 5));
}

TEST(CandidatePoolTest, ThresholdHeapTracksKthLowerWithDeterministicTies) {
  CandidatePool pool;
  pool.Reset(/*n=*/31, /*m=*/1, /*k=*/2, /*floor=*/0.0);
  const auto offer = [&](ItemId item, Score lower) {
    const uint32_t slot = pool.FindOrInsert(item);
    pool.OfferLower(slot, lower);
  };
  offer(10, 5.0);
  EXPECT_FALSE(pool.HeapFull());
  offer(20, 5.0);
  ASSERT_TRUE(pool.HeapFull());
  // Equal bounds: the larger id is the weaker (k-th) entry.
  EXPECT_DOUBLE_EQ(pool.KthLower(), 5.0);
  EXPECT_EQ(pool.KthItem(), 20u);

  // A smaller-id tie displaces the larger-id member.
  offer(15, 5.0);
  EXPECT_DOUBLE_EQ(pool.KthLower(), 5.0);
  EXPECT_EQ(pool.KthItem(), 15u);
  EXPECT_FALSE(pool.InHeap(pool.FindSlot(20)));

  // A strictly larger bound displaces the weakest member.
  offer(30, 6.0);
  EXPECT_EQ(pool.KthItem(), 10u);

  // Members update in place when their bound grows.
  offer(10, 7.0);
  EXPECT_DOUBLE_EQ(pool.KthLower(), 6.0);
  EXPECT_EQ(pool.KthItem(), 30u);

  std::vector<ItemId> items;
  pool.AppendHeapItems(&items);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], 10u);  // 7.0
  EXPECT_EQ(items[1], 30u);  // 6.0
}

TEST(CandidatePoolTest, EraseSwapsLastSlotAndKeepsIndexConsistent) {
  CandidatePool pool;
  pool.Reset(/*n=*/10, /*m=*/2, /*k=*/1, /*floor=*/0.0);
  for (ItemId item = 0; item < 10; ++item) {
    const uint32_t slot = pool.FindOrInsert(item);
    pool.SetSeen(slot, 0, static_cast<Score>(item));
  }
  // Make item 9 the sole heap member so erases below never touch the heap.
  pool.OfferLower(pool.FindSlot(9), 9.0);

  pool.Erase(pool.FindSlot(0));
  pool.Erase(pool.FindSlot(5));
  EXPECT_EQ(pool.size(), 8u);
  EXPECT_FALSE(pool.Contains(0));
  EXPECT_FALSE(pool.Contains(5));
  for (ItemId item : {1u, 2u, 3u, 4u, 6u, 7u, 8u, 9u}) {
    const uint32_t slot = pool.FindSlot(item);
    ASSERT_NE(slot, CandidatePool::kNoSlot) << "item " << item;
    EXPECT_EQ(pool.item_at(slot), item);
    EXPECT_DOUBLE_EQ(pool.row(slot)[0], static_cast<Score>(item));
  }
  // The heap member survived the swaps with a valid backlink.
  EXPECT_TRUE(pool.InHeap(pool.FindSlot(9)));
  EXPECT_DOUBLE_EQ(pool.KthLower(), 9.0);
  EXPECT_EQ(pool.KthItem(), 9u);
}

TEST(CandidatePoolTest, PeakSizeTracksHighWaterMarkAcrossErasesAndResets) {
  CandidatePool pool;
  pool.Reset(/*n=*/103, /*m=*/2, /*k=*/1, /*floor=*/0.0);
  EXPECT_EQ(pool.peak_size(), 0u);
  for (ItemId item = 0; item < 10; ++item) {
    pool.SetSeen(pool.FindOrInsert(item), 0, 1.0);
  }
  pool.OfferLower(pool.FindSlot(9), 1.0);  // heap member; erases avoid it
  EXPECT_EQ(pool.peak_size(), 10u);
  pool.Erase(pool.FindSlot(0));
  pool.Erase(pool.FindSlot(1));
  EXPECT_EQ(pool.size(), 8u);
  EXPECT_EQ(pool.peak_size(), 10u);  // the peak never shrinks...
  pool.FindOrInsert(100);
  EXPECT_EQ(pool.peak_size(), 10u);  // ...and re-inserts only raise it
  pool.FindOrInsert(101);
  pool.FindOrInsert(102);
  EXPECT_EQ(pool.peak_size(), 11u);  // past the old high-water mark
  pool.Reset(/*n=*/103, /*m=*/2, /*k=*/1, /*floor=*/0.0);
  EXPECT_EQ(pool.peak_size(), 0u);  // a reset forgets the mark
}

// Reference model: hash map of rows plus a full sort for the k-th lower
// bound, mirroring the seed implementation's per-query bookkeeping.
struct ReferenceCandidate {
  std::vector<Score> scores;
  std::vector<bool> known;
};

TEST(CandidatePoolTest, DifferentialAgainstUnorderedMapReference) {
  Rng rng(2024);
  for (int round = 0; round < 40; ++round) {
    const size_t m = 1 + rng.NextBounded(6);
    const size_t k = 1 + rng.NextBounded(8);
    const Score floor = rng.NextBool() ? 0.0 : -2.0;
    const size_t universe = 1 + rng.NextBounded(300);

    CandidatePool pool;
    pool.Reset(universe, m, k, floor);
    std::unordered_map<ItemId, ReferenceCandidate> reference;

    const auto reference_lower = [&](const ReferenceCandidate& c) {
      Score sum = 0.0;
      for (size_t i = 0; i < m; ++i) {
        sum += c.known[i] ? c.scores[i] : floor;
      }
      return sum;
    };

    const size_t ops = 200 + rng.NextBounded(800);
    for (size_t op = 0; op < ops; ++op) {
      const ItemId item = static_cast<ItemId>(rng.NextBounded(universe));
      const size_t list = rng.NextBounded(m);
      const Score score = floor + rng.NextDouble() * 4.0;

      const uint32_t slot = pool.FindOrInsert(item);
      auto [it, inserted] = reference.try_emplace(
          item, ReferenceCandidate{std::vector<Score>(m, 0.0),
                                   std::vector<bool>(m, false)});
      const bool newly = !it->second.known[list];
      EXPECT_EQ(pool.SetSeen(slot, list, score), newly);
      if (newly) {
        it->second.known[list] = true;
        it->second.scores[list] = score;
        Score sum = 0.0;
        for (size_t i = 0; i < m; ++i) {
          sum += pool.row(slot)[i];
        }
        EXPECT_DOUBLE_EQ(sum, reference_lower(it->second));
        pool.OfferLower(slot, sum);
      }
    }

    ASSERT_EQ(pool.size(), reference.size());
    // k-th best (lower, id) pair from the reference by full sort.
    std::vector<std::pair<Score, ItemId>> all;
    for (const auto& [item, cand] : reference) {
      all.push_back({reference_lower(cand), item});
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) {
        return a.first > b.first;
      }
      return a.second < b.second;
    });
    if (reference.size() >= k) {
      ASSERT_TRUE(pool.HeapFull());
      EXPECT_DOUBLE_EQ(pool.KthLower(), all[k - 1].first) << "round " << round;
      EXPECT_EQ(pool.KthItem(), all[k - 1].second) << "round " << round;
      std::vector<ItemId> heap_items;
      pool.AppendHeapItems(&heap_items);
      ASSERT_EQ(heap_items.size(), k);
      for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ(heap_items[i], all[i].second) << "rank " << i;
      }
    } else {
      EXPECT_EQ(pool.heap_size(), reference.size());
    }

    // Erase every non-heap candidate (the pruning pattern of NRA/CA);
    // membership and rows must stay consistent throughout.
    for (uint32_t slot = 0; slot < pool.size();) {
      if (pool.InHeap(slot)) {
        ++slot;
        continue;
      }
      pool.Erase(slot);
    }
    EXPECT_EQ(pool.size(), pool.heap_size());
    for (size_t rank = 0; rank < pool.heap_size(); ++rank) {
      const ItemId item = all[rank].second;
      const uint32_t slot = pool.FindSlot(item);
      ASSERT_NE(slot, CandidatePool::kNoSlot);
      const auto& cand = reference.at(item);
      for (size_t i = 0; i < m; ++i) {
        EXPECT_DOUBLE_EQ(pool.row(slot)[i],
                         cand.known[i] ? cand.scores[i] : floor);
      }
    }
  }
}

// --- per-mask group index ---

// Strength order of the group heaps (and the threshold heap): higher lower
// bound first, ties to the smaller item id.
bool Stronger(Score lower_a, ItemId item_a, Score lower_b, ItemId item_b) {
  if (lower_a != lower_b) {
    return lower_a > lower_b;
  }
  return item_a < item_b;
}

// Brute-force verification of the whole group index against the flat
// candidate store: membership (every non-heap candidate is registered in the
// group of its exact mask), per-group counts, both heap invariants of every
// dual-heap group (strongest at the max root, weakest at the min root), the
// group extrema, and min-side/max-side membership agreement.
void ExpectGroupIndexConsistent(const CandidatePool& pool) {
  std::vector<size_t> expected_count(pool.num_groups(), 0);
  size_t grouped = 0;
  for (uint32_t slot = 0; slot < pool.size(); ++slot) {
    const uint32_t g = pool.group_of(slot);
    if (pool.InHeap(slot)) {
      EXPECT_EQ(g, CandidatePool::kNoGroup)
          << "heap member " << pool.item_at(slot) << " is also grouped";
      continue;
    }
    ASSERT_NE(g, CandidatePool::kNoGroup)
        << "candidate " << pool.item_at(slot) << " is in neither structure";
    ASSERT_LT(g, pool.num_groups());
    EXPECT_EQ(pool.group_mask(g), pool.mask(slot))
        << "candidate " << pool.item_at(slot) << " grouped under wrong mask";
    ++expected_count[g];
    ++grouped;
  }

  size_t member_total = 0;
  for (size_t g = 0; g < pool.num_groups(); ++g) {
    const auto& members = pool.group_members(g);
    ASSERT_EQ(members.size(), expected_count[g]) << "group " << g;
    member_total += members.size();
    for (size_t pos = 0; pos < members.size(); ++pos) {
      EXPECT_EQ(pool.group_of(members[pos]), g);
      if (pos > 0) {
        const size_t parent = (pos - 1) / 2;
        EXPECT_FALSE(Stronger(
            pool.lower(members[pos]), pool.item_at(members[pos]),
            pool.lower(members[parent]), pool.item_at(members[parent])))
            << "group " << g << " max heap violated at position " << pos;
      }
    }
    if (!members.empty()) {
      uint32_t best = members[0];
      for (uint32_t slot : members) {
        if (Stronger(pool.lower(slot), pool.item_at(slot), pool.lower(best),
                     pool.item_at(best))) {
          best = slot;
        }
      }
      EXPECT_EQ(members[0], best)
          << "group " << g << " max root is not the strongest member";
    }

    // Min side of the dual heap: a lazily-invalidated entry heap. The heap
    // invariant must hold over the *stored* keys (stale entries included,
    // keys can repeat across re-registrations, so non-strict), every live
    // member must own exactly one live entry carrying its current key, and
    // the root's stored key must minorize every live member — which makes
    // the weakest live member reachable by popping stale roots only.
    // Max-side-only indexes (NRA) carry no min side at all.
    const auto& min_entries = pool.group_min_entries(g);
    if (!pool.has_min_side()) {
      EXPECT_EQ(min_entries.size(), 0u)
          << "group " << g << " grew a min side without kDualHeap";
      continue;
    }
    for (size_t pos = 1; pos < min_entries.size(); ++pos) {
      const size_t parent = (pos - 1) / 2;
      EXPECT_FALSE(Stronger(min_entries[parent].lower,
                            min_entries[parent].item, min_entries[pos].lower,
                            min_entries[pos].item))
          << "group " << g << " min heap violated at position " << pos;
    }
    std::vector<size_t> live_entries_per_member(members.size(), 0);
    for (size_t pos = 0; pos < min_entries.size(); ++pos) {
      const auto& entry = min_entries[pos];
      if (!pool.MinEntryLive(entry)) {
        continue;
      }
      const uint32_t slot = pool.FindSlot(entry.item);
      ASSERT_NE(slot, CandidatePool::kNoSlot);
      EXPECT_EQ(pool.group_of(slot), g)
          << "live entry for item " << entry.item << " in the wrong group";
      // A live entry's stored key is bit-identical to the member's current
      // key (keys are immutable while registered).
      EXPECT_EQ(entry.lower, pool.lower(slot));
      bool counted = false;
      for (size_t i = 0; i < members.size(); ++i) {
        if (members[i] == slot) {
          ++live_entries_per_member[i];
          counted = true;
          break;
        }
      }
      EXPECT_TRUE(counted) << "live entry for a slot outside the max side";
    }
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(live_entries_per_member[i], 1u)
          << "member " << pool.item_at(members[i]) << " of group " << g
          << " owns " << live_entries_per_member[i] << " live entries";
    }
    if (!members.empty()) {
      // Brute-force weakest live member vs the stored-key minimum: the root
      // minorizes it (equal when the root itself is live).
      uint32_t weakest = members[0];
      for (uint32_t slot : members) {
        if (Stronger(pool.lower(weakest), pool.item_at(weakest),
                     pool.lower(slot), pool.item_at(slot))) {
          weakest = slot;
        }
      }
      ASSERT_FALSE(min_entries.empty());
      EXPECT_FALSE(Stronger(min_entries[0].lower, min_entries[0].item,
                            pool.lower(weakest), pool.item_at(weakest)))
          << "group " << g << " min root is stronger than a live member";
    }
  }
  EXPECT_EQ(member_total, grouped);
}

TEST(CandidatePoolTest, GroupIndexMatchesBruteForceUnderRandomizedOps) {
  Rng rng(4711);
  for (int round = 0; round < 30; ++round) {
    const size_t m = 1 + rng.NextBounded(6);
    const size_t k = 1 + rng.NextBounded(6);
    const size_t universe = 1 + rng.NextBounded(150);
    CandidatePool pool;
    // Alternate CA's dual-heap mode (min side on) with NRA's max-side-only
    // mode: the consistency check covers the min side's lazy-invalidation
    // invariants in the former and its absence in the latter.
    pool.Reset(universe, m, k, /*floor=*/0.0,
               round % 2 == 0 ? GroupIndex::kDualHeap : GroupIndex::kMaxSide);

    const size_t ops = 100 + rng.NextBounded(600);
    for (size_t op = 0; op < ops; ++op) {
      const uint64_t action = rng.NextBounded(10);
      if (action < 8) {
        // Combine: record one local score and publish the new bound — the
        // SetSeen/OfferLower protocol of the run loops, including mask
        // promotion between groups and threshold-heap displacement.
        const ItemId item = static_cast<ItemId>(rng.NextBounded(universe));
        const uint32_t slot = pool.FindOrInsert(item);
        if (pool.SetSeen(slot, rng.NextBounded(m),
                         1.0 + rng.NextDouble() * 4.0)) {
          Score sum = 0.0;
          for (size_t i = 0; i < m; ++i) {
            sum += pool.row(slot)[i];
          }
          pool.OfferLower(slot, sum);
        }
      } else if (action == 8 && pool.size() > 0) {
        // Erase a random non-heap candidate (CA's pruning pattern).
        const uint32_t slot =
            static_cast<uint32_t>(rng.NextBounded(pool.size()));
        if (!pool.InHeap(slot)) {
          pool.Erase(slot);
        }
      } else if (pool.size() > 0) {
        // Re-publish an unchanged bound (legal: bounds are non-decreasing);
        // the registration must stay unique.
        const uint32_t slot =
            static_cast<uint32_t>(rng.NextBounded(pool.size()));
        if (pool.lower(slot) >
            -std::numeric_limits<Score>::infinity()) {
          pool.OfferLower(slot, pool.lower(slot));
        }
      }
      if (op % 64 == 0) {
        ExpectGroupIndexConsistent(pool);
      }
    }
    ExpectGroupIndexConsistent(pool);
  }
}

TEST(CandidatePoolTest, GroupIndexSurvivesEpochReuse) {
  CandidatePool pool;
  for (int query = 0; query < 4; ++query) {
    pool.Reset(/*n=*/40, /*m=*/3, /*k=*/2, /*floor=*/0.0,
               GroupIndex::kDualHeap);
    for (ItemId item = 0; item < 40; ++item) {
      const uint32_t slot = pool.FindOrInsert(item);
      pool.SetSeen(slot, item % 3, 1.0 + item);
      pool.OfferLower(slot, 1.0 + item);
    }
    ExpectGroupIndexConsistent(pool);
    // Three single-list masks, all candidates outside the k=2 heap grouped.
    EXPECT_EQ(pool.num_groups(), 3u);
    size_t members = 0;
    for (size_t g = 0; g < pool.num_groups(); ++g) {
      members += pool.group_members(g).size();
    }
    EXPECT_EQ(members, 38u);
  }
}

TEST(CandidatePoolTest, NoGroupIndexModeNeverRegisters) {
  CandidatePool pool;
  pool.Reset(/*n=*/30, /*m=*/2, /*k=*/2, /*floor=*/0.0, GroupIndex::kNone);
  for (ItemId item = 0; item < 30; ++item) {
    const uint32_t slot = pool.FindOrInsert(item);
    pool.SetSeen(slot, item % 2, 1.0 + item);
    pool.OfferLower(slot, 1.0 + item);
  }
  // Nothing registered: TPUT never pays for the index.
  EXPECT_EQ(pool.num_groups(), 0u);
  for (uint32_t slot = 0; slot < pool.size(); ++slot) {
    EXPECT_EQ(pool.group_of(slot), CandidatePool::kNoGroup);
  }
}

// TPUT records its rows with SetSeen alone and publishes every bound in one
// sweep before it reads the heap (core/tput_loop.h). Bounds only grow, so
// under kNone a sweep must leave the heap per-row offers leave: the same k
// strongest (lower bound, item id) keys, hence the same answer order,
// KthLower, KthItem and per-slot bounds. Scores on a quarter grid tie often,
// so the item-id tie-break decides heap membership at every checkpoint.
TEST(CandidatePoolTest, SweepPublicationMatchesPerRowOffers) {
  Rng rng(25);
  for (size_t k : {1, 10, 50}) {
    for (int round = 0; round < 20; ++round) {
      SCOPED_TRACE("k " + std::to_string(k) + " round " +
                   std::to_string(round));
      const size_t m = 1 + rng.NextBounded(6);
      const size_t n = 20 + rng.NextBounded(400);
      const Score floor = rng.NextBool() ? 0.0 : -1.0;
      CandidatePool per_row;
      CandidatePool swept;
      per_row.Reset(n, m, k, floor, GroupIndex::kNone);
      swept.Reset(n, m, k, floor, GroupIndex::kNone);
      const auto row_sum = [m](const CandidatePool& pool, uint32_t slot) {
        Score sum = 0.0;
        for (size_t i = 0; i < m; ++i) {
          sum += pool.row(slot)[i];
        }
        return sum;
      };
      const size_t ops = 4 * n;
      for (size_t op = 0; op < ops; ++op) {
        const ItemId item = static_cast<ItemId>(rng.NextBounded(n));
        const size_t list = rng.NextBounded(m);
        const Score score = floor + 0.25 * static_cast<Score>(rng.NextBounded(8));
        const uint32_t slot = per_row.FindOrInsert(item);
        if (per_row.SetSeen(slot, list, score)) {
          per_row.OfferLower(slot, row_sum(per_row, slot));
        }
        swept.SetSeen(swept.FindOrInsert(item), list, score);
        if (rng.NextBounded(64) != 0 && op + 1 < ops) {
          continue;
        }
        for (uint32_t s = 0; s < swept.size(); ++s) {
          swept.OfferLower(s, row_sum(swept, s));
        }
        ASSERT_EQ(swept.size(), per_row.size());
        ASSERT_EQ(swept.heap_size(), per_row.heap_size());
        std::vector<ItemId> want;
        std::vector<ItemId> got;
        per_row.AppendHeapItems(&want);
        swept.AppendHeapItems(&got);
        EXPECT_EQ(got, want);
        EXPECT_EQ(swept.KthLower(), per_row.KthLower());
        EXPECT_EQ(swept.KthItem(), per_row.KthItem());
        for (uint32_t s = 0; s < swept.size(); ++s) {
          ASSERT_EQ(swept.item_at(s), per_row.item_at(s));
          EXPECT_EQ(swept.lower(s), per_row.lower(s));
        }
      }
    }
  }
}

// Runs a seeded stream of the run loops' pool operations (record a score and
// publish the bound, erase a non-heap candidate) over items [0, n) and
// fingerprints the final state: the answer, and every group's mask, member
// items and min-side keys with their liveness. Registration stamps differ
// between pools by design (they never reset), so only liveness is compared.
std::string RunPoolOps(CandidatePool& pool, GroupIndex groups, size_t n,
                       uint64_t seed) {
  constexpr size_t kLists = 4;
  Rng rng(seed);
  pool.Reset(n, kLists, /*k=*/5, /*floor=*/0.0, groups);
  for (size_t op = 0; op < 4 * n; ++op) {
    if (rng.NextBounded(10) < 9) {
      const uint32_t slot =
          pool.FindOrInsert(static_cast<ItemId>(rng.NextBounded(n)));
      if (pool.SetSeen(slot, rng.NextBounded(kLists),
                       1.0 + rng.NextDouble())) {
        Score sum = 0.0;
        for (size_t i = 0; i < kLists; ++i) {
          sum += pool.row(slot)[i];
        }
        pool.OfferLower(slot, sum);
      }
    } else if (pool.size() > 0) {
      const uint32_t slot =
          static_cast<uint32_t>(rng.NextBounded(pool.size()));
      if (!pool.InHeap(slot)) {
        pool.Erase(slot);
      }
    }
  }
  std::vector<ItemId> answer;
  pool.AppendHeapItems(&answer);
  std::string out = "answer";
  for (ItemId item : answer) {
    out += " " + std::to_string(item);
  }
  out += "\nsize " + std::to_string(pool.size()) + " peak " +
         std::to_string(pool.peak_size());
  for (size_t g = 0; g < pool.num_groups(); ++g) {
    out += "\ngroup " + std::to_string(pool.group_mask(g)) + ":";
    for (uint32_t slot : pool.group_members(g)) {
      out += " " + std::to_string(pool.item_at(slot));
    }
    out += " |";
    for (const CandidatePool::MinEntry& entry : pool.group_min_entries(g)) {
      out += " " + std::to_string(entry.item) + "@" +
             std::to_string(entry.lower) +
             (pool.MinEntryLive(entry) ? "+" : "-");
    }
  }
  return out;
}

// The group arrays are sized per GroupIndex: kNone queries grow the slots
// past them, so the first grouped query after one must size them to the
// slot capacity before any slot is registered (Debug builds bounds-check
// every access and catch an unsized array).
TEST(CandidatePoolTest, GroupedQueryAfterUngroupedGrowthMatchesAFreshPool) {
  struct Query {
    GroupIndex groups;
    size_t n;
  };
  const Query queries[] = {
      {GroupIndex::kNone, 2000},     {GroupIndex::kDualHeap, 2000},
      {GroupIndex::kNone, 5000},     {GroupIndex::kMaxSide, 5000},
      {GroupIndex::kDualHeap, 5000}, {GroupIndex::kMaxSide, 300},
  };
  CandidatePool shared;
  uint64_t seed = 91;
  for (const Query& query : queries) {
    CandidatePool fresh;
    const std::string got = RunPoolOps(shared, query.groups, query.n, seed);
    if (query.groups != GroupIndex::kNone) {
      ExpectGroupIndexConsistent(shared);
    }
    EXPECT_EQ(got, RunPoolOps(fresh, query.groups, query.n, seed))
        << "n = " << query.n << ", seed " << seed;
    ++seed;
  }
}

// --- the direct item→slot index ---

TEST(CandidatePoolTest, IndexCoversTheFirstAndLastItemAndNothingPastN) {
  CandidatePool pool;
  constexpr ItemId kN = 100;
  pool.Reset(kN, /*m=*/2, /*k=*/1, /*floor=*/0.0);
  const uint32_t first = pool.FindOrInsert(0);
  const uint32_t last = pool.FindOrInsert(kN - 1);
  EXPECT_NE(first, last);
  EXPECT_EQ(pool.FindSlot(0), first);
  EXPECT_EQ(pool.FindSlot(kN - 1), last);
  EXPECT_EQ(pool.item_at(first), 0u);
  EXPECT_EQ(pool.item_at(last), kN - 1);
  // Never inserted, and at or past the sized n.
  EXPECT_EQ(pool.FindSlot(1), CandidatePool::kNoSlot);
  EXPECT_EQ(pool.FindSlot(kN), CandidatePool::kNoSlot);
  EXPECT_EQ(pool.FindSlot(kInvalidItem), CandidatePool::kNoSlot);

  // A smaller query keeps the larger index but still rejects ids past its
  // own n, including ones the previous query inserted.
  pool.Reset(/*n=*/10, /*m=*/2, /*k=*/1, /*floor=*/0.0);
  EXPECT_EQ(pool.FindSlot(kN - 1), CandidatePool::kNoSlot);
  EXPECT_EQ(pool.FindSlot(10), CandidatePool::kNoSlot);
  EXPECT_EQ(pool.FindSlot(0), CandidatePool::kNoSlot);
  EXPECT_EQ(pool.FindOrInsert(9), 0u);
}

TEST(CandidatePoolTest, ErasedItemReinsertsAsAFreshCandidateInOneEpoch) {
  CandidatePool pool;
  pool.Reset(/*n=*/10, /*m=*/2, /*k=*/1, /*floor=*/-1.0);
  for (ItemId item = 0; item < 4; ++item) {
    pool.SetSeen(pool.FindOrInsert(item), 0, 1.0 + item);
  }
  pool.OfferLower(pool.FindSlot(3), 4.0);  // heap member; the erase avoids it
  pool.Erase(pool.FindSlot(1));
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_EQ(pool.size(), 3u);

  const uint32_t slot = pool.FindOrInsert(1);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(slot, 3u);  // appended after the survivors
  EXPECT_EQ(pool.item_at(slot), 1u);
  EXPECT_EQ(pool.mask(slot), 0u);
  EXPECT_EQ(pool.known_count(slot), 0u);
  EXPECT_EQ(pool.lower(slot), -std::numeric_limits<Score>::infinity());
  EXPECT_FALSE(pool.InHeap(slot));
  EXPECT_EQ(pool.group_of(slot), CandidatePool::kNoGroup);
  EXPECT_DOUBLE_EQ(pool.row(slot)[0], -1.0);
  EXPECT_DOUBLE_EQ(pool.row(slot)[1], -1.0);
  // The candidate moved into the erased slot kept its state and heap link.
  const uint32_t moved = pool.FindSlot(3);
  EXPECT_EQ(pool.item_at(moved), 3u);
  EXPECT_TRUE(pool.InHeap(moved));
  EXPECT_EQ(pool.KthItem(), 3u);
  EXPECT_DOUBLE_EQ(pool.row(moved)[0], 4.0);
}

TEST(CandidatePoolTest, ResetToALargerNExposesNoStaleSlot) {
  CandidatePool pool;
  pool.Reset(/*n=*/16, /*m=*/1, /*k=*/1, /*floor=*/0.0);
  for (ItemId item = 0; item < 16; ++item) {
    pool.FindOrInsert(item);
  }
  pool.Reset(/*n=*/4, /*m=*/1, /*k=*/1, /*floor=*/0.0);
  for (ItemId item = 0; item < 4; ++item) {
    pool.FindOrInsert(item);
  }
  pool.Reset(/*n=*/64, /*m=*/1, /*k=*/1, /*floor=*/0.0);
  for (ItemId item = 0; item < 64; ++item) {
    EXPECT_FALSE(pool.Contains(item)) << "stale candidate " << item;
  }
  EXPECT_EQ(pool.FindOrInsert(63), 0u);
  EXPECT_EQ(pool.FindOrInsert(5), 1u);
  const size_t used = pool.arena_bytes_used();

  // The index is sized once per larger n: going back down and up again
  // reuses it instead of growing the arena.
  pool.Reset(/*n=*/16, /*m=*/1, /*k=*/1, /*floor=*/0.0);
  for (ItemId item = 0; item < 16; ++item) {
    EXPECT_FALSE(pool.Contains(item)) << "stale candidate " << item;
  }
  pool.Reset(/*n=*/64, /*m=*/1, /*k=*/1, /*floor=*/0.0);
  EXPECT_FALSE(pool.Contains(63));
  EXPECT_FALSE(pool.Contains(5));
  EXPECT_EQ(pool.arena_bytes_used(), used);
}

// --- the 64-list mask-word cap ---

TEST(CandidatePoolTest, PoolAlgorithmsRejectMoreListsThanTheMaskWord) {
  // 65 lists: one more than the single 64-bit seen-mask word covers.
  const Database db = MakeUniformDatabase(/*n=*/4, /*m=*/65, /*seed=*/9);
  SumScorer sum;
  for (AlgorithmKind kind :
       {AlgorithmKind::kNra, AlgorithmKind::kCa, AlgorithmKind::kTput}) {
    const auto status =
        MakeAlgorithm(kind)->Execute(db, TopKQuery{2, &sum}).status();
    EXPECT_TRUE(status.IsNotImplemented()) << ToString(kind);
    const std::string text = status.ToString();
    EXPECT_NE(text.find("64"), std::string::npos) << text;
    EXPECT_NE(text.find("single 64-bit word"), std::string::npos) << text;
    EXPECT_NE(text.find("got 65"), std::string::npos) << text;
  }
  // The mask-free algorithms are unaffected by list count.
  EXPECT_TRUE(MakeAlgorithm(AlgorithmKind::kTa)
                  ->Execute(db, TopKQuery{2, &sum})
                  .ok());
}

TEST(CandidatePoolTest, PoolAlgorithmsServeExactlyTheMaskWord) {
  // 64 lists: the seen mask's top bit is in use, through the slot record and
  // the group index alike.
  SumScorer sum;
  for (uint64_t seed : {3u, 4u}) {
    const Database db = MakeUniformDatabase(/*n=*/40, /*m=*/64, seed);
    for (size_t k : {size_t{1}, size_t{10}}) {
      const TopKQuery query{k, &sum};
      const TopKResult naive = MakeAlgorithm(AlgorithmKind::kNaive)
                                   ->Execute(db, query)
                                   .ValueOrDie();
      for (AlgorithmKind kind :
           {AlgorithmKind::kNra, AlgorithmKind::kCa, AlgorithmKind::kTput}) {
        SCOPED_TRACE(ToString(kind) + " seed " + std::to_string(seed) +
                     " k " + std::to_string(k));
        const Result<TopKResult> run = MakeAlgorithm(kind)->Execute(db, query);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        EXPECT_EQ(run.ValueUnsafe().completion, Completion::kExact);
        EXPECT_EQ(run.ValueUnsafe().Items(), naive.Items());
      }
    }
  }
}

}  // namespace
}  // namespace topk
