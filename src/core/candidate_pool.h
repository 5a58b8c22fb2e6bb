// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// CandidatePool: flat, epoch-stamped candidate bookkeeping for the
// no-random-access algorithm family (NRA, CA, TPUT).
//
// The pool replaces the per-query `std::unordered_map<ItemId, Candidate>` the
// seed implementations built: a direct item→slot index (one epoch-stamped
// {slot, stamp} cell per item id of [0, n), so a lookup is one load and a
// reset is an O(1) epoch bump instead of a table clear) over a dense
// candidate store — per slot one packed 32-byte record (item, seen-list bit
// mask, known-list count, cached lower bound, heap and group backlinks) plus
// the m local scores (unknown cells pre-filled with the query's score
// floor). Recording a sorted row touches the index cell, the record and the
// score row: three or four cache lines. All storage is retained across
// queries and only ever grows, so a warmed pool serves an unbounded query
// stream without touching the heap allocator. At DRAM-resident n the arrays
// span tens of megabytes of randomly probed memory, so they live on the
// pool's own mmap'd arena with hugepage-advised chunks above a size
// threshold (see core/pool_arena.h) — the same TLB treatment the Database's
// item-major mirror gets.
//
// On top of the store sit two index structures:
//
//  1. An intrusive threshold heap: the k best candidates ordered by
//     (lower bound, item id) — the paper's "k-th best lower bound" that NRA's
//     stopping rule and CA/TPUT's phase thresholds (τ1, τ2) are evaluated
//     against. Lower bounds only grow as knowledge accumulates, so the heap
//     is maintained incrementally (O(log k) per update via the slot→heap
//     position backlink) instead of being rebuilt per stop-rule check.
//
//  2. An optional per-mask group index over every candidate *outside* the
//     threshold heap. Fagin et al.'s NRA bound decomposition says a
//     candidate's upper bound is its lower bound plus the current depth
//     scores of its unseen lists — a function of the candidate's seen mask
//     alone (for summation scoring). Grouping candidates by mask therefore
//     turns the stop-rule sweep ("does any candidate still block?") and CA's
//     victim selection ("which unresolved candidate has the largest upper
//     bound?") from O(pool size) scans into O(#distinct masks) scans. Groups
//     are keyed by the immutable (lower bound, item id) pair — immutable
//     because a candidate's lower bound changes exactly when its mask
//     changes, which moves it to another group — and carry up to two heap
//     sides:
//
//       - a strongest-at-root *max side* (in every group) whose root
//         majorizes the group's upper bounds: the stop-rule blocking checks,
//         CA's victim argmax and NRA's compaction walk it top-down, pruning
//         whole subtrees against a threshold, and
//       - an optional weakest-at-root *min side* whose root minorizes them:
//         CA's prune-and-erase stop check peels victims weakest-first off it
//         and stops the moment the root is provably above the prune
//         threshold, decoupling the pass's cost from the live-set size.
//
//     The two sides trade update discipline for their access patterns. The
//     max side is exact at all times: backlinked slots, O(log group) sift
//     surgery on every registration change (its walks need every array
//     entry live). The min side is **lazily invalidated**: entries are
//     self-contained (lower bound, item id, registration stamp) keys in a
//     plain binary min-heap; registering a member pushes one entry (usually
//     O(1) — a freshly grown bound is strong, so it stays at a leaf) and
//     deregistering merely re-stamps the slot, orphaning the entry where it
//     sits. A stamp mismatch is detected when a peel pops the entry (each
//     stale entry is popped exactly once — amortized against its own push)
//     or when a group's entry count exceeds twice its live membership and
//     the heap is rebuilt from the live members (amortized against the
//     staling deregistrations). Because a member's key is immutable while
//     it is registered, a live entry's stored bound is bit-identical to the
//     member's current bound — the peels classify with exactly the
//     arithmetic the pre-dual-heap sweeps used.
//
//     Each query picks its index with Reset's GroupIndex: none, the max
//     side alone, or both sides. The min side is enabled by the one
//     consumer whose peel frequency pays for the per-registration pushes:
//     CA. See Reset for the measured trade (an always-on min side — eagerly
//     backlinked or lazy — made NRA ~2x slower at n=1M, because NRA
//     registers ~10^6 times per query and peels only on its rare
//     watermark-triggered compactions). TPUT keeps no index: it reads the
//     pool once, in phase 3, with a plain sweep. Threshold-heap members are
//     deliberately absent from the groups: they are the current answer and
//     never block the stop rule; callers that need them (CA's victim
//     selection) scan the ≤ k heap slots directly.
//
// Tie-breaking is deterministic everywhere: on equal lower bounds the smaller
// item id is the stronger candidate, matching TopKBuffer and the library-wide
// result order (descending score, ascending item id).

#ifndef TOPK_CORE_CANDIDATE_POOL_H_
#define TOPK_CORE_CANDIDATE_POOL_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pool_arena.h"
#include "lists/types.h"

namespace topk {

/// Which per-mask group index a query's pool maintains (see
/// CandidatePool::Reset).
enum class GroupIndex {
  kNone,      // no groups: TPUT, and NRA/CA under non-sum scorers
  kMaxSide,   // strongest-at-root member heaps: NRA
  kDualHeap,  // plus the weakest-at-root min side: CA
};

/// Flat candidate set of one NRA/CA/TPUT execution. Not thread-safe; borrow
/// one per concurrent query (it lives in ExecutionContext). Supports at most
/// 64 lists (the seen mask is a single word).
class CandidatePool {
 public:
  static constexpr size_t kMaxLists = 64;
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  static constexpr uint32_t kNoGroup = UINT32_MAX;

  CandidatePool() = default;
  CandidatePool(const CandidatePool&) = delete;
  CandidatePool& operator=(const CandidatePool&) = delete;

  /// Forgets all candidates and reconfigures for a query over `n` items (ids
  /// in [0, n)) and `m` lists with a threshold heap of size `k`; `floor`
  /// pre-fills unknown score cells (the paper's lower-bound contribution for
  /// unseen lists). O(1) amortized: the item→slot and mask→group indexes are
  /// invalidated by an epoch bump, not cleared. The item→slot index is sized
  /// from `n` on the first query and grows (one fresh n-cell span) only when
  /// a later query's n is larger.
  ///
  /// `groups` selects the group index, maintained on every OfferLower.
  /// kNone registers nothing: TPUT reads its pool once, in phase 3, with a
  /// plain sweep, and the non-sum scorers' stop rules sweep per candidate.
  /// kMaxSide serves NRA's repeated stop checks. kDualHeap adds the min side
  /// to each group. It is a consumer-driven trade: each registration pushes
  /// one min-side entry (~one cache miss for the sift-up's parent compare),
  /// which only pays off when the min side is peeled often relative to
  /// registrations. CA peels at every stop check (every cr/cs rows) — its
  /// peels turned an O(live set) sweep into the prunable tail and bought an
  /// order of magnitude at DRAM-resident n. NRA peels only on
  /// watermark-triggered compactions (a handful per query against ~10^6
  /// registrations) — an always-on min side measured ~2x slower end-to-end
  /// for NRA at n=1M, so NRA runs max-side-only and compacts with the
  /// max-side walk.
  void Reset(size_t n, size_t m, size_t k, Score floor,
             GroupIndex groups = GroupIndex::kMaxSide);

  /// Number of live candidates. Slots are dense: 0 .. size()-1.
  size_t size() const { return size_; }

  /// High-water mark of size() since the last Reset — what the query's
  /// bookkeeping actually cost in pool rows, independent of how much
  /// compaction erased since. The NRA compaction tests assert this stays
  /// far below n on DRAM-scale workloads.
  size_t peak_size() const { return peak_size_; }

  size_t num_lists() const { return m_; }

  /// Approximate bytes of live candidate state: the score row (m scores) plus
  /// fixed per-slot bookkeeping, times the current candidate count. This is
  /// what the governor's pool_byte_budget meters — the footprint of *this*
  /// query's candidates, deliberately not the arena capacity a warmed
  /// context retains from earlier queries.
  size_t LiveCandidateBytes() const {
    return size_ * (m_ * sizeof(Score) + kSlotOverheadBytes);
  }

  /// Per-slot bookkeeping outside the score row: item id, seen mask, lower
  /// bound, heap/group positions and the group-index entries (see the slot
  /// record below). The item→slot index is not metered: it is sized by n,
  /// not by the candidates.
  static constexpr size_t kSlotOverheadBytes =
      sizeof(ItemId) + sizeof(uint64_t) + sizeof(Score) + 4 * sizeof(uint32_t);

  bool Contains(ItemId item) const { return FindSlot(item) != kNoSlot; }

  /// Slot of `item`, or kNoSlot if the item is not a candidate (including
  /// every id at or past the query's n).
  uint32_t FindSlot(ItemId item) const {
    if (item >= n_) {
      return kNoSlot;
    }
    const IndexCell cell = index_[item];
    return cell.stamp == epoch_ ? cell.slot : kNoSlot;
  }

  /// Pulls `item`'s index cell toward the cache. The run loops call this for
  /// the item of the sorted row a few iterations ahead of use (decision-free
  /// and uncounted, like the TA/BPA mirror prefetches): at DRAM-resident n
  /// the index spans megabytes, so the FindOrInsert lookup is otherwise a
  /// guaranteed stall per access. The cell (slot, stamp) is 8 bytes — one
  /// line, one prefetch. `item` must be below the query's n.
  void PrefetchItem(ItemId item) const { __builtin_prefetch(&index_[item]); }

  /// Slot of `item`, inserting a fresh candidate (floor-filled row, empty
  /// mask, lower bound -inf, in neither the heap nor any group) if absent.
  /// `item` must be below the query's n.
  uint32_t FindOrInsert(ItemId item) {
    assert(item < n_);
    const IndexCell cell = index_[item];
    return cell.stamp == epoch_ ? cell.slot : Insert(item);
  }

  /// Records list `list_index`'s local score of the candidate. Returns true
  /// if the list was newly seen (mask bit set now), false if it was already
  /// known (the score is left untouched — local scores are deterministic, so
  /// a re-record carries the same value). A newly-seen list changes the
  /// candidate's mask, so it is deregistered from its group; the caller must
  /// publish the updated bound with OfferLower once the burst of SetSeen
  /// calls for this candidate is done (re-grouping it under the new mask).
  /// Under GroupIndex::kNone nothing is grouped, so a caller may defer that
  /// publication until before it next reads the heap (TPUT offers every
  /// candidate once per phase).
  bool SetSeen(uint32_t slot, size_t list_index, Score score) {
    assert(slot < size_ && list_index < m_);
    Slot& record = slots_[slot];
    const uint64_t bit = uint64_t{1} << list_index;
    if (record.mask & bit) {
      return false;
    }
    if (record.group != kNoGroup) {
      GroupRemove(slot);
    }
    record.mask |= bit;
    rows_[static_cast<size_t>(slot) * m_ + list_index] = score;
    ++record.known;
    return true;
  }

  ItemId item_at(uint32_t slot) const { return slots_[slot].item; }
  uint64_t mask(uint32_t slot) const { return slots_[slot].mask; }
  uint32_t known_count(uint32_t slot) const { return slots_[slot].known; }
  bool fully_known(uint32_t slot) const { return slots_[slot].known == m_; }

  /// The candidate's m local scores; cells of unseen lists hold the floor,
  /// so Scorer::Combine over the row is exactly the paper's lower bound.
  const Score* row(uint32_t slot) const {
    return &rows_[static_cast<size_t>(slot) * m_];
  }

  // --- intrusive threshold heap (k best lower bounds) ---

  /// Publishes the candidate's current lower bound. Bounds must be
  /// non-decreasing per slot (knowledge only accumulates); the heap is
  /// updated in O(log k): sift if the slot is a member, replace the weakest
  /// member if the new bound beats it, no-op otherwise. The candidate ends up
  /// either in the heap or registered in the group of its current mask, and a
  /// member it displaces moves from the heap into its own mask's group.
  /// Because bounds only grow, the heap holds the k strongest published
  /// (lower bound, item id) keys whatever the order and timing of the
  /// offers: under GroupIndex::kNone a caller may record many rows and then
  /// offer every candidate's bound in one sweep before it reads the heap, and
  /// the heap (KthLower, KthItem, AppendHeapItems) is the one that an offer
  /// after every row would leave. Re-offering an unchanged bound changes
  /// nothing.
  void OfferLower(uint32_t slot, Score lower);

  /// Number of heap members (<= k).
  size_t heap_size() const { return heap_.size(); }

  /// True when k candidates carry a published lower bound.
  bool HeapFull() const { return heap_.size() == k_; }

  /// The k-th best (i.e. weakest heap member's) lower bound — the paper's
  /// stopping/pruning threshold. Requires heap_size() > 0.
  Score KthLower() const { return slots_[heap_.front()].lower; }

  /// Item id of the weakest heap member (largest id among candidates tied at
  /// KthLower() — the boundary of the deterministic result order). Requires
  /// heap_size() > 0.
  ItemId KthItem() const { return slots_[heap_.front()].item; }

  bool InHeap(uint32_t slot) const { return slots_[slot].heap_pos != kNoSlot; }

  /// The heap members' slots in heap order (callers that need the ≤ k
  /// current-answer candidates — CA's victim selection — scan this
  /// directly; heap members are not in any group).
  const ArenaVec<uint32_t>& heap_slots() const { return heap_; }

  Score lower(uint32_t slot) const { return slots_[slot].lower; }

  /// Appends the heap members' items ordered by (lower bound desc, item id
  /// asc). Allocation-free once the internal scratch has warmed up.
  void AppendHeapItems(std::vector<ItemId>* out) const;

  /// Removes a candidate that is not a heap member (pruned for good). The
  /// last slot is moved into the hole, so iteration by ascending slot must
  /// re-examine `slot` after an erase.
  void Erase(uint32_t slot);

  // --- per-mask group index (candidates outside the threshold heap) ---

  /// Number of mask groups materialized this query (groups whose members all
  /// left stay allocated with an empty member heap until the next Reset).
  size_t num_groups() const { return num_groups_; }

  /// Seen mask shared by every member of group `g`.
  uint64_t group_mask(size_t g) const { return groups_[g].mask; }

  /// The group's member slots as a binary max-heap ordered by
  /// (lower bound desc, item id asc): members[0] is the group's strongest
  /// candidate, and every subtree root majorizes its descendants — callers
  /// walk it top-down and prune whole subtrees against a bound threshold.
  /// Compaction is eager (members leave in O(log size) when their mask
  /// changes or they enter the threshold heap), so every entry is live.
  const ArenaVec<uint32_t>& group_members(size_t g) const {
    return groups_[g].members;
  }

  /// One entry of a group's min side: the member's immutable key plus the
  /// registration stamp that told it apart from every other (de)registration
  /// of this query. The entry is self-contained — peels and heap sifts never
  /// touch the slot arrays — and slot-independent, so Erase's slot moves
  /// need no min-side fixups.
  struct MinEntry {
    Score lower;
    ItemId item;
    uint64_t birth;
  };

  /// The min side of the dual heap: a weakest-at-root binary heap of the
  /// entries pushed by every registration into this group, including stale
  /// ones (members that have since deregistered; MinEntryLive tells them
  /// apart). The stored keys satisfy the heap invariant unconditionally, so
  /// min_entries[0] carries the smallest stored key and every live member's
  /// current key appears exactly once. Maintained under kDualHeap only
  /// (empty otherwise).
  const ArenaVec<MinEntry>& group_min_entries(size_t g) const {
    return groups_[g].min_entries;
  }

  /// True iff the entry refers to a currently registered member (its stamp
  /// still matches — stamps are unique per (de)registration within a query,
  /// so a match certifies the member is registered, in the group the entry
  /// was pushed into, with its lower bound bit-identical to entry.lower).
  bool MinEntryLive(const MinEntry& entry) const {
    const uint32_t slot = FindSlot(entry.item);
    return slot != kNoSlot && births_[slot] == entry.birth;
  }

  /// Pops the min side's root entry (requires a non-empty min side).
  void PopGroupMin(size_t g);

  /// Re-pushes an entry a peel popped but did not consume (a margin-band
  /// survivor). The entry must still be live.
  void PushGroupMin(size_t g, const MinEntry& entry);

  /// Scratch for the peels' popped-but-surviving entries; emptied, capacity
  /// retained on the arena. Fill through PushPeelScratch (growth must go
  /// through the pool's arena).
  ArenaVec<MinEntry>& PeelScratch() {
    peel_scratch_.clear();
    return peel_scratch_;
  }
  void PushPeelScratch(const MinEntry& entry) {
    peel_scratch_.push_back(arena_, entry);
  }

  /// True when the groups carry their min side (kDualHeap; see Reset).
  bool has_min_side() const { return group_index_ == GroupIndex::kDualHeap; }

  /// Group the slot is registered in, or kNoGroup for threshold-heap members
  /// and candidates whose OfferLower is still pending after SetSeen.
  uint32_t group_of(uint32_t slot) const { return slots_[slot].group; }

  // --- arena introspection (see core/pool_arena.h) ---

  /// Bytes of address space the pool's arena has reserved. Monotone, and
  /// stable across warmed queries — the arena-growth test pins this.
  size_t arena_bytes_reserved() const { return arena_.bytes_reserved(); }
  size_t arena_bytes_used() const { return arena_.bytes_used(); }
  size_t arena_chunks() const { return arena_.num_chunks(); }

 private:
  struct Key {
    Score lower;
    ItemId item;
  };

  // `a` strictly weaker than `b`: smaller bound, or equal bound and larger
  // item id (mirrors TopKBuffer's deterministic tie-break).
  static bool Weaker(const Key& a, const Key& b) {
    if (a.lower != b.lower) {
      return a.lower < b.lower;
    }
    return a.item > b.item;
  }
  Key KeyOf(uint32_t slot) const {
    return Key{slots_[slot].lower, slots_[slot].item};
  }

  void SiftUp(size_t pos);
  void SiftDown(size_t pos);

  /// FindOrInsert's miss path: appends a fresh candidate for `item`.
  uint32_t Insert(ItemId item);

  /// Sizes the arrays only group surgery reads to the slot capacity, for
  /// the query's GroupIndex: group_pos_ unless kNone, births_ under
  /// kDualHeap only. Called when a query starts and when the slots grow.
  void SizeGroupArrays();

  // One per-mask candidate group: the member slots form a strongest-at-root
  // binary heap in `members`; under kDualHeap `min_entries` holds the
  // weakest-at-root entry heap of the min side (live entries + lazily
  // invalidated stale ones). Storage is retained across queries.
  struct Group {
    uint64_t mask = 0;
    ArenaVec<uint32_t> members;
    ArenaVec<MinEntry> min_entries;
  };

  /// Index of the group for `mask`, materializing it if needed.
  uint32_t FindOrCreateGroup(uint64_t mask);

  /// Registers the slot (not in any group, not in the heap) in the group of
  /// its current mask under its current (lower, item) key: max-side sift
  /// insert plus, under kDualHeap, a fresh stamp and one min-side entry push.
  void GroupInsert(uint32_t slot);

  /// Deregisters the slot from its group: O(log group size) max-side
  /// surgery; the min side is invalidated for free by re-stamping the slot.
  void GroupRemove(uint32_t slot);

  void GroupSiftUp(Group& group, size_t pos);
  void GroupSiftDown(Group& group, size_t pos);
  static bool EntryWeaker(const MinEntry& a, const MinEntry& b) {
    return Weaker(Key{a.lower, a.item}, Key{b.lower, b.item});
  }
  void MinSiftUp(ArenaVec<MinEntry>& entries, size_t pos);
  void MinSiftDown(ArenaVec<MinEntry>& entries, size_t pos);
  /// Discards every stale entry by rebuilding the min side from the live
  /// max-side membership (triggered when stale entries outnumber live ones).
  void MinRebuild(Group& group);
  void MaskTableGrow();

  size_t n_ = 0;  // the query's item count: ids are in [0, n_)
  size_t m_ = 0;
  size_t k_ = 0;
  Score floor_ = 0.0;
  GroupIndex group_index_ = GroupIndex::kMaxSide;
  size_t size_ = 0;
  size_t peak_size_ = 0;

  // The arena behind every flat array below (and the group member heaps):
  // bump-allocated spans over mmap'd, hugepage-advised chunks, retained
  // across queries. Declared first so it outlives the views during
  // destruction.
  PoolArena arena_;

  // The per-slot fields that every record, offer and heap or group sift
  // reads, packed into one record: two records per 64-byte line (arena
  // spans are 64-byte aligned), so a slot's bookkeeping costs one cache
  // line, not one per field.
  struct Slot {
    uint64_t mask;
    Score lower;
    ItemId item;
    uint32_t known;     // number of set mask bits
    uint32_t heap_pos;  // index in heap_, kNoSlot if outside
    uint32_t group;     // group index, kNoGroup if none
  };
  static_assert(sizeof(Slot) == 32, "two slot records per cache line");

  // Candidate store, indexed by slot < size_. Only group surgery and CA's
  // min side touch group_pos_ and births_, so they stay out of the record
  // (and are sized per GroupIndex, see SizeGroupArrays).
  ArenaVec<Slot> slots_;
  ArenaVec<Score> rows_;          // size_ * m_, strided by m_
  ArenaVec<uint32_t> group_pos_;  // slot -> index in its group's max heap
  // Registration stamp of the slot: bumped on every group (de)registration,
  // so a min-side entry is live iff its stored stamp still matches. The
  // 64-bit counter never resets, making stamps unique for the pool's whole
  // lifetime — a stale entry can never be revived by a later registration,
  // not even across epochs or slot reuse.
  ArenaVec<uint64_t> births_;
  uint64_t birth_counter_ = 0;

  // Direct item→slot index, one cell per item id (item ids are dense in
  // [0, n): the Database guarantees it, and the coordinator rejects reply
  // items at or past n). A cell is live iff its stamp equals the current
  // epoch, so Reset never touches the index; an erase zeroes the stamp.
  // Sized from the largest n seen so far, never from the candidate count.
  struct IndexCell {
    uint32_t slot;
    uint32_t stamp;
  };
  ArenaVec<IndexCell> index_;
  uint32_t epoch_ = 0;

  // Min-heap of slots: front = weakest of the k best (lower, item) pairs.
  ArenaVec<uint32_t> heap_;
  mutable std::vector<Key> emit_scratch_;  // for sorted emission
  ArenaVec<MinEntry> peel_scratch_;        // peels' band survivors

  // Mask groups: dense array of the groups materialized this query plus an
  // epoch-stamped open-addressing mask→group index.
  std::vector<Group> groups_;
  size_t num_groups_ = 0;
  ArenaVec<uint64_t> mask_table_masks_;
  ArenaVec<uint32_t> mask_table_groups_;
  ArenaVec<uint32_t> mask_table_stamps_;
  size_t mask_table_mask_ = 0;
};

}  // namespace topk

#endif  // TOPK_CORE_CANDIDATE_POOL_H_
