// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/candidate_pool.h"

#include <algorithm>
#include <limits>

namespace topk {

namespace {

// splitmix64 finalizer over a seen mask (masks differ in few bits; the
// finalizer spreads them over the whole table).
inline size_t HashMask(uint64_t mask) {
  mask ^= mask >> 30;
  mask *= 0xbf58476d1ce4e5b9ull;
  mask ^= mask >> 27;
  mask *= 0x94d049bb133111ebull;
  mask ^= mask >> 31;
  return static_cast<size_t>(mask);
}

constexpr size_t kInitialMaskTableSize = 128;  // power of two

}  // namespace

void CandidatePool::Reset(size_t n, size_t m, size_t k, Score floor,
                          GroupIndex groups) {
  assert(m >= 1 && m <= kMaxLists);
  n_ = n;
  m_ = m;
  k_ = k;
  floor_ = floor;
  group_index_ = groups;
  SizeGroupArrays();
  size_ = 0;
  peak_size_ = 0;
  heap_.clear();
  num_groups_ = 0;
  if (index_.size() < n) {
    // One n-cell span, sized once per larger n (stamp 0 is never live).
    index_.assign(arena_, n, IndexCell{kNoSlot, 0});
  }
  if (mask_table_masks_.empty()) {
    mask_table_masks_.resize(arena_, kInitialMaskTableSize, 0);
    mask_table_groups_.resize(arena_, kInitialMaskTableSize, kNoGroup);
    mask_table_stamps_.resize(arena_, kInitialMaskTableSize, 0);
    mask_table_mask_ = kInitialMaskTableSize - 1;
  }
  // Epoch 0 is reserved as "never valid"; on wrap fall back to one eager
  // clear (every 2^32 - 1 resets).
  if (++epoch_ == 0) {
    for (IndexCell& cell : index_) {
      cell.stamp = 0;
    }
    std::fill(mask_table_stamps_.begin(), mask_table_stamps_.end(), 0u);
    epoch_ = 1;
  }
}

uint32_t CandidatePool::Insert(ItemId item) {
  const uint32_t slot = static_cast<uint32_t>(size_++);
  peak_size_ = std::max(peak_size_, size_);
  if (slot == slots_.size()) {
    slots_.resize(arena_, std::max<size_t>(64, slots_.size() * 2));
    SizeGroupArrays();
  }
  if (rows_.size() < static_cast<size_t>(size_) * m_) {
    rows_.resize(arena_,
                 std::max(rows_.size() * 2, static_cast<size_t>(size_) * m_));
  }
  slots_[slot] = Slot{/*mask=*/0, -std::numeric_limits<Score>::infinity(),
                      item, /*known=*/0, kNoSlot, kNoGroup};
  if (has_min_side()) {
    births_[slot] = 0;  // never a live min entry until the first registration
  }
  std::fill_n(&rows_[static_cast<size_t>(slot) * m_], m_, floor_);
  index_[item] = IndexCell{slot, epoch_};
  return slot;
}

void CandidatePool::SizeGroupArrays() {
  if (group_index_ != GroupIndex::kNone && group_pos_.size() < slots_.size()) {
    group_pos_.resize(arena_, slots_.size());
  }
  if (has_min_side() && births_.size() < slots_.size()) {
    births_.resize(arena_, slots_.size());
  }
}

void CandidatePool::SiftUp(size_t pos) {
  const uint32_t slot = heap_[pos];
  const Key key = KeyOf(slot);
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Weaker(key, KeyOf(heap_[parent]))) {
      break;
    }
    heap_[pos] = heap_[parent];
    slots_[heap_[pos]].heap_pos = static_cast<uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = slot;
  slots_[slot].heap_pos = static_cast<uint32_t>(pos);
}

void CandidatePool::SiftDown(size_t pos) {
  const size_t count = heap_.size();
  const uint32_t slot = heap_[pos];
  const Key key = KeyOf(slot);
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= count) {
      break;
    }
    if (child + 1 < count &&
        Weaker(KeyOf(heap_[child + 1]), KeyOf(heap_[child]))) {
      ++child;
    }
    if (!Weaker(KeyOf(heap_[child]), key)) {
      break;
    }
    heap_[pos] = heap_[child];
    slots_[heap_[pos]].heap_pos = static_cast<uint32_t>(pos);
    pos = child;
  }
  heap_[pos] = slot;
  slots_[slot].heap_pos = static_cast<uint32_t>(pos);
}

// --- mask groups ---

void CandidatePool::MaskTableGrow() {
  const size_t new_size = mask_table_masks_.size() * 2;
  mask_table_masks_.assign(arena_, new_size, 0);
  mask_table_groups_.assign(arena_, new_size, kNoGroup);
  mask_table_stamps_.assign(arena_, new_size, 0);
  mask_table_mask_ = new_size - 1;
  for (uint32_t g = 0; g < num_groups_; ++g) {
    size_t cell = HashMask(groups_[g].mask) & mask_table_mask_;
    while (mask_table_stamps_[cell] == epoch_) {
      cell = (cell + 1) & mask_table_mask_;
    }
    mask_table_masks_[cell] = groups_[g].mask;
    mask_table_groups_[cell] = g;
    mask_table_stamps_[cell] = epoch_;
  }
}

uint32_t CandidatePool::FindOrCreateGroup(uint64_t mask) {
  size_t cell = HashMask(mask) & mask_table_mask_;
  while (mask_table_stamps_[cell] == epoch_) {
    if (mask_table_masks_[cell] == mask) {
      return mask_table_groups_[cell];
    }
    cell = (cell + 1) & mask_table_mask_;
  }
  if (2 * (num_groups_ + 1) > mask_table_masks_.size()) {
    MaskTableGrow();
    cell = HashMask(mask) & mask_table_mask_;
    while (mask_table_stamps_[cell] == epoch_) {
      cell = (cell + 1) & mask_table_mask_;
    }
  }
  const uint32_t g = static_cast<uint32_t>(num_groups_++);
  if (g == groups_.size()) {
    groups_.emplace_back();
  }
  groups_[g].mask = mask;
  groups_[g].members.clear();
  groups_[g].min_entries.clear();
  mask_table_masks_[cell] = mask;
  mask_table_groups_[cell] = g;
  mask_table_stamps_[cell] = epoch_;
  return g;
}

void CandidatePool::GroupSiftUp(Group& group, size_t pos) {
  ArenaVec<uint32_t>& members = group.members;
  const uint32_t slot = members[pos];
  const Key key = KeyOf(slot);
  // Strongest at the root: a member rises while it beats its parent.
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Weaker(KeyOf(members[parent]), key)) {
      break;
    }
    members[pos] = members[parent];
    group_pos_[members[pos]] = static_cast<uint32_t>(pos);
    pos = parent;
  }
  members[pos] = slot;
  group_pos_[slot] = static_cast<uint32_t>(pos);
}

void CandidatePool::GroupSiftDown(Group& group, size_t pos) {
  ArenaVec<uint32_t>& members = group.members;
  const size_t count = members.size();
  const uint32_t slot = members[pos];
  const Key key = KeyOf(slot);
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= count) {
      break;
    }
    if (child + 1 < count &&
        Weaker(KeyOf(members[child]), KeyOf(members[child + 1]))) {
      ++child;
    }
    if (!Weaker(key, KeyOf(members[child]))) {
      break;
    }
    members[pos] = members[child];
    group_pos_[members[pos]] = static_cast<uint32_t>(pos);
    pos = child;
  }
  members[pos] = slot;
  group_pos_[slot] = static_cast<uint32_t>(pos);
}

void CandidatePool::MinSiftUp(ArenaVec<MinEntry>& entries, size_t pos) {
  const MinEntry entry = entries[pos];
  // Weakest at the root: an entry rises while it is weaker than its parent.
  // Fresh registrations carry a just-grown bound, so they usually stop at
  // the leaf — the min side's push cost is O(1) in the common case.
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!EntryWeaker(entry, entries[parent])) {
      break;
    }
    entries[pos] = entries[parent];
    pos = parent;
  }
  entries[pos] = entry;
}

void CandidatePool::MinSiftDown(ArenaVec<MinEntry>& entries, size_t pos) {
  const size_t count = entries.size();
  const MinEntry entry = entries[pos];
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= count) {
      break;
    }
    if (child + 1 < count && EntryWeaker(entries[child + 1], entries[child])) {
      ++child;
    }
    if (!EntryWeaker(entries[child], entry)) {
      break;
    }
    entries[pos] = entries[child];
    pos = child;
  }
  entries[pos] = entry;
}

void CandidatePool::MinRebuild(Group& group) {
  // Refill from the live membership (one live entry per member, fresh copies
  // of the immutable keys and current stamps), then Floyd-heapify. Amortized
  // O(1) per deregistration: a rebuild of size L discards >= L stale
  // entries, each of which was one past deregistration.
  ArenaVec<MinEntry>& entries = group.min_entries;
  entries.clear();
  for (uint32_t slot : group.members) {
    entries.push_back(arena_, MinEntry{slots_[slot].lower, slots_[slot].item,
                                       births_[slot]});
  }
  if (entries.size() > 1) {
    for (size_t pos = entries.size() / 2; pos-- > 0;) {
      MinSiftDown(entries, pos);
    }
  }
}

void CandidatePool::PopGroupMin(size_t g) {
  ArenaVec<MinEntry>& entries = groups_[g].min_entries;
  assert(!entries.empty());
  entries[0] = entries.back();
  entries.pop_back();
  if (entries.size() > 1) {
    MinSiftDown(entries, 0);
  }
}

void CandidatePool::PushGroupMin(size_t g, const MinEntry& entry) {
  ArenaVec<MinEntry>& entries = groups_[g].min_entries;
  entries.push_back(arena_, entry);
  MinSiftUp(entries, entries.size() - 1);
}

void CandidatePool::GroupInsert(uint32_t slot) {
  assert(slots_[slot].group == kNoGroup && !InHeap(slot));
  const uint32_t g = FindOrCreateGroup(slots_[slot].mask);
  Group& group = groups_[g];
  slots_[slot].group = g;
  group_pos_[slot] = static_cast<uint32_t>(group.members.size());
  group.members.push_back(arena_, slot);
  GroupSiftUp(group, group.members.size() - 1);
  if (has_min_side()) {
    // A fresh stamp orphans every earlier entry of this slot; the one entry
    // pushed here is the registration's single live representative.
    births_[slot] = ++birth_counter_;
    group.min_entries.push_back(
        arena_, MinEntry{slots_[slot].lower, slots_[slot].item, births_[slot]});
    MinSiftUp(group.min_entries, group.min_entries.size() - 1);
    // Stale entries outnumber live members: compact them away. (The peels
    // also discard stale entries as they pop them; this bound covers groups
    // whose min side is rarely peeled.)
    if (group.min_entries.size() > 2 * group.members.size() + 64) {
      MinRebuild(group);
    }
  }
}

void CandidatePool::GroupRemove(uint32_t slot) {
  const uint32_t g = slots_[slot].group;
  assert(g != kNoGroup);
  Group& group = groups_[g];
  slots_[slot].group = kNoGroup;
  const size_t pos = group_pos_[slot];
  const uint32_t last = group.members.back();
  group.members.pop_back();
  if (last != slot) {
    group.members[pos] = last;
    group_pos_[last] = static_cast<uint32_t>(pos);
    // The filler may be stronger or weaker than the hole's old occupant.
    GroupSiftUp(group, pos);
    GroupSiftDown(group, group_pos_[last]);
  }
  if (has_min_side()) {
    // Min side: deregistration is free — re-stamping the slot orphans its
    // entry wherever it sits (popped and discarded by a later peel, or
    // swept out by a rebuild).
    births_[slot] = ++birth_counter_;
  }
}

void CandidatePool::OfferLower(uint32_t slot, Score lower) {
  assert(slot < size_);
  assert(lower >= slots_[slot].lower);  // knowledge only accumulates
  // Deregister under the stale key before the bound (and thus the heap key)
  // changes; the slot is re-registered below unless it enters the heap.
  if (slots_[slot].group != kNoGroup) {
    GroupRemove(slot);
  }
  slots_[slot].lower = lower;
  const uint32_t pos = slots_[slot].heap_pos;
  if (pos != kNoSlot) {
    // The member's key grew: in a weakest-at-root heap it moves toward the
    // leaves.
    SiftDown(pos);
    return;
  }
  if (heap_.size() < k_) {
    heap_.push_back(arena_, slot);
    SiftUp(heap_.size() - 1);
    return;
  }
  const bool grouped = group_index_ != GroupIndex::kNone;
  if (k_ == 0) {
    if (grouped) {
      GroupInsert(slot);
    }
    return;
  }
  const uint32_t weakest = heap_.front();
  if (Weaker(KeyOf(weakest), KeyOf(slot))) {
    slots_[weakest].heap_pos = kNoSlot;
    heap_[0] = slot;
    slots_[slot].heap_pos = 0;
    SiftDown(0);
    if (grouped) {
      // The displaced member leaves the answer set and becomes a regular
      // group-indexed candidate again.
      GroupInsert(weakest);
    }
    return;
  }
  if (grouped) {
    GroupInsert(slot);
  }
}

void CandidatePool::AppendHeapItems(std::vector<ItemId>* out) const {
  emit_scratch_.clear();
  for (uint32_t slot : heap_) {
    emit_scratch_.push_back(KeyOf(slot));
  }
  std::sort(emit_scratch_.begin(), emit_scratch_.end(),
            [](const Key& a, const Key& b) { return Weaker(b, a); });
  for (const Key& key : emit_scratch_) {
    out->push_back(key.item);
  }
}

void CandidatePool::Erase(uint32_t slot) {
  assert(slot < size_);
  assert(!InHeap(slot));
  if (slots_[slot].group != kNoGroup) {
    GroupRemove(slot);
  }
  index_[slots_[slot].item].stamp = 0;
  const uint32_t last = static_cast<uint32_t>(--size_);
  if (slot == last) {
    return;
  }
  slots_[slot] = slots_[last];
  const Slot& moved = slots_[slot];
  std::copy_n(&rows_[static_cast<size_t>(last) * m_], m_,
              &rows_[static_cast<size_t>(slot) * m_]);
  if (moved.heap_pos != kNoSlot) {
    heap_[moved.heap_pos] = slot;
  }
  if (moved.group != kNoGroup) {
    group_pos_[slot] = group_pos_[last];
    groups_[moved.group].members[group_pos_[slot]] = slot;
  }
  // The min side needs no fixup: entries reference (item, stamp), not slots,
  // and both move with the candidate.
  if (has_min_side()) {
    births_[slot] = births_[last];
  }
  // Retarget the moved item's index cell at its new slot.
  index_[moved.item].slot = slot;
}

}  // namespace topk
