// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// RemoteIo: the access policy (core/list_io.h) through which the Coordinator
// runs the core BPA, TPUT and NRA loops over remote list owners — the same
// loops, stop rules, governor cadence and result certification as the
// single-node engine. Every read goes through Coordinator::ListRpc (retry,
// hedging, replica failover) and is batched the way the protocol prices it:
//
//  * FetchSorted(list, position, last) serves rows from one window buffer
//    per list and sends one kSortedWindow of min(window_rows,
//    last - position + 1) rows whenever the row is not buffered — a message
//    per window_rows rows of a list, capped at k in TPUT's phase 1;
//  * DrainTo(list, position, threshold) does the same with kDrain, whose
//    threshold stop runs owner-side (TPUT's phase 2);
//  * BatchSpan(row, enumerate) opens BPA's lookup spans: at a row no span
//    covers it refills every live list's window from that row, and the span
//    runs to the last row all live windows hold (one row at window_rows =
//    1). BPA announces the random reads of the whole span, and one
//    kRandomLookup per list carries them: a lookup per list and window.
//    Replies for rows past the one where BPA stops go unread — the same
//    one-window speculation the sorted windows make;
//  * BatchRandom(enumerate) collects the random reads a loop announces —
//    a BPA span, TPUT's phase-3 survivors — and sends one kRandomLookup per
//    list; Random() then serves the replies in request order;
//  * BeginRound counts DistStats::rounds (a BPA row, a TPUT phase, an NRA
//    stop-check round).
//
// Faults: kFaultAware is true, and a list is alive while its replica group
// is (Coordinator::ListAlive). An RPC that returns Unavailable has lost the
// whole group, and the loops' aliveness guards take over: BPA and TPUT
// return Unavailable and the coordinator re-runs the core NRA loop over the
// same buffers. BPA finds a group lost at a span's window refill or lookup,
// up to a window of rows before its row loop reaches the dead list. A
// malformed reply is a protocol bug, not a death: it is
// recorded (RemoteReads::error), every list then reads as dead so the loop
// winds down without sending anything more, and the query returns the error.
//
// Access counts are logical — one per Sorted/Random call, as the local
// policies count — so budgets and result access counts match single-node
// runs, while DistStats counts the wire.

#ifndef TOPK_DIST_REMOTE_IO_H_
#define TOPK_DIST_REMOTE_IO_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "dist/coordinator.h"
#include "dist/messages.h"
#include "lists/access_stats.h"
#include "lists/types.h"

namespace topk {

/// The read state behind one query's RemoteIo handles. The Coordinator owns
/// one and resets it per query (storage retained), so a BPA or TPUT run and
/// its NRA failover share the buffers; only RemoteIo touches them.
struct RemoteReads {
  /// Empties the buffers for a query over `m` lists of `n` items. Only BPA
  /// reads scores by position (its λ), so only a BPA query sizes that
  /// m·(n+1) array; other queries write it only once it exists.
  void Reset(size_t m, size_t n, bool bpa) {
    access = AccessStats{};
    error = Status::OK();
    window_base.assign(m, 0);
    window_end.assign(m, 0);
    window.resize(m);
    requested.resize(m);
    lookups.resize(m);
    lookup_cursor.assign(m, 0);
    span_end = 0;
    scores_by_position.resize(m);
    for (std::vector<Score>& scores : scores_by_position) {
      // No reset: ScoreAt reads only positions this query revealed.
      scores.resize(bpa ? n + 1 : scores.size());
    }
  }

  AccessStats access;  // logical access counts
  Status error;  // first protocol error: a malformed reply or a misread lookup

  std::vector<Position> window_base;  // list -> first buffered position
  std::vector<Position> window_end;   // list -> one past the last; 0 = empty
  std::vector<std::vector<ListEntry>> window;
  std::vector<std::vector<ItemId>> requested;    // the announced random reads
  std::vector<std::vector<ItemLookup>> lookups;  // their replies
  std::vector<size_t> lookup_cursor;             // next reply Random serves
  Position span_end = 0;  // one past the last row BPA's lookups announced
  std::vector<std::vector<Score>> scores_by_position;
  Request request;
  Reply reply;
};

/// A copyable handle over the Coordinator's RPCs and a RemoteReads. Each
/// handle caches the window it last looked up; the coordinator gives every
/// run a fresh handle.
class RemoteIo {
 public:
  static constexpr bool kFaultAware = true;

  RemoteIo(Coordinator* coordinator, RemoteReads* reads)
      : c_(coordinator), r_(reads) {}

  size_t num_items() const { return c_->n_; }
  size_t num_lists() const { return c_->replicas_of_.size(); }
  Score MaxScore(size_t list) const { return c_->max_score_[list]; }
  Score MinScore(size_t list) const { return c_->min_score_[list]; }

  // --- counted reads (after FetchSorted/DrainTo, resp. BatchRandom) ---

  AccessedEntry Sorted(size_t list, Position position) {
    ++r_->access.sorted_accesses;
    Buffered(list, position);
    const ListEntry& entry = rows_[position - base_];
    return AccessedEntry{entry.item, entry.score, position};
  }
  /// Serves the next reply of `list`'s lookup batch. The loops replay their
  /// announcement exactly, so a read the batch does not hold next is a bug:
  /// it fails the query (Internal) instead of lending `item` another item's
  /// score.
  ItemLookup Random(size_t list, ItemId item) {
    ++r_->access.random_accesses;
    size_t& cursor = r_->lookup_cursor[list];
    if (cursor < r_->lookups[list].size() &&
        r_->requested[list][cursor] == item) {
      return r_->lookups[list][cursor++];
    }
    return Misread(list, item);
  }

  // --- uncounted reads ---

  /// BPA's λ reads a best position: at or past the list's last sorted row,
  /// so it is in the list's window, on the last row of the window before it
  /// (a list that dies as its windows roll over stops there), or past both,
  /// where only a lookup of this query can have revealed it.
  Score ScoreAt(size_t list, Position position) {
    return Buffered(list, position) ? rows_[position - base_].score
                                    : r_->scores_by_position[list][position];
  }
  /// Never reached: the coordinator runs NRA only after a replica group
  /// died, and a fault-aware NRA run with a dead list reports certified
  /// lower bounds instead of exact scores (core/nra_loop.h).
  Score ExactScore(size_t /*list*/, ItemId /*item*/) const {
    return std::numeric_limits<Score>::quiet_NaN();
  }
  /// Prefetch hint: the buffered item, else item 0 (a harmless target).
  ItemId PeekItem(size_t list, Position position) {
    return Buffered(list, position) ? rows_[position - base_].item : 0;
  }
  void PrefetchRow(ItemId /*item*/) const {}
  static constexpr size_t MirrorBytes() { return 0; }  // no local mirror
  static constexpr const Position* PositionsRow(ItemId) { return nullptr; }

  // --- fault-aware guards ---

  bool SortedAlive(size_t list) const {
    return r_->error.ok() && c_->ListAlive(list);
  }
  bool RandomAlive(size_t list) const { return SortedAlive(list); }
  uint32_t DeadLists() const {
    return r_->error.ok() ? c_->stats_.groups_lost
                          : static_cast<uint32_t>(num_lists());
  }
  /// A dead list stays dead even where rows are still buffered: a scan must
  /// be a contiguous prefix for its cursor score to bound the unread rows.
  bool FetchSorted(size_t list, Position position, Position last) {
    return Buffered(list, position)
               ? alive_
               : Fetch(list, position, last, MessageType::kSortedWindow, 0.0);
  }
  bool DrainTo(size_t list, Position position, Score threshold) {
    return Buffered(list, position)
               ? alive_
               : Fetch(list, position, c_->n_, MessageType::kDrain,
                       threshold);
  }

  // --- batch hooks ---

  void BeginRound() { ++c_->stats_.rounds; }
  template <typename Enumerate>
  void BatchSpan(Position row, const Enumerate& enumerate) {
    if (row < r_->span_end) {
      return;  // announced with its span
    }
    const Position last = OpenSpan(row);
    r_->span_end = last + 1;
    BatchRandom([&](auto&& add) { enumerate(last, add); });
  }
  template <typename Enumerate>
  void BatchRandom(const Enumerate& enumerate) {
    for (std::vector<ItemId>& items : r_->requested) {
      items.clear();
    }
    enumerate([this](size_t list, ItemId item) {
      r_->requested[list].push_back(item);
    });
    SendLookups();
    list_ = kNoList;  // a lookup can kill a list
  }

  void Flush() {}
  const AccessStats& stats() const { return r_->access; }
  double VirtualLatencyMs() const { return c_->stats_.virtual_ms; }

 private:
  static constexpr size_t kNoList = static_cast<size_t>(-1);

  /// Whether row `position` of `list` is in its window buffer, looking the
  /// window up only when `list` differs from the last one: the loops scan a
  /// list at a time (TPUT's drains, NRA's rounds), so the per-row guards and
  /// reads mostly hit the cached bounds.
  bool Buffered(size_t list, Position position) {
    if (list != list_) {
      list_ = list;
      base_ = r_->window_base[list];
      end_ = r_->window_end[list];
      rows_ = r_->window[list].data();
      alive_ = SortedAlive(list);
    }
    return position >= base_ && position < end_;
  }

  // The RPC paths and the error path live in remote_io.cc: out of line,
  // they keep the loops' per-row code small.

  /// Refills `list`'s window from row `position` (not buffered) with one
  /// `type` message (kSortedWindow, or kDrain with `threshold`) of
  /// min(window_rows, last - position + 1) rows. False when the list is dead
  /// or the reply was malformed (RemoteReads::error).
  bool Fetch(size_t list, Position position, Position last, MessageType type,
             Score threshold);

  /// Refills every live list's window from `row` (where not buffered) and
  /// returns the span's last row: the last row every refilled window holds,
  /// or `row` itself when no list is alive.
  Position OpenSpan(Position row);

  /// Sends one kRandomLookup per live list with announced reads and keeps
  /// the replies, in request order, for Random.
  void SendLookups();

  /// Records a read the lookup batch did not hold next (Internal) and
  /// returns a placeholder: every list now reads as dead.
  ItemLookup Misread(size_t list, ItemId item);

  Coordinator* c_;
  RemoteReads* r_;
  size_t list_ = kNoList;  // the cached window: rows [base_, end_) at rows_
  Position base_ = 0;
  Position end_ = 0;
  const ListEntry* rows_ = nullptr;
  bool alive_ = false;  // SortedAlive(list_) when cached
};

}  // namespace topk

#endif  // TOPK_DIST_REMOTE_IO_H_
