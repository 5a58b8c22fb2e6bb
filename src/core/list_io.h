// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Access policies: the template argument through which every algorithm run
// loop reads its lists. The BPA (also TA's), TPUT and NRA loops touch lists
// only through their policy, so one loop serves every backend (BPA2, CA and
// FA still take their uncounted metadata and prefetch reads from the
// Database). Four policies exist:
//
//  * EngineIo routes every access through the AccessEngine — per-access
//    cursors, counters and the optional audit trail. Required whenever the
//    access pattern itself is observed (audit mode) or the engine's cursor
//    state matters.
//  * RawListIo reads the sorted lists directly and counts accesses into a
//    stack-resident AccessStats that is flushed into the engine once at the
//    end of the run. The counts are identical to EngineIo's by construction
//    (one increment per primitive call); what disappears is the per-access
//    read-modify-write traffic through the shared engine object, which the
//    optimizer cannot keep in registers. Only valid with audit mode off.
//  * FaultIo routes every access through the FaultInjectingAccessEngine
//    decorator, whose lists can die: it reports kFaultAware = true, so the
//    loops' aliveness guards compile in. On the two policies above those
//    guards are `if constexpr`-eliminated — fault-free instantiations keep
//    byte-identical behaviour and codegen shape.
//  * RemoteIo (dist/remote_io.h) reads from remote list owners through the
//    distributed coordinator's RPC failover ladder. It is fault-aware too: a
//    list dies with its whole replica group.
//
// Shared contract:
//  * counted reads: Sorted, Random (and Direct, local policies only);
//  * shape and catalog: num_items(), num_lists(), MaxScore(i), MinScore(i);
//  * uncounted reads — metadata and decision-free peeks that are not list
//    accesses in the paper's model: ScoreAt (a position already seen, BPA's
//    λ), ExactScore (NRA's winner report), PeekItem/PrefetchRow/
//    MirrorBytes/PositionsRow (prefetch hints);
//  * fault-aware guards, called only under `if constexpr (kFaultAware)`:
//    SortedAlive/RandomAlive/DeadLists, plus FetchSorted and DrainTo, which
//    say which row a scan reads next (FetchSorted: a plain scan that reads
//    on to at most row `last`; DrainTo: TPUT's phase-2 scan down to
//    `threshold`) so RemoteIo can fetch the window holding it;
//  * batch hooks, empty on the local policies: BeginRound marks a round of
//    the loop; BatchRandom(enumerate) announces the random reads a loop is
//    about to issue — enumerate(add) calls add(list, item) once per upcoming
//    Random(list, item), in call order — so RemoteIo can send one lookup
//    message per list; BatchSpan(row, enumerate) does the same for a row
//    loop (BPA's), which calls it at every row: at a row no earlier call
//    covered, the policy readies a span of rows — RemoteIo refills every
//    live list's sorted window there — and calls enumerate(last, add), which
//    announces the reads of rows row..last in call order, `last` being the
//    last row every live list has ready; at the span's later rows it
//    returns at once. Reads announced past the row where the loop stops are
//    never issued;
//  * stats() exposes the run's access counts so far (for the governor's
//    budget checks) and VirtualLatencyMs() the latency to charge against its
//    deadline (injected or RPC time; 0 on the fault-free local policies).

#ifndef TOPK_CORE_LIST_IO_H_
#define TOPK_CORE_LIST_IO_H_

#include "common/status.h"
#include "core/execution_context.h"
#include "lists/access_engine.h"
#include "lists/database.h"
#include "lists/fault_injection.h"
#include "lists/types.h"

namespace topk {

/// Pulls `item`'s interleaved item-major mirror row (m scores + m positions,
/// one contiguous region) toward the cache. The TA/BPA row loops issue this
/// kPrefetchRowsAhead sorted rows ahead of use — the upcoming sorted items
/// are known (list prefixes are sequential), so the row's DRAM latency is
/// overlapped with the processing of the rows in between instead of being
/// paid serially on every random access. Rows are stride-aligned (see
/// Database), so a row touches exactly ceil(12m/64) lines: one prefetch per
/// line, one line total for m <= 5.
inline void PrefetchItemRows(const Database& db, ItemId item, size_t m) {
  const char* row = reinterpret_cast<const char*>(db.ItemScoresRow(item));
  const size_t bytes = Database::ItemRowPayloadBytes(m);
  for (size_t offset = 0;; offset += 64) {
    __builtin_prefetch(row + offset);
    if (offset + 64 >= bytes) {
      break;
    }
  }
}

/// How many sorted rows ahead the TA/BPA loops prefetch the item-major
/// mirror row (and the memo entry, when memoization is on). Between issuing
/// the prefetch for row d + kPrefetchRowsAhead of list i and consuming it,
/// the loop processes ~kPrefetchRowsAhead * m items (each a combine over a
/// cache-resident row plus tracker/buffer work), which comfortably covers a
/// DRAM round-trip; the distance is short enough that the ~m prefetched
/// lines in flight cannot be evicted by the work in between.
inline constexpr Position kPrefetchRowsAhead = 8;

/// Shorter pipeline stage for BPA's tracker-word prefetch: the mirror row of
/// a sorted row this close ahead is already cached (requested
/// kPrefetchRowsAhead ago), so reading its positions costs an L1 hit, and
/// the tracker words those positions will mark get their own prefetch two
/// rows of work ahead of the marks.
inline constexpr Position kPrefetchMarksAhead = 2;

/// Pulls one sorted-order entry (item id + score, two parallel arrays)
/// toward the cache. BPA2 issues this speculatively at the top of a round
/// for every list's current bp + 1 — a random access earlier in the round
/// may advance bp and waste the prefetch, but a wasted prefetch costs
/// nothing observable while a hit hides the direct access's DRAM latency
/// (BPA2's direct accesses jump with bp, so the hardware stream prefetcher
/// does not cover them the way it covers TA/BPA's sequential scans).
inline void PrefetchSortedEntry(const SortedList& list, Position position) {
  __builtin_prefetch(&list.items()[position - 1]);
  __builtin_prefetch(&list.scores()[position - 1]);
}

/// The local policies' shared half: their lists live in a Database, so the
/// shape, the catalog and every uncounted read are plain loads, and the batch
/// hooks have nothing to batch. The fault-aware guards report lists that
/// never die; FaultIo hides them with its own.
class LocalIo {
 public:
  static constexpr bool kFaultAware = false;

  explicit LocalIo(const Database* db) : db_(db), m_(db->num_lists()) {}

  size_t num_items() const { return db_->num_items(); }
  size_t num_lists() const { return m_; }
  Score MaxScore(size_t list) const { return db_->list(list).MaxScore(); }
  Score MinScore(size_t list) const { return db_->list(list).MinScore(); }

  Score ScoreAt(size_t list, Position position) const {
    return db_->list(list).ScoreAtPosition(position);
  }
  Score ExactScore(size_t list, ItemId item) const {
    return db_->list(list).ScoreOf(item);
  }
  ItemId PeekItem(size_t list, Position position) const {
    return db_->list(list).items()[position - 1];
  }
  void PrefetchRow(ItemId item) const { PrefetchItemRows(*db_, item, m_); }
  size_t MirrorBytes() const {
    return db_->num_items() * db_->item_row_stride_bytes();
  }
  const Position* PositionsRow(ItemId item) const {
    return db_->ItemPositionsRow(item);
  }

  static constexpr bool SortedAlive(size_t) { return true; }
  static constexpr bool FetchSorted(size_t, Position, Position) { return true; }
  static constexpr bool DrainTo(size_t, Position, Score) { return true; }
  static constexpr bool RandomAlive(size_t) { return true; }
  static constexpr uint32_t DeadLists() { return 0; }
  static constexpr double VirtualLatencyMs() { return 0.0; }

  void BeginRound() {}
  template <typename Enumerate>
  void BatchRandom(const Enumerate& /*enumerate*/) {}
  template <typename Enumerate>
  void BatchSpan(Position /*row*/, const Enumerate& /*enumerate*/) {}
  void Flush() {}

 protected:
  const Database* db_;
  size_t m_;  // the row prefetch sizes itself by m on every call
};

/// Faithful policy: every access goes through the counted engine.
class EngineIo : public LocalIo {
 public:
  explicit EngineIo(AccessEngine* engine)
      : LocalIo(&engine->database()), engine_(engine) {}

  AccessedEntry Sorted(size_t list_index, Position /*position*/) {
    return engine_->SortedAccess(list_index);
  }
  ItemLookup Random(size_t list_index, ItemId item) {
    return engine_->RandomAccess(list_index, item);
  }
  AccessedEntry Direct(size_t list_index, Position position) {
    return engine_->DirectAccess(list_index, position);
  }

  const AccessStats& stats() const { return engine_->stats(); }

 private:
  AccessEngine* engine_;
};

/// Fast policy: direct list reads, registers-only counting, one flush.
/// The caller passes the sorted position explicitly (the loops know their
/// depth), so no cursor state is maintained; the engine's cursors stay at 0.
class RawListIo : public LocalIo {
 public:
  RawListIo(const Database* db, AccessEngine* engine)
      : LocalIo(db), engine_(engine) {}

  AccessedEntry Sorted(size_t list_index, Position position) {
    ++stats_.sorted_accesses;
    const ListEntry entry = db_->list(list_index).EntryAt(position);
    return AccessedEntry{entry.item, entry.score, position};
  }
  ItemLookup Random(size_t list_index, ItemId item) {
    ++stats_.random_accesses;
    // Item-major mirror: the (m-1) random accesses an algorithm issues for
    // one item hit the same one or two cache lines instead of m arrays.
    return ItemLookup{db_->ItemScoresRow(item)[list_index],
                      db_->ItemPositionsRow(item)[list_index]};
  }
  AccessedEntry Direct(size_t list_index, Position position) {
    ++stats_.direct_accesses;
    const ListEntry entry = db_->list(list_index).EntryAt(position);
    return AccessedEntry{entry.item, entry.score, position};
  }
  void Flush() { engine_->AddStats(stats_); }

  const AccessStats& stats() const { return stats_; }

 private:
  AccessEngine* engine_;
  AccessStats stats_;
};

/// Fault-aware policy: every access goes through the fault decorator (and
/// from there through the counted engine, so counts and cursors stay
/// faithful). The loops must check SortedAlive/RandomAlive before every
/// access — see the death contract in lists/fault_injection.h.
class FaultIo : public LocalIo {
 public:
  static constexpr bool kFaultAware = true;

  explicit FaultIo(FaultInjectingAccessEngine* faults)
      : LocalIo(&faults->inner()->database()), faults_(faults) {}

  AccessedEntry Sorted(size_t list_index, Position /*position*/) {
    return faults_->SortedAccess(list_index);
  }
  ItemLookup Random(size_t list_index, ItemId item) {
    return faults_->RandomAccess(list_index, item);
  }
  AccessedEntry Direct(size_t list_index, Position position) {
    return faults_->DirectAccess(list_index, position);
  }

  const AccessStats& stats() const { return faults_->stats(); }
  bool SortedAlive(size_t list_index) const {
    return faults_->ListAlive(list_index);
  }
  bool FetchSorted(size_t list_index, Position, Position) const {
    return SortedAlive(list_index);
  }
  bool DrainTo(size_t list_index, Position, Score) const {
    return SortedAlive(list_index);
  }
  bool RandomAlive(size_t list_index) const {
    return faults_->ListAlive(list_index);
  }
  uint32_t DeadLists() const { return faults_->dead_lists(); }
  double VirtualLatencyMs() const { return faults_->virtual_latency_ms(); }

 private:
  FaultInjectingAccessEngine* faults_;
};

/// Runs `loop(io)` over the local policy a prepared context calls for:
/// EngineIo when auditing, FaultIo when faults are armed, RawListIo
/// otherwise.
template <typename Loop>
Status RunOnLocalIo(const Database& db, bool audit, ExecutionContext* context,
                    const Loop& loop) {
  if (audit) {
    return loop(EngineIo(&context->engine()));
  }
  if (context->faults().armed()) {
    return loop(FaultIo(&context->faults()));
  }
  return loop(RawListIo(&db, &context->engine()));
}

}  // namespace topk

#endif  // TOPK_CORE_LIST_IO_H_
