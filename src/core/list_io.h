// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Access policies: the template argument through which every algorithm run
// loop reads its lists. Every loop touches lists only through its policy, so
// one loop serves every backend. Two read paths exist:
//
//  * RawListIo is the one local read path, in two flavours. Sorted and
//    direct reads go to the sorted arrays at the position the loop passes
//    (the loops know their depth, so no cursor state is kept), random reads
//    to the Database's item-major mirror, and every read is counted into a
//    stack-resident AccessStats that is stored into the AccessEngine once at
//    the end of the run. Keeping the per-access counter updates out of the
//    shared engine object lets the optimizer keep them in registers.
//      - RawListIo is the plain flavour: every fault-free, unaudited run
//        reads through it.
//      - FaultIo is RawListIo plus the test and ablation hooks: it rolls the
//        context's fault injector (lists/fault_injection.h) before each read
//        while the injector is armed, and records each read's touch in the
//        engine's audit trail while the engine audits. Its lists can die: it
//        reports kFaultAware = true, so the loops' aliveness guards compile
//        in. On the plain flavour those guards are `if constexpr`-eliminated,
//        and RawListIo carries no branch for either hook.
//  * RemoteIo (dist/remote_io.h) reads from remote list owners through the
//    distributed coordinator's RPC failover ladder. It is fault-aware too: a
//    list dies with its whole replica group.
//
// Shared contract:
//  * counted reads: Sorted, Random (and Direct, local policies only);
//  * shape and catalog: num_items(), num_lists(), MaxScore(i), MinScore(i);
//  * uncounted reads — metadata and decision-free peeks that are not list
//    accesses in the paper's model: ScoreAt (a position already seen, BPA's
//    and BPA2's λ), ExactScore (NRA's winner report), PeekItem/PrefetchRow/
//    MirrorBytes/PositionsRow (prefetch hints; PrefetchEntry, BPA2's, is
//    local only);
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
//    A local policy starts from the counts the engine holds, so an NRA
//    failover's budget checks still count what the failed run spent.

#ifndef TOPK_CORE_LIST_IO_H_
#define TOPK_CORE_LIST_IO_H_

#include "common/status.h"
#include "core/execution_context.h"
#include "lists/access_engine.h"
#include "lists/database.h"
#include "lists/fault_injection.h"
#include "lists/types.h"

namespace topk {

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
    return db_->ScoreOf(list, item);
  }
  ItemId PeekItem(size_t list, Position position) const {
    return db_->list(list).items()[position - 1];
  }
  /// Pulls `item`'s interleaved item-major mirror row (m scores + m
  /// positions, one contiguous region) toward the cache. The TA/BPA row
  /// loops issue this kPrefetchRowsAhead sorted rows ahead of use — the
  /// upcoming sorted items are known (list prefixes are sequential), so the
  /// row's DRAM latency is overlapped with the processing of the rows in
  /// between instead of being paid serially on every random access; BPA2
  /// issues it for a revealed item before marking its position. Rows are
  /// stride-aligned (see Database), so a row touches exactly ceil(12m/64)
  /// lines: one prefetch per line, one line total for m <= 5.
  void PrefetchRow(ItemId item) const {
    const char* row = reinterpret_cast<const char*>(db_->ItemScoresRow(item));
    const size_t bytes = Database::ItemRowPayloadBytes(m_);
    for (size_t offset = 0;; offset += 64) {
      __builtin_prefetch(row + offset);
      if (offset + 64 >= bytes) {
        break;
      }
    }
  }
  /// Pulls one sorted-order entry (item id + score, two parallel arrays)
  /// toward the cache. BPA2 issues this speculatively at the top of a round
  /// for every list's current bp + 1 — a random access earlier in the round
  /// may advance bp and waste the prefetch, but a wasted prefetch costs
  /// nothing observable while a hit hides the direct access's DRAM latency
  /// (BPA2's direct accesses jump with bp, so the hardware stream prefetcher
  /// does not cover them the way it covers TA/BPA's sequential scans).
  void PrefetchEntry(size_t list, Position position) const {
    __builtin_prefetch(&db_->list(list).items()[position - 1]);
    __builtin_prefetch(&db_->list(list).scores()[position - 1]);
  }
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

/// The local read path: direct list reads, registers-only counting, one
/// store into the engine per run.
class RawListIo : public LocalIo {
 public:
  RawListIo(const Database* db, AccessEngine* engine)
      : LocalIo(db), engine_(engine), stats_(engine->stats()) {}

  AccessedEntry Sorted(size_t list_index, Position position) {
    ++stats_.sorted_accesses;
    return EntryAt(list_index, position);
  }
  ItemLookup Random(size_t list_index, ItemId item) {
    ++stats_.random_accesses;
    // Item-major mirror: the (m-1) random accesses an algorithm issues for
    // one item hit the same one or two cache lines instead of m arrays.
    return db_->Lookup(list_index, item);
  }
  AccessedEntry Direct(size_t list_index, Position position) {
    ++stats_.direct_accesses;
    return EntryAt(list_index, position);
  }
  void Flush() { engine_->set_stats(stats_); }

  const AccessStats& stats() const { return stats_; }

 protected:
  AccessEngine* engine_;

 private:
  AccessedEntry EntryAt(size_t list_index, Position position) const {
    const ListEntry entry = db_->list(list_index).EntryAt(position);
    return AccessedEntry{entry.item, entry.score, position};
  }

  AccessStats stats_;
};

/// Fault-aware policy, and the audited one: the local read path, rolling the
/// fault injector (whose list deaths come from the shared FaultSchedule)
/// before every read while it is armed, and recording every read's touch in
/// the engine's audit trail while the engine audits. A run is audited or
/// faulted, never both (TopKAlgorithm rejects the pair), and a disarmed
/// injector reports every list alive and no latency, so an audited run reads
/// what the plain one reads. A fault-aware loop reads each live list at the
/// row after the last one it read, so the explicit positions read here are
/// the ones a sorted cursor would serve. The loops must check
/// SortedAlive/RandomAlive before every access — see the death contract in
/// lists/fault_injection.h.
class FaultIo : public RawListIo {
 public:
  static constexpr bool kFaultAware = true;

  FaultIo(const Database* db, AccessEngine* engine,
          FaultInjectingAccessEngine* faults)
      : RawListIo(db, engine),
        faults_(faults),
        armed_(faults->armed()),
        audit_(engine->auditing()) {}

  AccessedEntry Sorted(size_t list_index, Position position) {
    Roll(list_index);
    Touch(list_index, position);
    return RawListIo::Sorted(list_index, position);
  }
  ItemLookup Random(size_t list_index, ItemId item) {
    Roll(list_index);
    const ItemLookup lookup = RawListIo::Random(list_index, item);
    Touch(list_index, lookup.position);
    return lookup;
  }
  AccessedEntry Direct(size_t list_index, Position position) {
    Roll(list_index);
    Touch(list_index, position);
    return RawListIo::Direct(list_index, position);
  }

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
  void Roll(size_t list_index) {
    if (armed_) {
      faults_->Roll(list_index);
    }
  }
  void Touch(size_t list_index, Position position) {
    if (audit_) {
      engine_->RecordTouch(list_index, position);
    }
  }

  FaultInjectingAccessEngine* faults_;
  bool armed_;
  bool audit_;
};

/// si(bp), the score at list `list`'s best position `bp`: the term BPA's and
/// BPA2's λ combine (an uncounted read of a position already seen). Under a
/// fault-aware policy a list can die before any of its positions is seen,
/// leaving bp = 0; every entry of it is then unseen, so the list maximum (an
/// uncounted metadata read) is what bounds them.
template <typename IoT>
Score BestPositionScore(IoT& io, size_t list, Position bp) {
  if constexpr (IoT::kFaultAware) {
    if (bp == 0) {
      return io.MaxScore(list);
    }
  }
  return io.ScoreAt(list, bp);
}

/// Runs `loop(io)` over the local policy a prepared context calls for:
/// FaultIo when the engine audits or faults are armed, RawListIo otherwise.
template <typename Loop>
Status RunOnLocalIo(const Database& db, ExecutionContext* context,
                    const Loop& loop) {
  AccessEngine* engine = &context->engine();
  if (engine->auditing() || context->faults().armed()) {
    return loop(FaultIo(&db, engine, &context->faults()));
  }
  return loop(RawListIo(&db, engine));
}

}  // namespace topk

#endif  // TOPK_CORE_LIST_IO_H_
