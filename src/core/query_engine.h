// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// QueryEngine: batch execution of many top-k queries against one immutable
// database, optionally across worker threads. Databases and algorithms are
// read-only during execution, so queries parallelize without locking. The
// engine owns one reusable ExecutionContext per worker slot; a worker drains
// queries off an atomic work-stealing cursor and runs every one of them
// through its private context, so steady-state batches allocate nothing per
// query.

#ifndef TOPK_CORE_QUERY_ENGINE_H_
#define TOPK_CORE_QUERY_ENGINE_H_

#include <cstddef>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "core/context_pool.h"
#include "core/topk_algorithm.h"
#include "lists/database.h"

namespace topk {

/// Everything one ExecuteBatch call produced: the per-query results plus the
/// aggregate access statistics (summed over the successful queries). Returned
/// by value so concurrent batch issuers never race on shared engine state.
struct BatchResult {
  /// Per-query outcomes, in query order.
  std::vector<Result<TopKResult>> results;

  /// Aggregate access statistics (sums over the successful queries).
  AccessStats stats;
};

/// Executes batches of queries against one database. Safe for concurrent
/// ExecuteBatch calls on the same engine: each call claims a private range of
/// worker slots from the shared context pool (growth is mutex-protected) and
/// returns its batch statistics by value instead of mutating engine state.
class QueryEngine {
 public:
  /// \param db non-owning; must outlive the engine.
  explicit QueryEngine(const Database* db, AlgorithmOptions options = {})
      : db_(db), options_(std::move(options)) {}

  /// Runs every query with the given algorithm. Results arrive in query
  /// order; per-query failures (e.g. k out of range) are reported in the
  /// corresponding slot without aborting the batch.
  ///
  /// \param num_threads 0 or 1 = run inline on the calling thread; otherwise
  ///        workers pull queries from a shared atomic cursor (work stealing),
  ///        min(num_threads, queries) workers total.
  BatchResult ExecuteBatch(AlgorithmKind kind,
                           const std::vector<TopKQuery>& queries,
                           size_t num_threads = 0) const;

  const Database& database() const { return *db_; }

 private:
  /// Leases `count` worker-slot indices for one batch: freed slots are reused
  /// first (their contexts are warm), new indices are minted otherwise. Two
  /// in-flight batches therefore never share an ExecutionContext, while a
  /// sequential caller keeps hitting the same warmed slots.
  std::vector<size_t> AcquireSlots(size_t count) const;
  void ReleaseSlots(const std::vector<size_t>& slots) const;

  const Database* db_;
  AlgorithmOptions options_;
  /// Per-worker-slot contexts, created on first use and kept warm across
  /// batches. Thread-safe growth; in-flight batches lease disjoint slots.
  mutable ContextPool contexts_;
  mutable std::mutex slots_mu_;
  mutable std::vector<size_t> free_slots_;
  mutable size_t minted_slots_ = 0;
};

}  // namespace topk

#endif  // TOPK_CORE_QUERY_ENGINE_H_
