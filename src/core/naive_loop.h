// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// The O(m*n) baseline from the paper's introduction: scan every list fully,
// aggregate every item's overall score, return the k best. Used as the ground
// truth in tests and as the "no early termination" reference in benchmarks.
//
// The scan is templated on the access policy (core/list_io.h). The oracle
// ignores fault plans: TopKAlgorithm (topk_algorithm.cc) never runs it over
// FaultIo.

#ifndef TOPK_CORE_NAIVE_LOOP_H_
#define TOPK_CORE_NAIVE_LOOP_H_

#include <vector>

#include "core/execution_context.h"
#include "core/list_io.h"
#include "core/topk_buffer.h"
#include "core/topk_result.h"

namespace topk {

// One full sorted scan per list; local scores are gathered per item.
template <typename IoT>
Status RunNaiveScan(const TopKQuery& query, ExecutionContext* context, IoT io,
                    TopKResult* result) {
  const size_t n = io.num_items();
  const size_t m = io.num_lists();
  std::vector<Score>& local = context->ZeroedScoreMatrix(n * m);
  for (size_t i = 0; i < m; ++i) {
    for (Position p = 1; p <= n; ++p) {
      const AccessedEntry entry = io.Sorted(i, p);
      local[static_cast<size_t>(entry.item) * m + i] = entry.score;
    }
  }
  io.Flush();

  TopKBuffer& buffer = context->buffer();
  for (ItemId item = 0; item < n; ++item) {
    buffer.Offer(item, query.scorer->Combine(&local[item * m], m));
  }

  buffer.AppendSortedItems(&result->items);
  result->stop_position = static_cast<Position>(n);
  return Status::OK();
}

}  // namespace topk

#endif  // TOPK_CORE_NAIVE_LOOP_H_
