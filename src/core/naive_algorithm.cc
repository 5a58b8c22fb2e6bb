// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/naive_algorithm.h"

#include <vector>

#include "core/list_io.h"
#include "core/topk_buffer.h"

namespace topk {
namespace {

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

}  // namespace

Status NaiveAlgorithm::Run(const Database& db, const TopKQuery& query,
                           ExecutionContext* context,
                           TopKResult* result) const {
  // The oracle ignores fault plans: it never reads through FaultIo.
  if (options().audit_accesses) {
    return RunNaiveScan(query, context, AuditIo(&db, &context->engine()),
                        result);
  }
  return RunNaiveScan(query, context, RawListIo<>(&db, &context->engine()),
                      result);
}

}  // namespace topk
