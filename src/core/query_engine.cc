// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/query_engine.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace topk {

std::vector<size_t> QueryEngine::AcquireSlots(size_t count) const {
  std::vector<size_t> slots;
  slots.reserve(count);
  std::lock_guard<std::mutex> lock(slots_mu_);
  while (slots.size() < count && !free_slots_.empty()) {
    slots.push_back(free_slots_.back());
    free_slots_.pop_back();
  }
  while (slots.size() < count) {
    slots.push_back(minted_slots_++);
  }
  return slots;
}

void QueryEngine::ReleaseSlots(const std::vector<size_t>& slots) const {
  std::lock_guard<std::mutex> lock(slots_mu_);
  // Released in descending order so the next AcquireSlots pops the lowest
  // (longest-warmed) indices first.
  free_slots_.insert(free_slots_.end(), slots.rbegin(), slots.rend());
}

BatchResult QueryEngine::ExecuteBatch(AlgorithmKind kind,
                                      const std::vector<TopKQuery>& queries,
                                      size_t num_threads) const {
  BatchResult batch;
  batch.results.assign(queries.size(),
                       Result<TopKResult>(Status::Internal("not executed")));
  if (queries.empty()) {
    return batch;
  }

  const size_t workers =
      std::max<size_t>(1, std::min(num_threads, queries.size()));
  // Lease the batch's worker slots up front (and grow their contexts before
  // launching) so no worker mutates pool bookkeeping mid-batch.
  const std::vector<size_t> slots = AcquireSlots(workers);
  std::vector<ExecutionContext*> contexts(workers);
  for (size_t w = 0; w < workers; ++w) {
    contexts[w] = contexts_.Get(slots[w]);
  }
  if (workers == 1) {
    auto algorithm = MakeAlgorithm(kind, options_);
    for (size_t i = 0; i < queries.size(); ++i) {
      batch.results[i] = algorithm->Execute(*db_, queries[i], contexts[0]);
    }
  } else {
    // Work stealing via a shared atomic cursor; each worker owns a private
    // algorithm instance and a private, batch-persistent execution context.
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, this, w] {
        auto algorithm = MakeAlgorithm(kind, options_);
        ExecutionContext* context = contexts[w];
        for (;;) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= queries.size()) {
            return;
          }
          batch.results[i] = algorithm->Execute(*db_, queries[i], context);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  ReleaseSlots(slots);

  AccessStats total;
  for (const Result<TopKResult>& r : batch.results) {
    if (r.ok()) {
      total += r.ValueUnsafe().stats;
    }
  }
  batch.stats = total;
  return batch;
}

}  // namespace topk
