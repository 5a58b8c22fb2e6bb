// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Proves the zero-allocation hot path: once an ExecutionContext and TopKResult
// are warmed up, executing further queries performs no heap allocations at
// all. The global operator new is replaced with a counting hook (this is the
// whole program's allocator, so the counter also sees gtest's allocations —
// the tests only compare the counter across the measured query loop).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/algorithms.h"
#include "gen/database_generator.h"
#include "lists/scorer.h"

namespace {

std::atomic<uint64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size ? size : 1)) {
    return ptr;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::size_t alignment) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, alignment, size ? size : alignment) != 0) {
    throw std::bad_alloc();
  }
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}

namespace topk {
namespace {

// Runs `queries` executions of `kind` through a warmed context/result pair and
// returns the number of heap allocations the measured loop performed.
uint64_t AllocationsPerWarmedLoop(AlgorithmKind kind,
                                  const AlgorithmOptions& options,
                                  int queries, bool* all_ok) {
  const Database db = MakeUniformDatabase(10000, 5, 42);
  SumScorer sum;
  const TopKQuery query{20, &sum};
  auto algorithm = MakeAlgorithm(kind, options);
  ExecutionContext context;
  TopKResult result;
  *all_ok = true;
  for (int i = 0; i < 3; ++i) {  // warm-up: grows all reusable storage
    *all_ok &= algorithm->ExecuteInto(db, query, &context, &result).ok();
  }
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < queries; ++i) {
    *all_ok &= algorithm->ExecuteInto(db, query, &context, &result).ok();
  }
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAllocTest, WarmedBpaQueriesDoNotAllocate) {
  bool all_ok = false;
  const uint64_t allocs =
      AllocationsPerWarmedLoop(AlgorithmKind::kBpa, {}, 10, &all_ok);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocTest, WarmedMemoizedBpaQueriesDoNotAllocate) {
  AlgorithmOptions options;
  options.memoize_seen_items = true;
  bool all_ok = false;
  const uint64_t allocs =
      AllocationsPerWarmedLoop(AlgorithmKind::kBpa, options, 10, &all_ok);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocTest, WarmedTaQueriesDoNotAllocate) {
  bool all_ok = false;
  const uint64_t allocs =
      AllocationsPerWarmedLoop(AlgorithmKind::kTa, {}, 10, &all_ok);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocTest, WarmedBpa2QueriesDoNotAllocate) {
  bool all_ok = false;
  const uint64_t allocs =
      AllocationsPerWarmedLoop(AlgorithmKind::kBpa2, {}, 10, &all_ok);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocTest, WarmedFaQueriesDoNotAllocate) {
  bool all_ok = false;
  const uint64_t allocs =
      AllocationsPerWarmedLoop(AlgorithmKind::kFa, {}, 10, &all_ok);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocTest, WarmedNaiveQueriesDoNotAllocate) {
  bool all_ok = false;
  const uint64_t allocs =
      AllocationsPerWarmedLoop(AlgorithmKind::kNaive, {}, 10, &all_ok);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u);
}

// The no-random-access family keeps its candidate state in the flat
// CandidatePool of the ExecutionContext; once the pool (and its item->slot
// table) has grown to the workload's candidate count, further queries touch
// the allocator not at all.

TEST(ZeroAllocTest, WarmedNraQueriesDoNotAllocate) {
  bool all_ok = false;
  const uint64_t allocs =
      AllocationsPerWarmedLoop(AlgorithmKind::kNra, {}, 10, &all_ok);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocTest, WarmedCaQueriesDoNotAllocate) {
  bool all_ok = false;
  const uint64_t allocs =
      AllocationsPerWarmedLoop(AlgorithmKind::kCa, {}, 10, &all_ok);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u);
}

TEST(ZeroAllocTest, WarmedTputQueriesDoNotAllocate) {
  bool all_ok = false;
  const uint64_t allocs =
      AllocationsPerWarmedLoop(AlgorithmKind::kTput, {}, 10, &all_ok);
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u);
}

// The pool's arena (mmap'd, hugepage-advised chunks — see core/pool_arena.h)
// obeys the same warm-up contract as the heap: it grows while the first
// queries size the pool (and its dual-heap group index) to the workload,
// then stays byte-stable across an unbounded epoch-reused query stream — no
// per-query mmap, madvise or heap allocation. This pins the contract the
// PR 5 arena migration must not break: ArenaVec growth and group-heap
// push_backs all hit retained capacity once warmed.
TEST(ZeroAllocTest, WarmedPoolQueriesDoNotGrowTheArena) {
  const Database db = MakeUniformDatabase(10000, 5, 42);
  SumScorer sum;
  const TopKQuery query{20, &sum};
  for (AlgorithmKind kind :
       {AlgorithmKind::kNra, AlgorithmKind::kCa, AlgorithmKind::kTput}) {
    SCOPED_TRACE(ToString(kind));
    auto algorithm = MakeAlgorithm(kind);
    ExecutionContext context;
    TopKResult result;
    for (int i = 0; i < 3; ++i) {  // warm-up: grows pool storage + arena
      ASSERT_TRUE(algorithm->ExecuteInto(db, query, &context, &result).ok());
    }
    const size_t reserved = context.pool().arena_bytes_reserved();
    const size_t used = context.pool().arena_bytes_used();
    const size_t chunks = context.pool().arena_chunks();
    EXPECT_GT(reserved, 0u);  // the pool arrays really live on the arena
    EXPECT_GE(reserved, used);
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(algorithm->ExecuteInto(db, query, &context, &result).ok());
    }
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - before, 0u);
    EXPECT_EQ(context.pool().arena_bytes_reserved(), reserved);
    EXPECT_EQ(context.pool().arena_bytes_used(), used);
    EXPECT_EQ(context.pool().arena_chunks(), chunks);
  }
}

// Governance keeps the zero-allocation contract: arming limits (whether they
// trip or not) adds one predictable branch per round and never touches the
// allocator on a warmed context — including the anytime exit, which reuses
// the context's scratch and the result's retained capacity.
TEST(ZeroAllocTest, WarmedGovernedQueriesDoNotAllocate) {
  AlgorithmOptions options;
  options.governor.total_access_budget = uint64_t{1} << 40;  // armed, no trip
  options.governor.pool_byte_budget = size_t{1} << 40;
  for (AlgorithmKind kind : AllAlgorithmKinds()) {
    SCOPED_TRACE(ToString(kind));
    bool all_ok = false;
    const uint64_t allocs = AllocationsPerWarmedLoop(kind, options, 5, &all_ok);
    EXPECT_TRUE(all_ok);
    EXPECT_EQ(allocs, 0u);
  }
}

TEST(ZeroAllocTest, WarmedTrippedQueriesDoNotAllocate) {
  AlgorithmOptions options;
  options.governor.total_access_budget = 500;  // trips on every algorithm
  for (AlgorithmKind kind : AllAlgorithmKinds()) {
    if (kind == AlgorithmKind::kNaive) {
      continue;  // the oracle ignores governance
    }
    SCOPED_TRACE(ToString(kind));
    bool all_ok = false;
    const uint64_t allocs = AllocationsPerWarmedLoop(kind, options, 5, &all_ok);
    EXPECT_TRUE(all_ok);
    EXPECT_EQ(allocs, 0u);
  }
}

TEST(ZeroAllocTest, WarmedFaultInjectedQueriesDoNotAllocate) {
  AlgorithmOptions options;
  options.fault_plan.transient_rate = 0.3;  // absorbed; answers stay exact
  options.fault_plan.spike_rate = 0.1;
  for (AlgorithmKind kind : AllAlgorithmKinds()) {
    if (kind == AlgorithmKind::kNaive) {
      continue;  // the oracle ignores faults
    }
    SCOPED_TRACE(ToString(kind));
    bool all_ok = false;
    const uint64_t allocs = AllocationsPerWarmedLoop(kind, options, 5, &all_ok);
    EXPECT_TRUE(all_ok);
    EXPECT_EQ(allocs, 0u);
  }
}

// A targeted kill makes every random-access algorithm fail over to NRA. The
// loop that loses the list signals it with a prebuilt status
// (ExecutionContext::LoseList), which ExecuteInto discards for the NRA run,
// so a warmed failover allocates nothing. NRA and CA degrade in place and
// allocate nothing either.
TEST(ZeroAllocTest, WarmedFailoverAllocatesNothing) {
  constexpr int kQueries = 5;
  const Database db = MakeUniformDatabase(10000, 5, 42);
  SumScorer sum;
  for (uint64_t kill_after : {1, 40, 400}) {
    AlgorithmOptions options;
    options.fault_plan.kill_list = 0;
    options.fault_plan.kill_after_accesses = kill_after;
    for (AlgorithmKind kind : AllAlgorithmKinds()) {
      if (kind == AlgorithmKind::kNaive) {
        continue;  // the oracle ignores faults
      }
      SCOPED_TRACE(ToString(kind) + " kill_after " +
                   std::to_string(kill_after));
      const bool degrades_in_place =
          kind == AlgorithmKind::kNra || kind == AlgorithmKind::kCa;
      const auto once =
          MakeAlgorithm(kind, options)->Execute(db, TopKQuery{20, &sum});
      ASSERT_TRUE(once.ok());
      EXPECT_NE(once.ValueUnsafe().failed_over, degrades_in_place);
      bool all_ok = false;
      const uint64_t allocs =
          AllocationsPerWarmedLoop(kind, options, kQueries, &all_ok);
      EXPECT_TRUE(all_ok);
      EXPECT_EQ(allocs, 0u);
    }
  }
}

TEST(ZeroAllocTest, HookCountsAllocations) {
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  auto* probe = new int(7);
  EXPECT_GE(g_alloc_count.load(std::memory_order_relaxed) - before, 1u);
  delete probe;
}

}  // namespace
}  // namespace topk
