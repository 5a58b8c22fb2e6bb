// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/query_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/algorithms.h"
#include "gen/database_generator.h"
#include "lists/scorer.h"

namespace topk {
namespace {

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() : db_(MakeUniformDatabase(600, 4, 2718)) {}

  std::vector<TopKQuery> MakeQueries(size_t count) {
    std::vector<TopKQuery> queries;
    for (size_t i = 0; i < count; ++i) {
      queries.push_back(TopKQuery{1 + (i % 25), &sum_});
    }
    return queries;
  }

  Database db_;
  SumScorer sum_;
};

TEST_F(QueryEngineTest, InlineBatchMatchesDirectExecution) {
  QueryEngine engine(&db_);
  const auto queries = MakeQueries(8);
  const BatchResult batch = engine.ExecuteBatch(AlgorithmKind::kBpa, queries);
  ASSERT_EQ(batch.results.size(), queries.size());
  auto algorithm = MakeAlgorithm(AlgorithmKind::kBpa);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch.results[i].ok()) << i;
    const TopKResult direct =
        algorithm->Execute(db_, queries[i]).ValueOrDie();
    ASSERT_EQ(batch.results[i].ValueUnsafe().items.size(),
              direct.items.size());
    for (size_t r = 0; r < direct.items.size(); ++r) {
      EXPECT_EQ(batch.results[i].ValueUnsafe().items[r].item,
                direct.items[r].item);
    }
    EXPECT_EQ(batch.results[i].ValueUnsafe().stats, direct.stats);
  }
}

TEST_F(QueryEngineTest, ParallelMatchesInline) {
  QueryEngine engine(&db_);
  const auto queries = MakeQueries(40);
  const auto inline_results =
      engine.ExecuteBatch(AlgorithmKind::kBpa2, queries, 1).results;
  const auto parallel_results =
      engine.ExecuteBatch(AlgorithmKind::kBpa2, queries, 8).results;
  ASSERT_EQ(inline_results.size(), parallel_results.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(inline_results[i].ok());
    ASSERT_TRUE(parallel_results[i].ok());
    const auto& a = inline_results[i].ValueUnsafe();
    const auto& b = parallel_results[i].ValueUnsafe();
    EXPECT_EQ(a.stats, b.stats) << "query " << i;
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t r = 0; r < a.items.size(); ++r) {
      EXPECT_EQ(a.items[r].item, b.items[r].item);
      EXPECT_DOUBLE_EQ(a.items[r].score, b.items[r].score);
    }
  }
}

TEST_F(QueryEngineTest, PerQueryFailuresDoNotAbortTheBatch) {
  QueryEngine engine(&db_);
  std::vector<TopKQuery> queries = MakeQueries(3);
  queries.push_back(TopKQuery{db_.num_items() + 1, &sum_});  // invalid k
  queries.push_back(TopKQuery{5, nullptr});                  // missing scorer
  const auto results =
      engine.ExecuteBatch(AlgorithmKind::kTa, queries, 4).results;
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_TRUE(results[3].status().IsInvalid());
  EXPECT_TRUE(results[4].status().IsInvalid());
}

TEST_F(QueryEngineTest, EmptyBatch) {
  QueryEngine engine(&db_);
  const BatchResult batch = engine.ExecuteBatch(AlgorithmKind::kTa, {}, 4);
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.stats.TotalAccesses(), 0u);
}

TEST_F(QueryEngineTest, MoreThreadsThanQueries) {
  QueryEngine engine(&db_);
  const auto queries = MakeQueries(2);
  const auto results =
      engine.ExecuteBatch(AlgorithmKind::kNaive, queries, 64).results;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
}

TEST_F(QueryEngineTest, BatchStatsAggregate) {
  QueryEngine engine(&db_);
  const auto queries = MakeQueries(4);
  const BatchResult batch = engine.ExecuteBatch(AlgorithmKind::kTa, queries, 2);
  uint64_t expected = 0;
  for (const auto& r : batch.results) {
    expected += r.ValueOrDie().stats.TotalAccesses();
  }
  EXPECT_EQ(batch.stats.TotalAccesses(), expected);
}

TEST_F(QueryEngineTest, MixedScorersInOneBatch) {
  MinScorer min;
  MaxScorer max;
  QueryEngine engine(&db_);
  std::vector<TopKQuery> queries = {TopKQuery{5, &sum_}, TopKQuery{5, &min},
                                    TopKQuery{5, &max}};
  const auto results =
      engine.ExecuteBatch(AlgorithmKind::kBpa, queries, 3).results;
  auto naive = MakeAlgorithm(AlgorithmKind::kNaive);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    const TopKResult want = naive->Execute(db_, queries[i]).ValueOrDie();
    for (size_t r = 0; r < 5; ++r) {
      EXPECT_DOUBLE_EQ(results[i].ValueUnsafe().items[r].score,
                       want.items[r].score);
    }
  }
}

// Regression for the PR 7 stats race: two issuer threads sharing one engine
// used to race on a shared last-batch aggregate / context-pool growth of the
// const ExecuteBatch. With BatchResult returned by value and leased context
// slots, both issuers must observe exactly their own batch's aggregate and
// every per-query answer must match a single-threaded run. Run under TSan to
// certify the absence of the data race, not just its invisibility.
TEST_F(QueryEngineTest, ConcurrentIssuersShareOneEngine) {
  QueryEngine engine(&db_);
  const auto queries_a = MakeQueries(24);
  auto queries_b = MakeQueries(17);
  queries_b.erase(queries_b.begin());  // different shapes on purpose
  const uint64_t want_a =
      engine.ExecuteBatch(AlgorithmKind::kBpa, queries_a, 1)
          .stats.TotalAccesses();
  const uint64_t want_b =
      engine.ExecuteBatch(AlgorithmKind::kNra, queries_b, 1)
          .stats.TotalAccesses();

  for (int round = 0; round < 4; ++round) {
    BatchResult got_a;
    BatchResult got_b;
    std::thread issuer_a([&] {
      got_a = engine.ExecuteBatch(AlgorithmKind::kBpa, queries_a, 2);
    });
    std::thread issuer_b([&] {
      got_b = engine.ExecuteBatch(AlgorithmKind::kNra, queries_b, 2);
    });
    issuer_a.join();
    issuer_b.join();
    EXPECT_EQ(got_a.stats.TotalAccesses(), want_a) << "round " << round;
    EXPECT_EQ(got_b.stats.TotalAccesses(), want_b) << "round " << round;
    for (const auto& r : got_a.results) {
      ASSERT_TRUE(r.ok());
    }
    for (const auto& r : got_b.results) {
      ASSERT_TRUE(r.ok());
    }
  }
}

}  // namespace
}  // namespace topk
