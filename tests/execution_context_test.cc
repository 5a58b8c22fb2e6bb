// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// ExecutionContext reuse must be observationally invisible: a context carried
// across queries — of different algorithms, databases, shapes and k — must
// produce results and access counts identical to a fresh per-query context.

#include "core/execution_context.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/algorithms.h"
#include "gen/database_generator.h"
#include "lists/scorer.h"

namespace topk {
namespace {

void ExpectSameExecution(const TopKResult& fresh, const TopKResult& reused,
                         const std::string& label) {
  ASSERT_EQ(fresh.items.size(), reused.items.size()) << label;
  for (size_t i = 0; i < fresh.items.size(); ++i) {
    EXPECT_EQ(fresh.items[i].item, reused.items[i].item) << label << " @" << i;
    EXPECT_DOUBLE_EQ(fresh.items[i].score, reused.items[i].score)
        << label << " @" << i;
  }
  EXPECT_EQ(fresh.stats, reused.stats) << label;
  EXPECT_EQ(fresh.stop_position, reused.stop_position) << label;
  EXPECT_EQ(fresh.min_best_position, reused.min_best_position) << label;
}

TEST(ExecutionContextTest, ReuseAcrossQueriesMatchesFreshContexts) {
  const Database db = MakeUniformDatabase(500, 4, 99);
  SumScorer sum;
  ExecutionContext reused;
  for (AlgorithmKind kind : AllAlgorithmKinds()) {
    auto algorithm = MakeAlgorithm(kind);
    for (size_t k : {1u, 7u, 20u, 3u}) {  // k shrinks and grows
      const TopKQuery query{k, &sum};
      const TopKResult fresh = algorithm->Execute(db, query).ValueOrDie();
      const TopKResult via_reuse =
          algorithm->Execute(db, query, &reused).ValueOrDie();
      ExpectSameExecution(fresh, via_reuse,
                          ToString(kind) + " k=" + std::to_string(k));
    }
  }
}

TEST(ExecutionContextTest, ReuseAcrossDatabasesAndScorers) {
  SumScorer sum;
  MinScorer min;
  ExecutionContext reused;
  Rng rng(7);
  // Databases of very different shape, visited repeatedly so the context must
  // both grow and (logically) shrink between queries.
  std::vector<Database> dbs;
  dbs.push_back(MakeUniformDatabase(50, 6, 1));
  dbs.push_back(MakeUniformDatabase(900, 2, 2));
  dbs.push_back(MakeUniformDatabase(300, 4, 3));
  for (int round = 0; round < 3; ++round) {
    for (const Database& db : dbs) {
      const size_t k = 1 + rng.NextBounded(db.num_items() / 2);
      const Scorer* scorer = (round % 2 == 0)
                                 ? static_cast<const Scorer*>(&sum)
                                 : static_cast<const Scorer*>(&min);
      const TopKQuery query{k, scorer};
      for (AlgorithmKind kind :
           {AlgorithmKind::kBpa, AlgorithmKind::kBpa2, AlgorithmKind::kTa}) {
        auto algorithm = MakeAlgorithm(kind);
        const TopKResult fresh = algorithm->Execute(db, query).ValueOrDie();
        const TopKResult via_reuse =
            algorithm->Execute(db, query, &reused).ValueOrDie();
        ExpectSameExecution(fresh, via_reuse,
                            ToString(kind) + " round " + std::to_string(round));
      }
    }
  }
}

TEST(ExecutionContextTest, ExecuteIntoReusesResultStorage) {
  const Database db = MakeUniformDatabase(400, 3, 5);
  SumScorer sum;
  auto algorithm = MakeAlgorithm(AlgorithmKind::kBpa);
  ExecutionContext context;
  TopKResult result;
  for (size_t k : {10u, 4u, 10u}) {
    const TopKQuery query{k, &sum};
    ASSERT_TRUE(algorithm->ExecuteInto(db, query, &context, &result).ok());
    const TopKResult fresh = algorithm->Execute(db, query).ValueOrDie();
    ExpectSameExecution(fresh, result, "ExecuteInto k=" + std::to_string(k));
  }
}

TEST(ExecutionContextTest, ExecuteIntoReportsValidationErrors) {
  const Database db = MakeUniformDatabase(50, 2, 5);
  SumScorer sum;
  auto algorithm = MakeAlgorithm(AlgorithmKind::kTa);
  ExecutionContext context;
  TopKResult result;
  EXPECT_TRUE(algorithm->ExecuteInto(db, TopKQuery{0, &sum}, &context, &result)
                  .IsInvalid());
  EXPECT_TRUE(
      algorithm->ExecuteInto(db, TopKQuery{51, &sum}, &context, &result)
          .IsInvalid());
  EXPECT_TRUE(
      algorithm->ExecuteInto(db, TopKQuery{5, nullptr}, &context, &result)
          .IsInvalid());
  // The context stays usable after failed validations.
  EXPECT_TRUE(
      algorithm->ExecuteInto(db, TopKQuery{5, &sum}, &context, &result).ok());
  EXPECT_EQ(result.items.size(), 5u);
}

TEST(ScoreMemoTest, ResetForgetsEntriesInConstantTime) {
  ScoreMemo memo;
  memo.Reset(100);
  EXPECT_FALSE(memo.Contains(7));
  memo.Put(7, 1.5);
  ASSERT_TRUE(memo.Contains(7));
  EXPECT_DOUBLE_EQ(memo.Get(7), 1.5);
  memo.Reset(100);
  EXPECT_FALSE(memo.Contains(7));
  // Growth keeps old entries stale and new entries unset.
  memo.Put(99, 2.0);
  memo.Reset(200);
  EXPECT_FALSE(memo.Contains(99));
  EXPECT_FALSE(memo.Contains(199));
  memo.Put(199, 3.0);
  EXPECT_TRUE(memo.Contains(199));
}

TEST(ScoreMemoTest, SpanMarksLastOneSpan) {
  ScoreMemo memo;
  memo.Reset(8);
  memo.BeginSpan();
  EXPECT_TRUE(memo.Announce(3));
  EXPECT_FALSE(memo.Announce(3));
  EXPECT_TRUE(memo.Announce(7));
  EXPECT_FALSE(memo.Contains(3));  // announced is not resolved
  memo.BeginSpan();
  EXPECT_TRUE(memo.Announce(3));
  // Growth keeps the marks sized to the memo, grown entries unmarked.
  memo.Reset(16);
  memo.BeginSpan();
  EXPECT_TRUE(memo.Announce(3));
  EXPECT_TRUE(memo.Announce(15));
  EXPECT_FALSE(memo.Announce(15));
}

TEST(ScoreMemoTest, ManyResetCyclesStayCorrect) {
  ScoreMemo memo;
  for (uint32_t cycle = 0; cycle < 1000; ++cycle) {
    memo.Reset(16);
    const ItemId item = cycle % 16;
    EXPECT_FALSE(memo.Contains(item)) << "cycle " << cycle;
    memo.Put(item, static_cast<Score>(cycle));
    EXPECT_TRUE(memo.Contains(item));
    EXPECT_DOUBLE_EQ(memo.Get(item), static_cast<Score>(cycle));
  }
}

}  // namespace
}  // namespace topk
