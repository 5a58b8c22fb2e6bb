// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/ca_loop.h"

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "gen/database_generator.h"
#include "gen/paper_fixtures.h"
#include "lists/scorer.h"

namespace topk {
namespace {

TEST(CaTest, MatchesNaiveOnUniform) {
  const Database db = MakeUniformDatabase(400, 4, 31);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  const auto naive =
      MakeAlgorithm(AlgorithmKind::kNaive)->Execute(db, query).ValueOrDie();
  const auto ca =
      MakeAlgorithm(AlgorithmKind::kCa)->Execute(db, query).ValueOrDie();
  for (size_t i = 0; i < query.k; ++i) {
    EXPECT_DOUBLE_EQ(ca.items[i].score, naive.items[i].score);
  }
}

TEST(CaTest, FarFewerRandomAccessesThanTa) {
  const Database db = MakeUniformDatabase(5000, 6, 32);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  const auto ta =
      MakeAlgorithm(AlgorithmKind::kTa)->Execute(db, query).ValueOrDie();
  const auto ca =
      MakeAlgorithm(AlgorithmKind::kCa)->Execute(db, query).ValueOrDie();
  // CA resolves one candidate every cr/cs rows; TA resolves every row entry.
  EXPECT_LT(ca.stats.random_accesses, ta.stats.random_accesses / 4);
}

TEST(CaTest, StopsEarlierThanNraInRows) {
  const Database db = MakeUniformDatabase(3000, 4, 33);
  SumScorer sum;
  const TopKQuery query{5, &sum};
  const auto nra =
      MakeAlgorithm(AlgorithmKind::kNra)->Execute(db, query).ValueOrDie();
  const auto ca =
      MakeAlgorithm(AlgorithmKind::kCa)->Execute(db, query).ValueOrDie();
  EXPECT_LE(ca.stop_position, nra.stop_position);
}

TEST(CaTest, RejectsScoresBelowFloor) {
  const Database db = MakeGaussianDatabase(100, 3, 34);
  SumScorer sum;
  EXPECT_TRUE(MakeAlgorithm(AlgorithmKind::kCa)
                  ->Execute(db, TopKQuery{3, &sum})
                  .status()
                  .IsInvalid());
}

TEST(CaTest, GaussianWithExplicitFloor) {
  const Database db = MakeGaussianDatabase(300, 3, 35);
  double floor = 0.0;
  for (size_t i = 0; i < db.num_lists(); ++i) {
    floor = std::min(floor, db.list(i).MinScore());
  }
  AlgorithmOptions options;
  options.score_floor = floor;
  SumScorer sum;
  const TopKQuery query{5, &sum};
  const auto naive =
      MakeAlgorithm(AlgorithmKind::kNaive)->Execute(db, query).ValueOrDie();
  const auto ca = MakeAlgorithm(AlgorithmKind::kCa, options)
                      ->Execute(db, query)
                      .ValueOrDie();
  for (size_t i = 0; i < query.k; ++i) {
    EXPECT_DOUBLE_EQ(ca.items[i].score, naive.items[i].score);
  }
}

TEST(CaTest, WorksOnPaperFigure1) {
  const Database db = MakeFigure1Database();
  SumScorer sum;
  const auto result =
      MakeAlgorithm(AlgorithmKind::kCa)->Execute(db, TopKQuery{3, &sum})
          .ValueOrDie();
  EXPECT_DOUBLE_EQ(result.items[0].score, 71.0);
  EXPECT_DOUBLE_EQ(result.items[1].score, 70.0);
  EXPECT_DOUBLE_EQ(result.items[2].score, 70.0);
}

TEST(CaTest, UnitCostModelDegeneratesTowardPerRowResolution) {
  // With cr == cs, h = 1: CA resolves a candidate every row.
  const Database db = MakeUniformDatabase(500, 3, 36);
  SumScorer sum;
  AlgorithmOptions options;
  options.cost_model = CostModel::Unit();
  const auto result = MakeAlgorithm(AlgorithmKind::kCa, options)
                          ->Execute(db, TopKQuery{5, &sum})
                          .ValueOrDie();
  ASSERT_EQ(result.items.size(), 5u);
  const auto naive = MakeAlgorithm(AlgorithmKind::kNaive)
                         ->Execute(db, TopKQuery{5, &sum})
                         .ValueOrDie();
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(result.items[i].score, naive.items[i].score);
  }
}

TEST(CaTest, HugeCostRatioRunsAsAResolvePeriodPastN) {
  // Both ratios exceed Position's range (2^32 + 3 would wrap to h = 3 in an
  // unchecked cast). CA clamps h to n + 1 before the cast; every h > n runs
  // alike (no resolution before the final stop check), so each run must
  // return Naive's answer with exactly the accesses of an h = n + 1 run.
  const Database db = MakeUniformDatabase(500, 3, 38);
  SumScorer sum;
  const TopKQuery query{5, &sum};
  AlgorithmOptions past_n;
  past_n.cost_model =
      CostModel{1.0, static_cast<double>(db.num_items() + 1)};
  const auto reference = MakeAlgorithm(AlgorithmKind::kCa, past_n)
                             ->Execute(db, query)
                             .ValueOrDie();
  const auto naive =
      MakeAlgorithm(AlgorithmKind::kNaive)->Execute(db, query).ValueOrDie();
  for (double ratio : {1e10, 4294967299.0}) {
    SCOPED_TRACE(ratio);
    AlgorithmOptions huge;
    huge.cost_model = CostModel{1.0, ratio};
    const auto result = MakeAlgorithm(AlgorithmKind::kCa, huge)
                            ->Execute(db, query)
                            .ValueOrDie();
    ASSERT_EQ(result.items.size(), query.k);
    for (size_t i = 0; i < query.k; ++i) {
      EXPECT_EQ(result.items[i].item, naive.items[i].item);
      EXPECT_DOUBLE_EQ(result.items[i].score, naive.items[i].score);
    }
    EXPECT_EQ(result.stats.sorted_accesses, reference.stats.sorted_accesses);
    EXPECT_EQ(result.stats.random_accesses, reference.stats.random_accesses);
    EXPECT_EQ(result.stats.direct_accesses, reference.stats.direct_accesses);
    EXPECT_EQ(result.stop_position, reference.stop_position);
  }
}

TEST(CaTest, MinScorerSupported) {
  const Database db = MakeUniformDatabase(200, 3, 37);
  MinScorer min;
  const TopKQuery query{5, &min};
  const auto naive =
      MakeAlgorithm(AlgorithmKind::kNaive)->Execute(db, query).ValueOrDie();
  const auto ca =
      MakeAlgorithm(AlgorithmKind::kCa)->Execute(db, query).ValueOrDie();
  for (size_t i = 0; i < query.k; ++i) {
    EXPECT_DOUBLE_EQ(ca.items[i].score, naive.items[i].score);
  }
}

}  // namespace
}  // namespace topk
