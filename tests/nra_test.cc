// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/nra_loop.h"

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "gen/database_generator.h"
#include "gen/paper_fixtures.h"
#include "lists/scorer.h"

namespace topk {
namespace {

TEST(NraTest, MatchesNaiveOnUniform) {
  const Database db = MakeUniformDatabase(400, 4, 21);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  const auto naive =
      MakeAlgorithm(AlgorithmKind::kNaive)->Execute(db, query).ValueOrDie();
  const auto nra =
      MakeAlgorithm(AlgorithmKind::kNra)->Execute(db, query).ValueOrDie();
  for (size_t i = 0; i < query.k; ++i) {
    EXPECT_DOUBLE_EQ(nra.items[i].score, naive.items[i].score);
  }
}

TEST(NraTest, PerformsOnlySortedAccesses) {
  const Database db = MakeUniformDatabase(400, 4, 22);
  SumScorer sum;
  const auto result =
      MakeAlgorithm(AlgorithmKind::kNra)->Execute(db, TopKQuery{5, &sum})
          .ValueOrDie();
  EXPECT_EQ(result.stats.random_accesses, 0u);
  EXPECT_EQ(result.stats.direct_accesses, 0u);
  EXPECT_GT(result.stats.sorted_accesses, 0u);
}

TEST(NraTest, RejectsScoresBelowDefaultFloor) {
  const Database db = MakeGaussianDatabase(100, 3, 23);
  SumScorer sum;
  const auto status =
      MakeAlgorithm(AlgorithmKind::kNra)->Execute(db, TopKQuery{3, &sum})
          .status();
  EXPECT_TRUE(status.IsInvalid());
}

TEST(NraTest, GaussianWorksWithExplicitFloor) {
  const Database db = MakeGaussianDatabase(300, 3, 24);
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
  const auto nra = MakeAlgorithm(AlgorithmKind::kNra, options)
                       ->Execute(db, query)
                       .ValueOrDie();
  for (size_t i = 0; i < query.k; ++i) {
    EXPECT_DOUBLE_EQ(nra.items[i].score, naive.items[i].score);
  }
}

TEST(NraTest, WorksOnPaperFigure1) {
  const Database db = MakeFigure1Database();
  SumScorer sum;
  const auto result =
      MakeAlgorithm(AlgorithmKind::kNra)->Execute(db, TopKQuery{3, &sum})
          .ValueOrDie();
  EXPECT_EQ(result.items[0].item, 7u);  // d8 = 71
  EXPECT_DOUBLE_EQ(result.items[0].score, 71.0);
  EXPECT_DOUBLE_EQ(result.items[1].score, 70.0);
  EXPECT_DOUBLE_EQ(result.items[2].score, 70.0);
}

TEST(NraTest, StopsBeforeFullScanOnSkewedData) {
  // Zipf-like scores make the top items separable early; NRA should not need
  // the whole list.
  CorrelatedConfig config;
  config.n = 1000;
  config.m = 3;
  config.alpha = 0.005;
  config.seed = 9;
  const Database db = MakeCorrelatedDatabase(config).ValueOrDie();
  SumScorer sum;
  const auto result =
      MakeAlgorithm(AlgorithmKind::kNra)->Execute(db, TopKQuery{5, &sum})
          .ValueOrDie();
  EXPECT_LT(result.stop_position, 1000u);
}

TEST(NraTest, MinScorerSupported) {
  const Database db = MakeUniformDatabase(200, 3, 25);
  MinScorer min;
  const TopKQuery query{5, &min};
  const auto naive =
      MakeAlgorithm(AlgorithmKind::kNaive)->Execute(db, query).ValueOrDie();
  const auto nra =
      MakeAlgorithm(AlgorithmKind::kNra)->Execute(db, query).ValueOrDie();
  for (size_t i = 0; i < query.k; ++i) {
    EXPECT_DOUBLE_EQ(nra.items[i].score, naive.items[i].score);
  }
}

TEST(NraTest, KEqualsNScansToTheEnd) {
  const Database db = MakeUniformDatabase(64, 3, 26);
  SumScorer sum;
  const auto result =
      MakeAlgorithm(AlgorithmKind::kNra)->Execute(db, TopKQuery{64, &sum})
          .ValueOrDie();
  EXPECT_EQ(result.items.size(), 64u);
}

}  // namespace
}  // namespace topk
