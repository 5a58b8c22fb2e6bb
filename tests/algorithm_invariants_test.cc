// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Property tests for the paper's lemmas and theorems on randomly generated
// databases:
//   Lemma 1   — BPA performs no more sorted accesses than TA.
//   Lemma 2   — TA and BPA do (m-1) random accesses per sorted access.
//   Theorem 2 — execution cost of BPA <= execution cost of TA.
//   Theorem 5 — BPA2 never accesses a list position twice.
//   Theorem 7 — BPA2's total accesses <= BPA's.
//   (plus: FA never stops before TA; tracker choice does not change BPA/BPA2
//   semantics; memoization changes only access counts, never the stop
//   position.)

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/algorithms.h"
#include "gen/database_generator.h"
#include "lists/scorer.h"

namespace topk {
namespace {

struct InvariantCase {
  DatabaseKind db_kind;
  size_t m;
  size_t n;
  size_t k;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<InvariantCase>& info) {
  const InvariantCase& c = info.param;
  return ToString(c.db_kind) + "_m" + std::to_string(c.m) + "_n" +
         std::to_string(c.n) + "_k" + std::to_string(c.k) + "_s" +
         std::to_string(c.seed);
}

Database MakeDb(const InvariantCase& c) {
  switch (c.db_kind) {
    case DatabaseKind::kUniform:
      return MakeUniformDatabase(c.n, c.m, c.seed);
    case DatabaseKind::kGaussian:
      return MakeGaussianDatabase(c.n, c.m, c.seed);
    case DatabaseKind::kCorrelated: {
      CorrelatedConfig config;
      config.n = c.n;
      config.m = c.m;
      config.alpha = 0.02;
      config.seed = c.seed;
      return MakeCorrelatedDatabase(config).ValueOrDie();
    }
    case DatabaseKind::kZipf:
      return MakeZipfDatabase(c.n, c.m, c.seed);
  }
  return Database();
}

class InvariantsTest : public ::testing::TestWithParam<InvariantCase> {
 protected:
  void SetUp() override {
    db_ = MakeDb(GetParam());
    query_ = TopKQuery{GetParam().k, &sum_};
  }

  TopKResult Run(AlgorithmKind kind, AlgorithmOptions options = {}) {
    return MakeAlgorithm(kind, options)->Execute(db_, query_).ValueOrDie();
  }

  Database db_;
  SumScorer sum_;
  TopKQuery query_;
};

TEST_P(InvariantsTest, Lemma1BpaSortedAccessesAtMostTa) {
  const TopKResult ta = Run(AlgorithmKind::kTa);
  const TopKResult bpa = Run(AlgorithmKind::kBpa);
  EXPECT_LE(bpa.stats.sorted_accesses, ta.stats.sorted_accesses);
  EXPECT_LE(bpa.stop_position, ta.stop_position);
}

TEST_P(InvariantsTest, Lemma2RandomAccessesProportionalToSorted) {
  const size_t m = GetParam().m;
  for (AlgorithmKind kind : {AlgorithmKind::kTa, AlgorithmKind::kBpa}) {
    const TopKResult result = Run(kind);
    EXPECT_EQ(result.stats.random_accesses,
              result.stats.sorted_accesses * (m - 1))
        << ToString(kind);
  }
}

TEST_P(InvariantsTest, Theorem2BpaCostAtMostTa) {
  const TopKResult ta = Run(AlgorithmKind::kTa);
  const TopKResult bpa = Run(AlgorithmKind::kBpa);
  EXPECT_LE(bpa.execution_cost, ta.execution_cost);
}

TEST_P(InvariantsTest, Theorem5Bpa2NeverReaccessesAPosition) {
  AlgorithmOptions options;
  options.audit_accesses = true;
  const TopKResult result = Run(AlgorithmKind::kBpa2, options);
  for (size_t i = 0; i < result.max_touches_per_list.size(); ++i) {
    EXPECT_LE(result.max_touches_per_list[i], 1u) << "list " << i;
  }
}

TEST_P(InvariantsTest, Theorem7Bpa2TotalAccessesAtMostBpa) {
  const TopKResult bpa = Run(AlgorithmKind::kBpa);
  const TopKResult bpa2 = Run(AlgorithmKind::kBpa2);
  EXPECT_LE(bpa2.stats.TotalAccesses(), bpa.stats.TotalAccesses());
}

TEST_P(InvariantsTest, Bpa2DirectAccessesEqualDistinctPositionsTouched) {
  // BPA and BPA2 see the same set of positions (Section 5.1); BPA2 touches
  // each exactly once, so its access total equals the number of distinct
  // (list, position) pairs it touched.
  AlgorithmOptions options;
  options.audit_accesses = true;
  const TopKResult result = Run(AlgorithmKind::kBpa2, options);
  // With max touches <= 1, total accesses == distinct touches by definition.
  EXPECT_EQ(result.stats.sorted_accesses, 0u);
}

TEST_P(InvariantsTest, FaStopsNoEarlierThanTa) {
  // TA's stopping position is <= FA's over any database (Fagin et al.).
  const TopKResult fa = Run(AlgorithmKind::kFa);
  const TopKResult ta = Run(AlgorithmKind::kTa);
  EXPECT_LE(ta.stop_position, fa.stop_position);
}

TEST_P(InvariantsTest, MemoizationKeepsStopPositionLowersAccesses) {
  for (AlgorithmKind kind : {AlgorithmKind::kTa, AlgorithmKind::kBpa}) {
    AlgorithmOptions memo;
    memo.memoize_seen_items = true;
    const TopKResult plain = Run(kind);
    const TopKResult memoized = Run(kind, memo);
    EXPECT_EQ(memoized.stop_position, plain.stop_position) << ToString(kind);
    EXPECT_EQ(memoized.stats.sorted_accesses, plain.stats.sorted_accesses);
    EXPECT_LE(memoized.stats.random_accesses, plain.stats.random_accesses);
    // Same answers.
    ASSERT_EQ(memoized.items.size(), plain.items.size());
    for (size_t i = 0; i < plain.items.size(); ++i) {
      EXPECT_DOUBLE_EQ(memoized.items[i].score, plain.items[i].score);
    }
  }
}

TEST_P(InvariantsTest, NraUsesNoRandomAccesses) {
  AlgorithmOptions options;
  double floor = 0.0;
  for (size_t i = 0; i < db_.num_lists(); ++i) {
    floor = std::min(floor, db_.list(i).MinScore());
  }
  options.score_floor = floor;
  const TopKResult result = Run(AlgorithmKind::kNra, options);
  EXPECT_EQ(result.stats.random_accesses, 0u);
  EXPECT_EQ(result.stats.direct_accesses, 0u);
  EXPECT_GT(result.stats.sorted_accesses, 0u);
}

TEST_P(InvariantsTest, LambdaNeverExceedsDeltaEffect) {
  // Indirect check of λ <= δ: with identical inputs BPA must never scan
  // deeper than TA *and* must see every item TA's buffer returned.
  const TopKResult ta = Run(AlgorithmKind::kTa);
  const TopKResult bpa = Run(AlgorithmKind::kBpa);
  ASSERT_EQ(ta.items.size(), bpa.items.size());
  for (size_t i = 0; i < ta.items.size(); ++i) {
    EXPECT_DOUBLE_EQ(ta.items[i].score, bpa.items[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InvariantsTest,
    ::testing::Values(
        InvariantCase{DatabaseKind::kUniform, 2, 300, 5, 1},
        InvariantCase{DatabaseKind::kUniform, 3, 500, 10, 2},
        InvariantCase{DatabaseKind::kUniform, 4, 800, 20, 3},
        InvariantCase{DatabaseKind::kUniform, 6, 500, 10, 4},
        InvariantCase{DatabaseKind::kUniform, 8, 400, 5, 5},
        InvariantCase{DatabaseKind::kUniform, 10, 300, 3, 6},
        InvariantCase{DatabaseKind::kGaussian, 3, 500, 10, 7},
        InvariantCase{DatabaseKind::kGaussian, 5, 600, 20, 8},
        InvariantCase{DatabaseKind::kGaussian, 8, 300, 5, 9},
        InvariantCase{DatabaseKind::kCorrelated, 3, 400, 10, 10},
        InvariantCase{DatabaseKind::kCorrelated, 6, 600, 20, 11},
        InvariantCase{DatabaseKind::kCorrelated, 8, 500, 5, 12},
        InvariantCase{DatabaseKind::kZipf, 4, 500, 10, 13},
        InvariantCase{DatabaseKind::kZipf, 6, 400, 20, 14}),
    CaseName);

}  // namespace
}  // namespace topk
