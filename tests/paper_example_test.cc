// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Pins the paper's worked examples end to end:
//  * Figure 1 (Examples 1-3): FA stops at position 8, TA at 6, BPA at 3;
//    top-3 = {d8 (71), d3 (70), d5 (70)}; the exact access counts of
//    Section 4.2 ("For TA ... 18 sorted and 36 random; with BPA ... 9 and 18").
//  * Figure 2 (Section 5): BPA stops at position 7 with 63 total accesses;
//    BPA2 does 12 direct + 24 random = 36 accesses in 4 rounds;
//    top-3 = {d3 (70), d4 (68), d6 (66)}.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/algorithms.h"
#include "gen/paper_fixtures.h"
#include "lists/scorer.h"

namespace topk {
namespace {

class PaperFigure1Test : public ::testing::Test {
 protected:
  PaperFigure1Test() : db_(MakeFigure1Database()) {}

  TopKResult Run(AlgorithmKind kind) {
    auto algorithm = MakeAlgorithm(kind);
    return algorithm->Execute(db_, TopKQuery{3, &sum_}).ValueOrDie();
  }

  Database db_;
  SumScorer sum_;
};

// d-indexes are 1-based in the paper; item ids are d-1.
constexpr ItemId d(int paper_index) { return static_cast<ItemId>(paper_index - 1); }

TEST_F(PaperFigure1Test, FixtureMatchesVisibleTable) {
  // Spot-check the transcription of Figure 1.a.
  EXPECT_EQ(db_.num_items(), kPaperFixtureItems);
  EXPECT_EQ(db_.num_lists(), 3u);
  EXPECT_EQ(db_.list(0).EntryAt(1).item, d(1));
  EXPECT_DOUBLE_EQ(db_.list(0).EntryAt(1).score, 30.0);
  EXPECT_EQ(db_.list(0).EntryAt(7).item, d(5));
  EXPECT_DOUBLE_EQ(db_.list(0).EntryAt(7).score, 17.0);
  EXPECT_EQ(db_.list(1).EntryAt(6).item, d(1));
  EXPECT_DOUBLE_EQ(db_.list(1).EntryAt(6).score, 21.0);
  EXPECT_EQ(db_.list(2).EntryAt(7).item, d(13));
  EXPECT_DOUBLE_EQ(db_.list(2).EntryAt(7).score, 15.0);
}

TEST_F(PaperFigure1Test, OverallScoresMatchFigure1c) {
  // Figure 1.c: overall scores of d1..d9.
  const double expected[] = {65, 63, 70, 66, 70, 60, 61, 71, 62};
  SumScorer sum;
  for (int i = 1; i <= 9; ++i) {
    const Score s = db_.OverallScore(
        d(i), [&](const std::vector<Score>& v) { return sum.Combine(v); });
    EXPECT_DOUBLE_EQ(s, expected[i - 1]) << "d" << i;
  }
}

TEST_F(PaperFigure1Test, NaiveTop3) {
  const TopKResult result = Run(AlgorithmKind::kNaive);
  ASSERT_EQ(result.items.size(), 3u);
  EXPECT_EQ(result.items[0].item, d(8));
  EXPECT_DOUBLE_EQ(result.items[0].score, 71.0);
  EXPECT_EQ(result.items[1].item, d(3));  // 70, tie broken by item id
  EXPECT_DOUBLE_EQ(result.items[1].score, 70.0);
  EXPECT_EQ(result.items[2].item, d(5));
  EXPECT_DOUBLE_EQ(result.items[2].score, 70.0);
}

TEST_F(PaperFigure1Test, FaStopsAtPosition8) {
  const TopKResult result = Run(AlgorithmKind::kFa);
  EXPECT_EQ(result.stop_position, 8u);
  // 8 rows x 3 lists under sorted access.
  EXPECT_EQ(result.stats.sorted_accesses, 24u);
  // Missing lists at stop: d2 (L1), d4 (L2), d7 (L3), d9 (L3), d13 (L1, L2).
  EXPECT_EQ(result.stats.random_accesses, 6u);
  EXPECT_EQ(result.items[0].item, d(8));
}

TEST_F(PaperFigure1Test, TaStopsAtPosition6WithPaperAccessCounts) {
  const TopKResult result = Run(AlgorithmKind::kTa);
  EXPECT_EQ(result.stop_position, 6u);
  // Section 4.2: "For TA, the total number of sorted accesses is 6*3=18 and
  // the number of random accesses is 18*2=36."
  EXPECT_EQ(result.stats.sorted_accesses, 18u);
  EXPECT_EQ(result.stats.random_accesses, 36u);
  EXPECT_EQ(result.items[0].item, d(8));
  EXPECT_DOUBLE_EQ(result.items[2].score, 70.0);
}

TEST_F(PaperFigure1Test, BpaStopsAtPosition3WithPaperAccessCounts) {
  const TopKResult result = Run(AlgorithmKind::kBpa);
  // Example 3: "BPA stops at position 3."
  EXPECT_EQ(result.stop_position, 3u);
  // Section 4.2: "With BPA, the number of sorted accesses and random accesses
  // is 3*3=9 and 9*2=18."
  EXPECT_EQ(result.stats.sorted_accesses, 9u);
  EXPECT_EQ(result.stats.random_accesses, 18u);
  // Example 3: best positions at stop are bp1=9, bp2=9, bp3=6.
  EXPECT_EQ(result.min_best_position, 6u);
}

TEST_F(PaperFigure1Test, Bpa2SeesSamePositionsInThreeRounds) {
  const TopKResult result = Run(AlgorithmKind::kBpa2);
  EXPECT_EQ(result.stop_position, 3u);  // rounds
  EXPECT_EQ(result.stats.direct_accesses, 9u);
  EXPECT_EQ(result.stats.random_accesses, 24u - 6u);  // 18
  EXPECT_EQ(result.stats.sorted_accesses, 0u);
  EXPECT_EQ(result.items[0].item, d(8));
}

TEST_F(PaperFigure1Test, AllAlgorithmsAgreeOnTop3Scores) {
  const TopKResult naive = Run(AlgorithmKind::kNaive);
  for (AlgorithmKind kind : AllAlgorithmKinds()) {
    const TopKResult result = Run(kind);
    ASSERT_EQ(result.items.size(), 3u) << ToString(kind);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_DOUBLE_EQ(result.items[i].score, naive.items[i].score)
          << ToString(kind) << " rank " << i;
    }
  }
}

TEST_F(PaperFigure1Test, StoppingPositionOrderingFaTaBpa) {
  // The paper's headline on this database: BPA (3) < TA (6) < FA (8).
  const Position fa = Run(AlgorithmKind::kFa).stop_position;
  const Position ta = Run(AlgorithmKind::kTa).stop_position;
  const Position bpa = Run(AlgorithmKind::kBpa).stop_position;
  EXPECT_LT(bpa, ta);
  EXPECT_LT(ta, fa);
}

TEST_F(PaperFigure1Test, ExecutionCostBpaBelowTa) {
  const TopKResult ta = Run(AlgorithmKind::kTa);
  const TopKResult bpa = Run(AlgorithmKind::kBpa);
  EXPECT_LT(bpa.execution_cost, ta.execution_cost);
}

TEST_F(PaperFigure1Test, FullRankingWithCompletionItems) {
  auto algorithm = MakeAlgorithm(AlgorithmKind::kNaive);
  const TopKResult result =
      algorithm->Execute(db_, TopKQuery{kPaperFixtureItems, &sum_})
          .ValueOrDie();
  // d8,d3,d5,d4,d1,d2,d9,d7,d6 then completions d13(18),d11(16),d14(14),
  // d10(12),d12(7).
  const ItemId expected_items[] = {d(8),  d(3),  d(5),  d(4), d(1),
                                   d(2),  d(9),  d(7),  d(6), d(13),
                                   d(11), d(14), d(10), d(12)};
  const double expected_scores[] = {71, 70, 70, 66, 65, 63, 62,
                                    61, 60, 18, 16, 14, 12, 7};
  ASSERT_EQ(result.items.size(), kPaperFixtureItems);
  for (size_t i = 0; i < kPaperFixtureItems; ++i) {
    EXPECT_EQ(result.items[i].item, expected_items[i]) << "rank " << i;
    EXPECT_DOUBLE_EQ(result.items[i].score, expected_scores[i]) << "rank " << i;
  }
}

class PaperFigure2Test : public ::testing::Test {
 protected:
  PaperFigure2Test() : db_(MakeFigure2Database()) {}

  TopKResult Run(AlgorithmKind kind) {
    auto algorithm = MakeAlgorithm(kind);
    return algorithm->Execute(db_, TopKQuery{3, &sum_}).ValueOrDie();
  }

  Database db_;
  SumScorer sum_;
};

TEST_F(PaperFigure2Test, NaiveTop3) {
  const TopKResult result = Run(AlgorithmKind::kNaive);
  ASSERT_EQ(result.items.size(), 3u);
  EXPECT_EQ(result.items[0].item, d(3));
  EXPECT_DOUBLE_EQ(result.items[0].score, 70.0);
  EXPECT_EQ(result.items[1].item, d(4));
  EXPECT_DOUBLE_EQ(result.items[1].score, 68.0);
  EXPECT_EQ(result.items[2].item, d(6));
  EXPECT_DOUBLE_EQ(result.items[2].score, 66.0);
}

TEST_F(PaperFigure2Test, BpaStopsAtPosition7With63Accesses) {
  const TopKResult result = Run(AlgorithmKind::kBpa);
  // Section 5.1: "If we apply BPA on this example, it stops at position 7, so
  // it does 7*3 sorted accesses and 7*3*2 random accesses ... nbpa = 63."
  EXPECT_EQ(result.stop_position, 7u);
  EXPECT_EQ(result.stats.sorted_accesses, 21u);
  EXPECT_EQ(result.stats.random_accesses, 42u);
  EXPECT_EQ(result.stats.TotalAccesses(), 63u);
}

TEST_F(PaperFigure2Test, Bpa2Does36AccessesInFourRounds) {
  const TopKResult result = Run(AlgorithmKind::kBpa2);
  // Section 5.1: "If we apply BPA2, it does direct access to positions 1, 2,
  // 3 and 7 in all lists, so a total of 4*3 direct accesses and 4*3*2 random
  // accesses ... nbpa2 = 36."
  EXPECT_EQ(result.stop_position, 4u);  // rounds = positions 1, 2, 3, 7
  EXPECT_EQ(result.stats.direct_accesses, 12u);
  EXPECT_EQ(result.stats.random_accesses, 24u);
  EXPECT_EQ(result.stats.TotalAccesses(), 36u);
}

TEST_F(PaperFigure2Test, AccessRatioAboutMMinusOne) {
  // Theorem 8's example: nbpa ≈ 2 * nbpa2 for m = 3.
  const uint64_t bpa = Run(AlgorithmKind::kBpa).stats.TotalAccesses();
  const uint64_t bpa2 = Run(AlgorithmKind::kBpa2).stats.TotalAccesses();
  EXPECT_EQ(bpa, 63u);
  EXPECT_EQ(bpa2, 36u);
  EXPECT_NEAR(static_cast<double>(bpa) / static_cast<double>(bpa2), 1.75, 0.01);
}

TEST_F(PaperFigure2Test, Bpa2NeverTouchesAPositionTwice) {
  AlgorithmOptions options;
  options.audit_accesses = true;
  auto algorithm = MakeAlgorithm(AlgorithmKind::kBpa2, options);
  const TopKResult result =
      algorithm->Execute(db_, TopKQuery{3, &sum_}).ValueOrDie();
  ASSERT_EQ(result.max_touches_per_list.size(), 3u);
  for (uint32_t touches : result.max_touches_per_list) {
    EXPECT_LE(touches, 1u);  // Theorem 5
  }
}

TEST_F(PaperFigure2Test, BpaDoesReaccessPositions) {
  // Contrast with Theorem 5: plain BPA re-touches positions (that redundancy
  // motivates BPA2).
  AlgorithmOptions options;
  options.audit_accesses = true;
  auto algorithm = MakeAlgorithm(AlgorithmKind::kBpa, options);
  const TopKResult result =
      algorithm->Execute(db_, TopKQuery{3, &sum_}).ValueOrDie();
  uint32_t max_touches = 0;
  for (uint32_t touches : result.max_touches_per_list) {
    max_touches = std::max(max_touches, touches);
  }
  EXPECT_GT(max_touches, 1u);
}

TEST_F(PaperFigure2Test, MaxTouchesPerListArePinned) {
  // The audit trail of the random-access algorithms and the Naive scan on
  // Figure 2, list by list: FA, BPA2 and Naive touch no position twice; TA
  // and BPA touch some twice.
  const struct {
    AlgorithmKind kind;
    std::vector<uint32_t> max_touches;
  } pins[] = {
      {AlgorithmKind::kFa, {1, 1, 1}},
      {AlgorithmKind::kTa, {2, 2, 2}},
      {AlgorithmKind::kBpa, {2, 2, 2}},
      {AlgorithmKind::kBpa2, {1, 1, 1}},
      {AlgorithmKind::kNaive, {1, 1, 1}},
  };
  AlgorithmOptions options;
  options.audit_accesses = true;
  for (const auto& pin : pins) {
    const TopKResult result = MakeAlgorithm(pin.kind, options)
                                  ->Execute(db_, TopKQuery{3, &sum_})
                                  .ValueOrDie();
    EXPECT_EQ(result.max_touches_per_list, pin.max_touches)
        << ToString(pin.kind);
  }
}

TEST_F(PaperFigure2Test, TaAndAllOthersReturnSameScores) {
  const TopKResult naive = Run(AlgorithmKind::kNaive);
  for (AlgorithmKind kind : AllAlgorithmKinds()) {
    const TopKResult result = Run(kind);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_DOUBLE_EQ(result.items[i].score, naive.items[i].score)
          << ToString(kind);
    }
  }
}

TEST(PaperFixtureTest, ItemLabels) {
  EXPECT_EQ(PaperItemLabel(0), "d1");
  EXPECT_EQ(PaperItemLabel(13), "d14");
}

TEST(PaperFixtureTest, BothFixturesAreValidDatabases) {
  const Database f1 = MakeFigure1Database();
  const Database f2 = MakeFigure2Database();
  EXPECT_TRUE(f1.AllScoresNonNegative());
  EXPECT_TRUE(f2.AllScoresNonNegative());
  for (const Database* db : {&f1, &f2}) {
    for (size_t li = 0; li < db->num_lists(); ++li) {
      for (Position p = 2; p <= db->num_items(); ++p) {
        ASSERT_GE(db->list(li).EntryAt(p - 1).score,
                  db->list(li).EntryAt(p).score);
      }
    }
  }
}

}  // namespace
}  // namespace topk
