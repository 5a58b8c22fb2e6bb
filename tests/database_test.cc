// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "lists/database.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "lists/scorer.h"

namespace topk {
namespace {

Database TwoByThree() {
  // scores[item][list]
  return Database::FromScoreMatrix({{1.0, 6.0},
                                    {2.0, 5.0},
                                    {3.0, 4.0}})
      .ValueOrDie();
}

TEST(DatabaseTest, FromScoreMatrixShape) {
  Database db = TwoByThree();
  EXPECT_EQ(db.num_lists(), 2u);
  EXPECT_EQ(db.num_items(), 3u);
}

TEST(DatabaseTest, ListsAreSorted) {
  Database db = TwoByThree();
  EXPECT_EQ(db.list(0).EntryAt(1).item, 2u);  // 3.0 is top of list 0
  EXPECT_EQ(db.list(1).EntryAt(1).item, 0u);  // 6.0 is top of list 1
}

TEST(DatabaseTest, MakeRejectsEmpty) {
  Result<Database> r = Database::Make({});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalid());
}

TEST(DatabaseTest, MakeRejectsEmptyLists) {
  Result<Database> r = Database::Make({SortedList{}});
  ASSERT_FALSE(r.ok());
}

TEST(DatabaseTest, MakeRejectsSizeMismatch) {
  std::vector<SortedList> lists;
  lists.push_back(SortedList::FromScores({1.0, 2.0}));
  lists.push_back(SortedList::FromScores({1.0, 2.0, 3.0}));
  Result<Database> r = Database::Make(std::move(lists));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalid());
}

TEST(DatabaseTest, FromScoreMatrixRejectsRagged) {
  Result<Database> r = Database::FromScoreMatrix({{1.0, 2.0}, {3.0}});
  ASSERT_FALSE(r.ok());
}

TEST(DatabaseTest, FromScoreMatrixRejectsNonFiniteScores) {
  for (const Score bad : {std::numeric_limits<Score>::quiet_NaN(),
                          std::numeric_limits<Score>::infinity(),
                          -std::numeric_limits<Score>::infinity()}) {
    Result<Database> r =
        Database::FromScoreMatrix({{1.0, 2.0}, {3.0, 4.0}, {5.0, bad}});
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalid());
    EXPECT_NE(r.status().message().find("row 2 column 1"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(DatabaseTest, FromScoreMatrixRejectsEmpty) {
  EXPECT_FALSE(Database::FromScoreMatrix({}).ok());
  EXPECT_FALSE(Database::FromScoreMatrix({{}}).ok());
}

TEST(DatabaseTest, OverallScore) {
  Database db = TwoByThree();
  SumScorer sum;
  const Score s = db.OverallScore(
      0, [&](const std::vector<Score>& v) { return sum.Combine(v); });
  EXPECT_DOUBLE_EQ(s, 7.0);
}

TEST(DatabaseTest, AllScoresNonNegative) {
  EXPECT_TRUE(TwoByThree().AllScoresNonNegative());
  Database with_neg =
      Database::FromScoreMatrix({{-1.0, 1.0}, {2.0, 3.0}}).ValueOrDie();
  EXPECT_FALSE(with_neg.AllScoresNonNegative());
}

TEST(DatabaseTest, EveryItemInEveryList) {
  Database db = TwoByThree();
  for (size_t li = 0; li < db.num_lists(); ++li) {
    for (ItemId item = 0; item < db.num_items(); ++item) {
      const Position p = db.list(li).PositionOf(item);
      ASSERT_GE(p, 1u);
      ASSERT_LE(p, db.num_items());
    }
  }
}

}  // namespace
}  // namespace topk
