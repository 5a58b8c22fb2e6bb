// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "lists/database.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "lists/scorer.h"

namespace topk {
namespace {

// A database of the one list built from `scores` (item i scores scores[i]).
Database OneList(const std::vector<Score>& scores) {
  std::vector<SortedList> lists;
  lists.push_back(SortedList::FromScores(scores).ValueOrDie());
  return Database::Make(std::move(lists)).ValueOrDie();
}

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
  lists.push_back(SortedList::FromScores({1.0, 2.0}).ValueOrDie());
  lists.push_back(SortedList::FromScores({1.0, 2.0, 3.0}).ValueOrDie());
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
  // The by-item mirror agrees with every list's sorted order: position p of
  // list li holds the item whose mirror row says p, at the same score. The
  // tied database checks the id tie-break too.
  for (const Database& db :
       {TwoByThree(), Database::FromScoreMatrix(
                          {{0.5, 1.0}, {0.5, 1.0}, {0.9, 0.0}, {0.5, 1.0}})
                          .ValueOrDie()}) {
    for (size_t li = 0; li < db.num_lists(); ++li) {
      for (Position p = 1; p <= db.num_items(); ++p) {
        const ListEntry entry = db.list(li).EntryAt(p);
        const ItemLookup lookup = db.Lookup(li, entry.item);
        ASSERT_EQ(lookup.position, p) << "list " << li;
        ASSERT_EQ(lookup.score, entry.score) << "list " << li;
        ASSERT_EQ(db.ScoreOf(li, entry.item), entry.score) << "list " << li;
      }
    }
  }
}

TEST(DatabaseTest, LookupReturnsScoreAndPosition) {
  const Database db = OneList({0.2, 0.9, 0.5});
  const ItemLookup lookup = db.Lookup(0, 0);
  EXPECT_DOUBLE_EQ(lookup.score, 0.2);
  EXPECT_EQ(lookup.position, 3u);
  EXPECT_EQ(db.Lookup(0, 1).position, 1u);
  EXPECT_DOUBLE_EQ(db.ScoreOf(0, 2), 0.5);
}

TEST(DatabaseTest, PositionsAreOneBasedAndConsistent) {
  const Database db = OneList({0.1, 0.4, 0.3, 0.8});
  for (Position p = 1; p <= db.num_items(); ++p) {
    const ListEntry e = db.list(0).EntryAt(p);
    EXPECT_EQ(db.Lookup(0, e.item).position, p);
    EXPECT_DOUBLE_EQ(db.ScoreOf(0, e.item), e.score);
  }
}

TEST(DatabaseTest, SingleItemLookup) {
  EXPECT_EQ(OneList({3.5}).Lookup(0, 0).position, 1u);
}

TEST(DatabaseTest, LargeListLookupRoundTrip) {
  const size_t n = 10000;
  std::vector<Score> scores(n);
  for (size_t i = 0; i < n; ++i) {
    scores[i] = static_cast<Score>((i * 7919) % n);
  }
  const Database db = OneList(scores);
  // The by-item index is total and consistent.
  for (ItemId item = 0; item < n; ++item) {
    ASSERT_EQ(db.list(0).EntryAt(db.Lookup(0, item).position).item, item);
  }
}

}  // namespace
}  // namespace topk
