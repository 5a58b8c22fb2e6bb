// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "lists/sorted_list.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace topk {
namespace {

TEST(SortedListTest, FromScoresSortsDescending) {
  SortedList list = SortedList::FromScores({0.2, 0.9, 0.5}).ValueOrDie();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list.EntryAt(1).item, 1u);
  EXPECT_DOUBLE_EQ(list.EntryAt(1).score, 0.9);
  EXPECT_EQ(list.EntryAt(2).item, 2u);
  EXPECT_EQ(list.EntryAt(3).item, 0u);
}

TEST(SortedListTest, TiesBrokenByAscendingItemId) {
  SortedList list = SortedList::FromScores({0.5, 0.5, 0.9, 0.5}).ValueOrDie();
  EXPECT_EQ(list.EntryAt(1).item, 2u);
  EXPECT_EQ(list.EntryAt(2).item, 0u);
  EXPECT_EQ(list.EntryAt(3).item, 1u);
  EXPECT_EQ(list.EntryAt(4).item, 3u);
}

TEST(SortedListTest, MinMaxScore) {
  SortedList list = SortedList::FromScores({3.0, 1.0, 2.0}).ValueOrDie();
  EXPECT_DOUBLE_EQ(list.MaxScore(), 3.0);
  EXPECT_DOUBLE_EQ(list.MinScore(), 1.0);
}

TEST(SortedListTest, AllScoresNonNegative) {
  EXPECT_TRUE(
      SortedList::FromScores({0.0, 1.0}).ValueOrDie().AllScoresNonNegative());
  EXPECT_FALSE(
      SortedList::FromScores({-0.1, 1.0}).ValueOrDie().AllScoresNonNegative());
}

TEST(SortedListTest, FromEntriesAcceptsPermutation) {
  std::vector<ListEntry> entries{{2, 5.0}, {0, 9.0}, {1, 7.0}};
  Result<SortedList> result = SortedList::FromEntries(entries);
  ASSERT_TRUE(result.ok());
  const SortedList& list = result.ValueUnsafe();
  EXPECT_EQ(list.EntryAt(1).item, 0u);
  EXPECT_EQ(list.EntryAt(2).item, 1u);
  EXPECT_EQ(list.EntryAt(3).item, 2u);
}

TEST(SortedListTest, FromEntriesRejectsDuplicateItem) {
  std::vector<ListEntry> entries{{0, 5.0}, {0, 9.0}};
  Result<SortedList> result = SortedList::FromEntries(entries);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalid());
}

TEST(SortedListTest, FromEntriesRejectsOutOfRangeItem) {
  std::vector<ListEntry> entries{{0, 5.0}, {5, 9.0}};
  Result<SortedList> result = SortedList::FromEntries(entries);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalid());
}

TEST(SortedListTest, FromEntriesRejectsNonFiniteScores) {
  for (const Score bad : {std::numeric_limits<Score>::quiet_NaN(),
                          std::numeric_limits<Score>::infinity(),
                          -std::numeric_limits<Score>::infinity()}) {
    std::vector<ListEntry> entries{{0, 5.0}, {1, bad}, {2, 1.0}};
    Result<SortedList> result = SortedList::FromEntries(entries);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalid());
    EXPECT_NE(result.status().message().find("item id 1"), std::string::npos)
        << result.status().ToString();
  }
}

TEST(SortedListTest, FromScoresRejectsNonFiniteScores) {
  for (const Score bad : {std::numeric_limits<Score>::quiet_NaN(),
                          std::numeric_limits<Score>::infinity(),
                          -std::numeric_limits<Score>::infinity()}) {
    Result<SortedList> result = SortedList::FromScores({5.0, 1.0, bad, 2.0});
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalid());
    EXPECT_NE(result.status().message().find("item id 2"), std::string::npos)
        << result.status().ToString();
  }
}

TEST(SortedListTest, EntryAtCheckedBounds) {
  SortedList list = SortedList::FromScores({1.0, 2.0}).ValueOrDie();
  EXPECT_TRUE(list.EntryAtChecked(1).ok());
  EXPECT_TRUE(list.EntryAtChecked(2).ok());
  EXPECT_TRUE(list.EntryAtChecked(0).status().IsOutOfRange());
  EXPECT_TRUE(list.EntryAtChecked(3).status().IsOutOfRange());
}

TEST(SortedListTest, EmptyList) {
  SortedList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
}

TEST(SortedListTest, SingleItem) {
  SortedList list = SortedList::FromScores({3.5}).ValueOrDie();
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.EntryAt(1).item, 0u);
}

TEST(SortedListTest, NegativeScoresSupported) {
  SortedList list = SortedList::FromScores({-1.0, -3.0, 2.0}).ValueOrDie();
  EXPECT_EQ(list.EntryAt(1).item, 2u);
  EXPECT_EQ(list.EntryAt(2).item, 0u);
  EXPECT_EQ(list.EntryAt(3).item, 1u);
  EXPECT_DOUBLE_EQ(list.MinScore(), -3.0);
}

TEST(SortedListTest, LargeListRoundTrip) {
  const size_t n = 10000;
  std::vector<Score> scores(n);
  for (size_t i = 0; i < n; ++i) {
    scores[i] = static_cast<Score>((i * 7919) % n);
  }
  SortedList list = SortedList::FromScores(scores).ValueOrDie();
  ASSERT_EQ(list.size(), n);
  // Descending order invariant.
  for (Position p = 2; p <= n; ++p) {
    ASSERT_GE(list.EntryAt(p - 1).score, list.EntryAt(p).score);
  }
}

}  // namespace
}  // namespace topk
