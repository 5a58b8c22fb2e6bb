// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "gen/database_generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "gen/distributions.h"

namespace topk {
namespace {

TEST(DistributionsTest, ZipfScoreShape) {
  EXPECT_DOUBLE_EQ(ZipfScore(1, 0.7), 1.0);
  EXPECT_LT(ZipfScore(2, 0.7), 1.0);
  // s(p) = 1/p^θ: doubling the rank divides the score by 2^θ.
  EXPECT_NEAR(ZipfScore(10, 0.7) / ZipfScore(20, 0.7), std::pow(2.0, 0.7),
              1e-12);
}

TEST(DistributionsTest, ZipfScoreVectorDescending) {
  const auto scores = ZipfScoreVector(100, 0.7);
  ASSERT_EQ(scores.size(), 100u);
  for (size_t i = 1; i < scores.size(); ++i) {
    ASSERT_LT(scores[i], scores[i - 1]);
  }
}

TEST(DistributionsTest, ZipfThetaZeroIsFlat) {
  const auto scores = ZipfScoreVector(10, 0.0);
  for (Score s : scores) {
    EXPECT_DOUBLE_EQ(s, 1.0);
  }
}

TEST(DistributionsTest, ZipfSamplerFavorsLowRanks) {
  Rng rng(55);
  ZipfSampler sampler(100, 1.0);
  std::vector<int> counts(101, 0);
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const Position p = sampler.Sample(&rng);
    ASSERT_GE(p, 1u);
    ASSERT_LE(p, 100u);
    ++counts[p];
  }
  EXPECT_GT(counts[1], counts[10]);
  EXPECT_GT(counts[10], counts[100]);
  // Rank 1 should receive roughly 1/H(100) of the mass (~19%).
  EXPECT_NEAR(static_cast<double>(counts[1]) / kDraws, 0.192, 0.02);
}

TEST(DistributionsTest, UniformVectorBounds) {
  Rng rng(56);
  const auto scores = UniformScoreVector(10000, &rng);
  for (Score s : scores) {
    ASSERT_GE(s, 0.0);
    ASSERT_LT(s, 1.0);
  }
}

TEST(DistributionsTest, GaussianVectorMoments) {
  Rng rng(57);
  const auto scores = GaussianScoreVector(100000, &rng);
  const double mean =
      std::accumulate(scores.begin(), scores.end(), 0.0) / scores.size();
  EXPECT_NEAR(mean, 0.0, 0.02);
}

TEST(GeneratorsTest, UniformDatabaseShapeAndDeterminism) {
  const Database a = MakeUniformDatabase(100, 5, 42);
  const Database b = MakeUniformDatabase(100, 5, 42);
  const Database c = MakeUniformDatabase(100, 5, 43);
  EXPECT_EQ(a.num_items(), 100u);
  EXPECT_EQ(a.num_lists(), 5u);
  // Same seed -> identical databases.
  for (size_t li = 0; li < 5; ++li) {
    for (Position p = 1; p <= 100; ++p) {
      ASSERT_EQ(a.list(li).EntryAt(p), b.list(li).EntryAt(p));
    }
  }
  // Different seed -> different content (with overwhelming probability).
  bool any_diff = false;
  for (Position p = 1; p <= 100 && !any_diff; ++p) {
    any_diff = !(a.list(0).EntryAt(p) == c.list(0).EntryAt(p));
  }
  EXPECT_TRUE(any_diff);
}

TEST(GeneratorsTest, GaussianDatabaseHasNegativeScores) {
  const Database db = MakeGaussianDatabase(1000, 2, 44);
  EXPECT_FALSE(db.AllScoresNonNegative());
}

TEST(GeneratorsTest, CorrelatedDatabaseValid) {
  CorrelatedConfig config;
  config.n = 300;
  config.m = 4;
  config.alpha = 0.01;
  config.seed = 45;
  const Database db = MakeCorrelatedDatabase(config).ValueOrDie();
  EXPECT_EQ(db.num_items(), 300u);
  EXPECT_EQ(db.num_lists(), 4u);
  EXPECT_TRUE(db.AllScoresNonNegative());
  // Every list is a permutation (constructed via FromEntries) with Zipf
  // scores: descending, max = 1.
  for (size_t li = 0; li < db.num_lists(); ++li) {
    EXPECT_DOUBLE_EQ(db.list(li).MaxScore(), 1.0);
  }
}

TEST(GeneratorsTest, CorrelatedDeterministicPerSeed) {
  CorrelatedConfig config;
  config.n = 200;
  config.m = 3;
  config.alpha = 0.05;
  config.seed = 46;
  const Database a = MakeCorrelatedDatabase(config).ValueOrDie();
  const Database b = MakeCorrelatedDatabase(config).ValueOrDie();
  for (size_t li = 0; li < 3; ++li) {
    for (Position p = 1; p <= 200; ++p) {
      ASSERT_EQ(a.list(li).EntryAt(p), b.list(li).EntryAt(p));
    }
  }
}

// Average absolute displacement between an item's positions in list 1 and
// list i. Low alpha must produce small displacement.
double MeanDisplacement(const Database& db) {
  double total = 0.0;
  size_t count = 0;
  for (size_t li = 1; li < db.num_lists(); ++li) {
    for (ItemId item = 0; item < db.num_items(); ++item) {
      const double p1 = db.Lookup(0, item).position;
      const double pi = db.Lookup(li, item).position;
      total += std::abs(p1 - pi);
      ++count;
    }
  }
  return total / static_cast<double>(count);
}

TEST(GeneratorsTest, AlphaControlsCorrelationStrength) {
  CorrelatedConfig strong;
  strong.n = 2000;
  strong.m = 3;
  strong.alpha = 0.001;
  strong.seed = 47;
  CorrelatedConfig weak = strong;
  weak.alpha = 0.5;
  const double strong_disp =
      MeanDisplacement(MakeCorrelatedDatabase(strong).ValueOrDie());
  const double weak_disp =
      MeanDisplacement(MakeCorrelatedDatabase(weak).ValueOrDie());
  EXPECT_LT(strong_disp, weak_disp);
  EXPECT_LT(strong_disp, 10.0);   // offsets drawn from [1, 2]
  EXPECT_GT(weak_disp, 100.0);    // offsets up to 1000
}

TEST(GeneratorsTest, CorrelatedRejectsBadConfig) {
  CorrelatedConfig config;
  config.n = 0;
  config.m = 2;
  EXPECT_FALSE(MakeCorrelatedDatabase(config).ok());
  config.n = 10;
  config.m = 0;
  EXPECT_FALSE(MakeCorrelatedDatabase(config).ok());
  config.m = 2;
  config.alpha = 1.5;
  EXPECT_FALSE(MakeCorrelatedDatabase(config).ok());
  config.alpha = -0.1;
  EXPECT_FALSE(MakeCorrelatedDatabase(config).ok());
  config.alpha = 0.1;
  config.zipf_theta = -1.0;
  EXPECT_FALSE(MakeCorrelatedDatabase(config).ok());
}

TEST(GeneratorsTest, CorrelatedSingleList) {
  CorrelatedConfig config;
  config.n = 50;
  config.m = 1;
  config.alpha = 0.1;
  config.seed = 48;
  const Database db = MakeCorrelatedDatabase(config).ValueOrDie();
  EXPECT_EQ(db.num_lists(), 1u);
}

TEST(GeneratorsTest, ZipfDatabaseShapeScoresAndDeterminism) {
  const Database db = MakeZipfDatabase(200, 3, 77);
  EXPECT_EQ(db.num_lists(), 3u);
  EXPECT_EQ(db.num_items(), 200u);
  for (size_t i = 0; i < db.num_lists(); ++i) {
    // By-rank Zipf scores: position p carries exactly 1/p^0.7, independent
    // of which item landed there.
    for (Position p = 1; p <= 200; ++p) {
      EXPECT_DOUBLE_EQ(db.list(i).EntryAt(p).score, ZipfScore(p, 0.7));
    }
  }
  EXPECT_TRUE(db.AllScoresNonNegative());

  // Lists are independent permutations: with n = 200 the probability of two
  // identical lists is astronomically small.
  bool lists_differ = false;
  for (Position p = 1; p <= 200 && !lists_differ; ++p) {
    lists_differ = db.list(0).EntryAt(p).item != db.list(1).EntryAt(p).item;
  }
  EXPECT_TRUE(lists_differ);

  // Deterministic per seed, different across seeds.
  const Database same = MakeZipfDatabase(200, 3, 77);
  const Database other = MakeZipfDatabase(200, 3, 78);
  bool seeds_differ = false;
  for (Position p = 1; p <= 200; ++p) {
    EXPECT_EQ(db.list(0).EntryAt(p).item, same.list(0).EntryAt(p).item);
    seeds_differ |= db.list(0).EntryAt(p).item != other.list(0).EntryAt(p).item;
  }
  EXPECT_TRUE(seeds_differ);
}

TEST(GeneratorsTest, ZipfDatabaseThetaControlsSkew) {
  const Database flat = MakeZipfDatabase(100, 1, 5, /*theta=*/0.0);
  const Database skewed = MakeZipfDatabase(100, 1, 5, /*theta=*/1.0);
  EXPECT_DOUBLE_EQ(flat.list(0).MaxScore(), flat.list(0).MinScore());
  EXPECT_GT(skewed.list(0).MaxScore(), 10 * skewed.list(0).MinScore());
}

TEST(GeneratorsTest, DatabaseKindNames) {
  EXPECT_EQ(ToString(DatabaseKind::kUniform), "uniform");
  EXPECT_EQ(ToString(DatabaseKind::kGaussian), "gaussian");
  EXPECT_EQ(ToString(DatabaseKind::kCorrelated), "correlated");
  EXPECT_EQ(ToString(DatabaseKind::kZipf), "zipf");
}

}  // namespace
}  // namespace topk
