// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// All-seven-algorithm differential harness. Hundreds of small randomized
// databases — uniform/gaussian/correlated score distributions, optionally
// quantized so that score ties and duplicates are everywhere, plus an
// adversarial "nasty" family (constant lists, signed scores, tiny n) — are
// run through every algorithm and compared against the naive full scan
// *exactly*: identical item sequences under the deterministic (score desc,
// item id asc) result order, not just identical score multisets. The grid
// sweeps k ∈ {1, 2, n-1, n} and m ∈ {1, 2, 5} as the paper's degenerate
// corners.
//
// On top of the differential, paper invariants are fuzzed:
//  * TA/BPA threshold monotonicity (δ and λ never increase along a scan);
//  * NRA bound soundness (the k-th lower bound never decreases, the unseen
//    upper bound never increases, and the final k-th lower bound never
//    exceeds the exact k-th score);
//  * BPA dominance (Lemma 1/Theorem 2) and BPA2's no-reaccess Theorem 5.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/algorithms.h"
#include "core/candidate_bounds.h"
#include "core/execution_context.h"
#include "lists/scorer.h"

namespace topk {
namespace {

enum class Distribution { kUniform, kGaussian, kCorrelated };

const char* Name(Distribution d) {
  switch (d) {
    case Distribution::kUniform:
      return "uniform";
    case Distribution::kGaussian:
      return "gaussian";
    case Distribution::kCorrelated:
      return "correlated";
  }
  return "?";
}

// Random database of n items and m lists drawn from `dist`; when `ties` is
// set, scores are quantized to a coarse grid so equal aggregate scores (and
// equal local scores within and across lists) are the norm, not the
// exception.
Database MakeFuzzDatabase(Rng* rng, size_t n, size_t m, Distribution dist,
                          bool ties) {
  std::vector<std::vector<Score>> scores(n, std::vector<Score>(m));
  std::vector<double> base(n);
  for (auto& b : base) {
    b = rng->NextDouble();
  }
  const double levels = 2.0 + static_cast<double>(rng->NextBounded(3));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      double s = 0.0;
      switch (dist) {
        case Distribution::kUniform:
          s = rng->NextDouble();
          break;
        case Distribution::kGaussian:
          s = rng->NextGaussian(0.0, 2.0);
          break;
        case Distribution::kCorrelated:
          s = 0.8 * base[i] + 0.2 * rng->NextDouble();
          break;
      }
      scores[i][j] = ties ? std::round(s * levels) / levels : s;
    }
  }
  return Database::FromScoreMatrix(scores).ValueOrDie();
}

// The adversarial family of the original harness: per-list styles mixing
// continuous, heavily quantized, constant and signed scores.
Database RandomNastyDatabase(Rng* rng) {
  const size_t n = 1 + rng->NextBounded(40);
  const size_t m = 1 + rng->NextBounded(6);
  std::vector<std::vector<Score>> scores(n, std::vector<Score>(m));
  for (size_t j = 0; j < m; ++j) {
    const uint64_t style = rng->NextBounded(4);
    for (size_t i = 0; i < n; ++i) {
      switch (style) {
        case 0:
          scores[i][j] = rng->NextDouble();
          break;
        case 1:
          scores[i][j] = static_cast<double>(rng->NextBounded(4));  // ties
          break;
        case 2:
          scores[i][j] = 7.25;  // constant list: all positions tie
          break;
        default:
          scores[i][j] = rng->NextDouble(-5.0, 5.0);  // negatives
          break;
      }
    }
  }
  return Database::FromScoreMatrix(scores).ValueOrDie();
}

// Runs every algorithm on (db, k, scorer) and asserts the exact naive item
// sequence and scores. `label` is appended to failure messages.
void ExpectAllAlgorithmsExactlyMatchNaive(const Database& db, size_t k,
                                          const Scorer& scorer,
                                          const std::string& label) {
  AlgorithmOptions options;
  options.score_floor = DeriveScoreFloor(db);
  const TopKQuery query{k, &scorer};
  const TopKResult naive = MakeAlgorithm(AlgorithmKind::kNaive, options)
                               ->Execute(db, query)
                               .ValueOrDie();
  const std::vector<ItemId> want_items = naive.Items();
  for (AlgorithmKind kind : AllAlgorithmKinds()) {
    if (kind == AlgorithmKind::kTput && scorer.name() != "sum") {
      continue;
    }
    const Result<TopKResult> result =
        MakeAlgorithm(kind, options)->Execute(db, query);
    ASSERT_TRUE(result.ok()) << ToString(kind) << " " << label << ": "
                             << result.status().ToString();
    const TopKResult& got = result.ValueUnsafe();
    ASSERT_EQ(got.items.size(), want_items.size()) << ToString(kind);
    for (size_t i = 0; i < want_items.size(); ++i) {
      ASSERT_EQ(got.items[i].item, want_items[i])
          << ToString(kind) << " rank " << i << " " << label
          << " (exact item sequence, not just scores)";
      ASSERT_NEAR(got.items[i].score, naive.items[i].score, 1e-9)
          << ToString(kind) << " rank " << i << " " << label;
    }
  }
}

class FuzzDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// The grid of the issue: three distributions x tie injection x m in
// {1, 2, 5} x k in {1, 2, n-1, n}, exact item sequences for all seven.
TEST_P(FuzzDifferentialTest, ExactResultSetsAcrossGrid) {
  Rng rng(GetParam());
  SumScorer sum;
  MinScorer min;
  AverageScorer average;
  const Scorer* scorers[] = {&sum, &min, &average};

  for (Distribution dist : {Distribution::kUniform, Distribution::kGaussian,
                            Distribution::kCorrelated}) {
    for (size_t m : {size_t{1}, size_t{2}, size_t{5}}) {
      for (bool ties : {false, true}) {
        const size_t n = 8 + rng.NextBounded(33);  // 8 .. 40
        const Database db = MakeFuzzDatabase(&rng, n, m, dist, ties);
        size_t ks[] = {1, 2, n - 1, n};
        for (size_t k : ks) {
          if (k < 1 || k > n) {
            continue;
          }
          for (const Scorer* scorer : scorers) {
            ExpectAllAlgorithmsExactlyMatchNaive(
                db, k, *scorer,
                std::string(Name(dist)) + (ties ? "+ties" : "") + " n=" +
                    std::to_string(n) + " m=" + std::to_string(m) + " k=" +
                    std::to_string(k) + " " + scorer->name());
          }
        }
      }
    }
  }
}

TEST_P(FuzzDifferentialTest, ExactResultSetsOnNastyDatabases) {
  Rng rng(GetParam() ^ 0x5eed);
  SumScorer sum;
  MinScorer min;
  MaxScorer max;
  AverageScorer average;
  const Scorer* scorers[] = {&sum, &min, &max, &average};
  for (int round = 0; round < 25; ++round) {
    const Database db = RandomNastyDatabase(&rng);
    const size_t n = db.num_items();
    const size_t k = 1 + rng.NextBounded(n);  // anywhere in [1, n]
    for (const Scorer* scorer : scorers) {
      ExpectAllAlgorithmsExactlyMatchNaive(
          db, k, *scorer,
          "nasty n=" + std::to_string(n) + " m=" +
              std::to_string(db.num_lists()) + " k=" + std::to_string(k) +
              " " + scorer->name());
    }
  }
}

TEST_P(FuzzDifferentialTest, TaAndBpaThresholdsAreMonotoneUnderFuzz) {
  Rng rng(GetParam() ^ 0x7777);
  SumScorer sum;
  AlgorithmOptions options;
  options.collect_trace = true;
  for (int round = 0; round < 15; ++round) {
    const Database db = RandomNastyDatabase(&rng);
    options.score_floor = DeriveScoreFloor(db);
    const size_t k = 1 + rng.NextBounded(db.num_items());
    for (AlgorithmKind kind : {AlgorithmKind::kTa, AlgorithmKind::kBpa}) {
      const TopKResult result = MakeAlgorithm(kind, options)
                                    ->Execute(db, TopKQuery{k, &sum})
                                    .ValueOrDie();
      for (size_t i = 1; i < result.trace.size(); ++i) {
        ASSERT_LE(result.trace[i].threshold, result.trace[i - 1].threshold)
            << ToString(kind) << " threshold rose at row " << i;
      }
    }
  }
}

TEST_P(FuzzDifferentialTest, NraBoundsAreSoundUnderFuzz) {
  Rng rng(GetParam() ^ 0x4444);
  SumScorer sum;
  AlgorithmOptions options;
  options.collect_trace = true;
  for (int round = 0; round < 15; ++round) {
    const Database db = RandomNastyDatabase(&rng);
    options.score_floor = DeriveScoreFloor(db);
    const size_t k = 1 + rng.NextBounded(db.num_items());
    const TopKResult result = MakeAlgorithm(AlgorithmKind::kNra, options)
                                  ->Execute(db, TopKQuery{k, &sum})
                                  .ValueOrDie();
    ASSERT_FALSE(result.trace.empty());
    for (size_t i = 1; i < result.trace.size(); ++i) {
      // Unseen-item upper bound (f over the last seen row) never grows.
      ASSERT_LE(result.trace[i].threshold, result.trace[i - 1].threshold)
          << "NRA unseen upper bound rose at check " << i;
      // The k-th best lower bound never shrinks once the heap is full.
      if (!std::isnan(result.trace[i - 1].kth_score)) {
        ASSERT_FALSE(std::isnan(result.trace[i].kth_score));
        ASSERT_GE(result.trace[i].kth_score + 1e-12,
                  result.trace[i - 1].kth_score)
            << "NRA k-th lower bound shrank at check " << i;
      }
    }
    // Lower bounds never overshoot the truth: the final k-th lower bound is
    // at most the exact k-th overall score.
    const StopRuleTrace& last = result.trace.back();
    if (!std::isnan(last.kth_score)) {
      ASSERT_LE(last.kth_score, result.items.back().score + 1e-9);
    }
  }
}

TEST_P(FuzzDifferentialTest, DominanceInvariantsHold) {
  Rng rng(GetParam() ^ 0xabcdef);
  SumScorer sum;
  for (int round = 0; round < 25; ++round) {
    const Database db = RandomNastyDatabase(&rng);
    const size_t k = 1 + rng.NextBounded(db.num_items());
    const TopKQuery query{k, &sum};
    const TopKResult ta =
        MakeAlgorithm(AlgorithmKind::kTa)->Execute(db, query).ValueOrDie();
    const TopKResult bpa =
        MakeAlgorithm(AlgorithmKind::kBpa)->Execute(db, query).ValueOrDie();
    const TopKResult bpa2 =
        MakeAlgorithm(AlgorithmKind::kBpa2)->Execute(db, query).ValueOrDie();
    ASSERT_LE(bpa.stats.sorted_accesses, ta.stats.sorted_accesses);
    ASSERT_LE(bpa.execution_cost, ta.execution_cost);
    ASSERT_LE(bpa2.stats.TotalAccesses(), bpa.stats.TotalAccesses());
  }
}

TEST_P(FuzzDifferentialTest, Bpa2NeverReaccessesUnderFuzz) {
  Rng rng(GetParam() ^ 0x123456);
  SumScorer sum;
  AlgorithmOptions options;
  options.audit_accesses = true;
  for (int round = 0; round < 15; ++round) {
    const Database db = RandomNastyDatabase(&rng);
    const size_t k = 1 + rng.NextBounded(db.num_items());
    const TopKResult result = MakeAlgorithm(AlgorithmKind::kBpa2, options)
                                  ->Execute(db, TopKQuery{k, &sum})
                                  .ValueOrDie();
    for (uint32_t touches : result.max_touches_per_list) {
      ASSERT_LE(touches, 1u);
    }
  }
}

// Governance/fault-injection sweep: random access budgets and random fault
// schedules (transient faults, latency spikes, list deaths) over random
// databases, for all seven algorithms. Whatever the degradation, the
// θ-certificate must stay sound against the naive oracle's true scores:
// every returned score is a lower bound, every unreturned item's true score
// is covered by unreturned_upper_bound (and by θ · kth_lower_bound), and an
// exact completion must BE the exact deterministic top-k. A rerun on a fresh
// context must reproduce the partial result byte-for-byte.
TEST_P(FuzzDifferentialTest, GovernedAndFaultedBoundsAreSoundVsNaive) {
  Rng rng(GetParam() ^ 0x60f3);
  SumScorer sum;
  const double eps = 1e-9;
  for (int round = 0; round < 12; ++round) {
    const Distribution dist =
        round % 2 == 0 ? Distribution::kUniform : Distribution::kGaussian;
    const size_t n = 16 + rng.NextBounded(49);  // 16 .. 64
    const size_t m = 1 + rng.NextBounded(5);
    const Database db = MakeFuzzDatabase(&rng, n, m, dist, round % 3 == 0);
    const size_t k = 1 + rng.NextBounded(n);
    const TopKQuery query{k, &sum};
    AlgorithmOptions options;
    options.score_floor = DeriveScoreFloor(db);
    options.governor.total_access_budget = 1 + rng.NextBounded(400);
    options.fault_plan.seed = rng.NextBounded(1 << 20);
    options.fault_plan.transient_rate = 0.25 * rng.NextDouble();
    options.fault_plan.spike_rate = 0.25 * rng.NextDouble();
    options.fault_plan.spike_ms = 0.01;
    options.fault_plan.death_rate =
        round % 2 == 0 ? 0.4 * rng.NextDouble() : 0.0;
    options.fault_plan.death_min_accesses = 1;
    options.fault_plan.death_max_accesses = 1 + rng.NextBounded(64);

    const TopKResult naive = MakeAlgorithm(AlgorithmKind::kNaive, options)
                                 ->Execute(db, query)
                                 .ValueOrDie();
    std::vector<Score> truth(n);
    std::vector<Score> locals(m);
    for (ItemId item = 0; item < static_cast<ItemId>(n); ++item) {
      for (size_t j = 0; j < m; ++j) {
        locals[j] = db.ScoreOf(j, item);
      }
      truth[item] = sum.Combine(locals.data(), m);
    }

    const std::string label = "round " + std::to_string(round) + " n=" +
                              std::to_string(n) + " m=" + std::to_string(m) +
                              " k=" + std::to_string(k) + " budget=" +
                              std::to_string(options.governor.total_access_budget);
    for (AlgorithmKind kind : AllAlgorithmKinds()) {
      if (kind == AlgorithmKind::kNaive) {
        continue;
      }
      SCOPED_TRACE(ToString(kind) + " " + label);
      const Result<TopKResult> run = MakeAlgorithm(kind, options)->Execute(db, query);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const TopKResult& got = run.ValueUnsafe();
      ASSERT_LE(got.items.size(), k);
      ASSERT_GE(got.theta, 1.0);
      if (got.completion == Completion::kExact) {
        ASSERT_EQ(got.theta, 1.0);
        ASSERT_EQ(got.Items(), naive.Items());
        for (size_t i = 0; i < k; ++i) {
          ASSERT_NEAR(got.items[i].score, naive.items[i].score, eps);
        }
      } else {
        std::vector<bool> returned(n, false);
        for (const ResultItem& item : got.items) {
          returned[item.item] = true;
          ASSERT_LE(item.score, truth[item.item] + eps)
              << "returned score is not a lower bound for item " << item.item;
        }
        for (ItemId item = 0; item < static_cast<ItemId>(n); ++item) {
          if (returned[item]) {
            continue;
          }
          ASSERT_LE(truth[item], got.unreturned_upper_bound + eps)
              << "unreturned item " << item << " beats the certificate";
          if (got.kth_lower_bound > 0.0) {
            ASSERT_LE(truth[item], got.theta * got.kth_lower_bound + eps)
                << "theta fails to cover unreturned item " << item;
          }
        }
      }
      // Deterministic degradation: a fresh run reproduces the partial result
      // byte-for-byte (same seed, same schedule, same budget).
      const TopKResult again =
          MakeAlgorithm(kind, options)->Execute(db, query).ValueOrDie();
      ASSERT_EQ(again.completion, got.completion);
      ASSERT_EQ(again.Items(), got.Items());
      ASSERT_EQ(again.Scores(), got.Scores());
      ASSERT_EQ(again.theta, got.theta);
      ASSERT_EQ(again.kth_lower_bound, got.kth_lower_bound);
      ASSERT_EQ(again.unreturned_upper_bound, got.unreturned_upper_bound);
      ASSERT_TRUE(again.stats == got.stats);
      ASSERT_EQ(again.failed_over, got.failed_over);
      ASSERT_EQ(again.dead_lists, got.dead_lists);
    }
  }
}

// The group walks' pruning margin (SummationErrorMargin, 2^-38 * sum|s|) at
// magnitudes the generated workloads never reach: huge, tiny and subnormal
// scores, and negative floors far from zero. Under SumScorer NRA and CA take
// the margined group walks; under an all-ones WeightedSumScorer, whose
// Combine is the same left-to-right sum, they take the exact per-candidate
// sweeps. Both runs must make the same decisions and return Naive's items.
TEST(MarginPropertyTest, GroupWalksEqualExactSweepsAtAdversarialMagnitudes) {
  struct Magnitude {
    const char* name;
    double scale;
    double shift;
  };
  const Magnitude magnitudes[] = {
      {"x1e300", 1e300, 0.0},
      {"x1e-300", 1e-300, 0.0},
      {"x1e-310", 1e-310, 0.0},  // subnormal
      {"-1e6", 1.0, -1e6},
      {"x1e150-1e150", 1e150, -1e150},
  };
  SumScorer sum;
  ExecutionContext context;
  const auto run = [&](AlgorithmKind kind, const AlgorithmOptions& options,
                       const Database& db, const TopKQuery& query) {
    TopKResult result;
    EXPECT_TRUE(MakeAlgorithm(kind, options)
                    ->ExecuteInto(db, query, &context, &result)
                    .ok());
    return result;
  };
  for (size_t m : {size_t{2}, size_t{5}, size_t{64}}) {
    const WeightedSumScorer ones =
        WeightedSumScorer::Make(std::vector<double>(m, 1.0)).ValueOrDie();
    const size_t n = m == 64 ? 50 : 300;
    for (const Magnitude& magnitude : magnitudes) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        const bool ties = seed % 2 == 0;  // quantized to 8 levels
        Rng rng(seed);
        std::vector<std::vector<Score>> scores(n, std::vector<Score>(m));
        for (std::vector<Score>& row : scores) {
          for (Score& score : row) {
            double u = rng.NextDouble();
            if (ties) {
              u = std::floor(u * 8.0) / 8.0;
            }
            score = u * magnitude.scale + magnitude.shift;
          }
        }
        const Database db = Database::FromScoreMatrix(scores).ValueOrDie();
        AlgorithmOptions options;
        options.score_floor = DeriveScoreFloor(db);
        for (size_t k : {size_t{1}, size_t{10}, size_t{50}}) {
          const std::string label = std::string(magnitude.name) +
                                    " m=" + std::to_string(m) +
                                    " seed=" + std::to_string(seed) +
                                    " k=" + std::to_string(k);
          const std::vector<ItemId> want =
              run(AlgorithmKind::kNaive, options, db, TopKQuery{k, &sum})
                  .Items();
          for (AlgorithmKind kind : {AlgorithmKind::kNra, AlgorithmKind::kCa}) {
            SCOPED_TRACE(ToString(kind) + " " + label);
            const TopKResult walked =
                run(kind, options, db, TopKQuery{k, &sum});
            const TopKResult swept =
                run(kind, options, db, TopKQuery{k, &ones});
            ASSERT_EQ(walked.Items(), want);
            ASSERT_EQ(swept.items.size(), walked.items.size());
            for (size_t i = 0; i < walked.items.size(); ++i) {
              EXPECT_EQ(swept.items[i].item, walked.items[i].item);
              EXPECT_EQ(swept.items[i].score, walked.items[i].score);
            }
            EXPECT_EQ(swept.stop_position, walked.stop_position);
            EXPECT_EQ(swept.stats.sorted_accesses,
                      walked.stats.sorted_accesses);
            EXPECT_EQ(swept.stats.random_accesses,
                      walked.stats.random_accesses);
            EXPECT_EQ(swept.stats.direct_accesses,
                      walked.stats.direct_accesses);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace topk
