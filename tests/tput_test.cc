// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/tput_loop.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/algorithms.h"
#include "core/execution_context.h"
#include "gen/database_generator.h"
#include "gen/paper_fixtures.h"
#include "lists/scorer.h"

namespace topk {
namespace {

TEST(TputTest, MatchesNaiveOnUniform) {
  const Database db = MakeUniformDatabase(500, 5, 99);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  const auto naive =
      MakeAlgorithm(AlgorithmKind::kNaive)->Execute(db, query).ValueOrDie();
  const auto tput =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();
  for (size_t i = 0; i < query.k; ++i) {
    EXPECT_DOUBLE_EQ(tput.items[i].score, naive.items[i].score);
  }
}

TEST(TputTest, MatchesNaiveOnCorrelated) {
  CorrelatedConfig config;
  config.n = 400;
  config.m = 4;
  config.alpha = 0.01;
  config.seed = 5;
  const Database db = MakeCorrelatedDatabase(config).ValueOrDie();
  SumScorer sum;
  const TopKQuery query{20, &sum};
  const auto naive =
      MakeAlgorithm(AlgorithmKind::kNaive)->Execute(db, query).ValueOrDie();
  const auto tput =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();
  for (size_t i = 0; i < query.k; ++i) {
    EXPECT_DOUBLE_EQ(tput.items[i].score, naive.items[i].score);
  }
}

TEST(TputTest, RejectsNonSumScorer) {
  const Database db = MakeUniformDatabase(50, 3, 1);
  MinScorer min;
  const auto status =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, TopKQuery{3, &min})
          .status();
  EXPECT_TRUE(status.IsNotImplemented());
}

TEST(TputTest, RejectsScoresBelowFloor) {
  const Database db = MakeGaussianDatabase(50, 3, 1);  // has negatives
  SumScorer sum;
  const auto status =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, TopKQuery{3, &sum})
          .status();
  EXPECT_TRUE(status.IsInvalid());
}

TEST(TputTest, AcceptsGaussianWithExplicitFloor) {
  const Database db = MakeGaussianDatabase(200, 3, 2);
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
  const auto tput = MakeAlgorithm(AlgorithmKind::kTput, options)
                        ->Execute(db, query)
                        .ValueOrDie();
  for (size_t i = 0; i < query.k; ++i) {
    EXPECT_DOUBLE_EQ(tput.items[i].score, naive.items[i].score);
  }
}

TEST(TputTest, UsesThreePhaseAccessPattern) {
  const Database db = MakeUniformDatabase(1000, 4, 3);
  SumScorer sum;
  const auto result =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, TopKQuery{10, &sum})
          .ValueOrDie();
  // Phase 1+2 do sorted accesses; phase 3 does random accesses.
  EXPECT_GT(result.stats.sorted_accesses, 0u);
  EXPECT_EQ(result.stats.direct_accesses, 0u);
  // Phase 1 reads at least k rows in every list.
  EXPECT_GE(result.stats.sorted_accesses, 4u * 10u);
}

// Phase 3 sweeps the pool once; no phase consults a group index, so the
// pool keeps none.
TEST(TputTest, PoolKeepsNoGroupIndex) {
  const Database db = MakeUniformDatabase(1000, 4, 3);
  SumScorer sum;
  ExecutionContext context;
  TopKResult result;
  ASSERT_TRUE(MakeAlgorithm(AlgorithmKind::kTput)
                  ->ExecuteInto(db, TopKQuery{10, &sum}, &context, &result)
                  .ok());
  EXPECT_GT(context.pool().size(), 0u);
  EXPECT_EQ(context.pool().num_groups(), 0u);
}

// Phase 3 resolves its survivors in slot (first-seen) order. The order
// decides how many random reads a random-access budget admits before it
// trips (the governor is charged every 32 survivors); the anytime answer is
// the threshold heap phase 2 left, so it does not depend on the order.
TEST(TputTest, GovernedPhaseThreeResolvesSurvivorsInSlotOrder) {
  const Database db = MakeUniformDatabase(200, 5, 1);
  SumScorer sum;
  const TopKQuery query{100, &sum};
  AlgorithmOptions options;
  options.governor.random_access_budget = 200;
  const TopKResult result = MakeAlgorithm(AlgorithmKind::kTput, options)
                                ->Execute(db, query)
                                .ValueOrDie();
  EXPECT_EQ(result.completion, Completion::kAccessBudget);
  EXPECT_EQ(result.theta, 1.4238038041889267);
  EXPECT_EQ(result.stats.sorted_accesses, 625u);
  EXPECT_EQ(result.stats.random_accesses, 207u);

  // Tripped at phase 3's first charge instead: the same certified answer.
  options.governor.random_access_budget = 1;
  const TopKResult first = MakeAlgorithm(AlgorithmKind::kTput, options)
                               ->Execute(db, query)
                               .ValueOrDie();
  EXPECT_EQ(first.completion, Completion::kAccessBudget);
  EXPECT_EQ(first.stats.random_accesses, 52u);
  ASSERT_EQ(result.items.size(), query.k);
  EXPECT_EQ(result.Items(), first.Items());
  EXPECT_EQ(result.theta, first.theta);
}

// A governed run that trips in phase 1 or 2 certifies the threshold heap,
// which the loop publishes in one sweep before it exits. The pins were
// captured when every recorded row was offered to the heap at once, so they
// hold the sweep to the per-row answer: items, certified scores, θ, both
// certificate bounds, the stop position and the access counts.
struct GovernedTputPin {
  Completion completion;
  Position stop_position;
  uint64_t sorted_accesses;
  double theta;
  double kth_lower_bound;
  double unreturned_upper_bound;
  std::vector<ResultItem> items;
};

void ExpectGovernedTput(size_t n, size_t m, uint64_t seed, size_t k,
                        const GovernorLimits& limits,
                        const GovernedTputPin& pin) {
  const Database db = MakeUniformDatabase(n, m, seed);
  SumScorer sum;
  AlgorithmOptions options;
  options.governor = limits;
  const TopKResult result = MakeAlgorithm(AlgorithmKind::kTput, options)
                                ->Execute(db, TopKQuery{k, &sum})
                                .ValueOrDie();
  EXPECT_EQ(result.completion, pin.completion);
  EXPECT_EQ(result.stop_position, pin.stop_position);
  EXPECT_EQ(result.stats.sorted_accesses, pin.sorted_accesses);
  EXPECT_EQ(result.stats.random_accesses, 0u);
  EXPECT_EQ(result.stats.direct_accesses, 0u);
  EXPECT_EQ(result.theta, pin.theta);
  EXPECT_EQ(result.kth_lower_bound, pin.kth_lower_bound);
  EXPECT_EQ(result.unreturned_upper_bound, pin.unreturned_upper_bound);
  EXPECT_EQ(result.items, pin.items);
}

// sorted_access_budget <= k·m trips at phase 1's closing charge, before τ1.
TEST(TputTest, GovernedPhaseOneTripIsPinned) {
  GovernorLimits limits;
  limits.sorted_access_budget = 60;
  ExpectGovernedTput(
      2000, 5, 3, 20, limits,
      {Completion::kAccessBudget,
       20,
       100,
       4.9687533169835643,
       0.99871960640070467,
       4.9623913570400209,
       {{1190, 1.9943589561903541},  {935, 0.99999932257283852},
        {768, 0.999969868548644},    {1313, 0.99987239097381786},
        {1823, 0.99982055602599451}, {394, 0.99973467434335772},
        {163, 0.99970840780441161},  {1043, 0.99967370348618745},
        {350, 0.99936462595457221},  {1271, 0.99936230193611708},
        {236, 0.9993269433559252},   {1547, 0.99928994967285767},
        {476, 0.99928726355024522},  {1345, 0.99923447273974608},
        {55, 0.99911980550474389},   {1000, 0.99904878083063531},
        {421, 0.99888252652850895},  {1554, 0.99887401148239452},
        {741, 0.99872197634572668},  {68, 0.99871960640070467}}});
}

// The drain of list 0 trips at its charge on row 768.
TEST(TputTest, GovernedMidDrainTripIsPinned) {
  GovernorLimits limits;
  limits.sorted_access_budget = 600;
  ExpectGovernedTput(
      5000, 5, 7, 10, limits,
      {Completion::kAccessBudget,
       768,
       808,
       4.9926933225671606,
       0.99995912922803132,
       4.9924892673368646,
       {{2751, 1.9887065913659776},
        {4873, 1.9869535932168345},
        {965, 1.9828170151873068},
        {849, 1.9638391323400364},
        {1260, 1.9576059130269987},
        {318, 1.9487678276763334},
        {2042, 1.9279323677622351},
        {3148, 1.9078578043224819},
        {413, 0.9999670459691371},
        {3283, 0.99995912922803132}}});
}

// 20,000 bytes hold 250 candidates at m = 5; the pool outgrows them by the
// drain's first charge, on row 256 of list 0.
TEST(TputTest, GovernedPoolByteTripIsPinned) {
  GovernorLimits limits;
  limits.pool_byte_budget = 20000;
  ExpectGovernedTput(
      5000, 5, 7, 10, limits,
      {Completion::kMemoryBudget,
       256,
       296,
       4.9926587052048701,
       0.99983366973015642,
       4.9918282749351963,
       {{2751, 1.9887065913659776},
        {4873, 1.9869535932168345},
        {965, 1.9828170151873068},
        {849, 1.9638391323400364},
        {1260, 1.9576059130269987},
        {318, 1.9487678276763334},
        {413, 0.9999670459691371},
        {3283, 0.99995912922803132},
        {3942, 0.99988559450212144},
        {4482, 0.99983366973015642}}});
}

TEST(TputTest, WorksOnPaperFigure1) {
  const Database db = MakeFigure1Database();
  SumScorer sum;
  const auto result =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, TopKQuery{3, &sum})
          .ValueOrDie();
  EXPECT_EQ(result.items[0].item, 7u);  // d8
  EXPECT_DOUBLE_EQ(result.items[0].score, 71.0);
}

TEST(TputTest, KEqualsNReturnsEverything) {
  const Database db = MakeUniformDatabase(30, 3, 4);
  SumScorer sum;
  const auto result =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, TopKQuery{30, &sum})
          .ValueOrDie();
  EXPECT_EQ(result.items.size(), 30u);
}

// The paper's Section 7 remark: a list full of values just above TPUT's
// threshold forces TPUT to fetch (nearly) the whole list, while BPA2 stays
// adaptive. Construct such an adversarial database.
TEST(TputTest, AdversarialFlatListForcesDeepScan) {
  const size_t n = 500;
  const size_t m = 3;
  std::vector<std::vector<Score>> scores(n, std::vector<Score>(m));
  Rng rng(12);
  for (size_t i = 0; i < n; ++i) {
    scores[i][0] = rng.NextDouble();       // normal list
    scores[i][1] = rng.NextDouble();       // normal list
    scores[i][2] = 0.90 + 1e-6 * i;        // flat list, all above τ1/m
  }
  const Database db = Database::FromScoreMatrix(scores).ValueOrDie();
  SumScorer sum;
  const TopKQuery query{5, &sum};
  const auto tput =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();
  const auto bpa2 =
      MakeAlgorithm(AlgorithmKind::kBpa2)->Execute(db, query).ValueOrDie();
  // Correct on both, but TPUT pays far more accesses.
  const auto naive =
      MakeAlgorithm(AlgorithmKind::kNaive)->Execute(db, query).ValueOrDie();
  for (size_t i = 0; i < query.k; ++i) {
    EXPECT_DOUBLE_EQ(tput.items[i].score, naive.items[i].score);
    EXPECT_DOUBLE_EQ(bpa2.items[i].score, naive.items[i].score);
  }
  EXPECT_GT(tput.stats.TotalAccesses(), bpa2.stats.TotalAccesses());
}

}  // namespace
}  // namespace topk
