// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Query governance: deadlines, access/memory budgets, cooperative
// cancellation, fault injection, and the anytime-result contract. The core
// properties certified here:
//
//  * Determinism — a governed or fault-injected run with a fixed seed and
//    budget produces byte-identical partial results (items, scores, theta,
//    completion, access counts) across reruns and across fresh vs warmed
//    contexts.
//  * Soundness — every returned score is a lower bound on the item's true
//    overall score, every unreturned item's true score is bounded by
//    unreturned_upper_bound, and theta >= 1 relates the two per Fagin.
//  * Absorption — transient faults and latency spikes never change the
//    answer (only permanent deaths remove data).
//  * StrictMode — degradation surfaces as a Status error instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithms.h"
#include "core/candidate_bounds.h"
#include "gen/database_generator.h"
#include "lists/scorer.h"

namespace topk {
namespace {

constexpr size_t kN = 4000;
constexpr size_t kM = 4;
constexpr size_t kK = 25;

// Every governed algorithm; Naive is the oracle and ignores governance.
const std::vector<AlgorithmKind>& GovernedKinds() {
  static const std::vector<AlgorithmKind> kKinds = {
      AlgorithmKind::kFa,   AlgorithmKind::kTa,   AlgorithmKind::kBpa,
      AlgorithmKind::kBpa2, AlgorithmKind::kTput, AlgorithmKind::kNra,
      AlgorithmKind::kCa,
  };
  return kKinds;
}

Database MakeDb() { return MakeUniformDatabase(kN, kM, /*seed=*/42); }

double TrueScore(const Database& db, const Scorer& scorer,
                 std::vector<Score>* scratch, ItemId item) {
  for (size_t i = 0; i < db.num_lists(); ++i) {
    (*scratch)[i] = db.ScoreOf(i, item);
  }
  return scorer.Combine(scratch->data(), db.num_lists());
}

TopKResult MustRun(AlgorithmKind kind, const AlgorithmOptions& options,
                   const Database& db, const TopKQuery& query,
                   ExecutionContext* context) {
  auto algorithm = MakeAlgorithm(kind, options);
  auto result = algorithm->Execute(db, query, context);
  EXPECT_TRUE(result.ok()) << ToString(kind) << ": "
                           << result.status().ToString();
  return std::move(result).ValueOrDie();
}

// Sound anytime result: returned scores are certified lower bounds, the
// unreturned bound covers every item not in the answer, and theta ties the
// two together (Fagin's theta-approximation).
void CheckAnytimeSoundness(AlgorithmKind kind, const Database& db,
                           const Scorer& scorer, const TopKResult& result) {
  SCOPED_TRACE(ToString(kind));
  const double eps = 1e-9;
  std::vector<Score> scratch(db.num_lists());
  ASSERT_GE(result.theta, 1.0);
  std::vector<bool> returned(db.num_items(), false);
  for (const ResultItem& item : result.items) {
    returned[item.item] = true;
    const double truth = TrueScore(db, scorer, &scratch, item.item);
    EXPECT_LE(item.score, truth + eps)
        << "returned score must be a lower bound for item " << item.item;
    EXPECT_GE(truth + eps, result.kth_lower_bound)
        << "returned item " << item.item << " below the certified k-th bound";
  }
  for (ItemId item = 0; item < static_cast<ItemId>(db.num_items()); ++item) {
    if (returned[item]) {
      continue;
    }
    const double truth = TrueScore(db, scorer, &scratch, item);
    ASSERT_LE(truth, result.unreturned_upper_bound + eps)
        << "unreturned item " << item << " exceeds the certified upper bound";
    if (result.kth_lower_bound > 0.0) {
      ASSERT_LE(truth, result.theta * result.kth_lower_bound + eps)
          << "theta does not cover unreturned item " << item;
    }
  }
}

// Byte-identical outcome: the determinism contract for governed and
// fault-injected runs.
void ExpectSameOutcome(const TopKResult& a, const TopKResult& b) {
  EXPECT_EQ(a.completion, b.completion);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].item, b.items[i].item);
    EXPECT_EQ(a.items[i].score, b.items[i].score);
  }
  EXPECT_EQ(a.theta, b.theta);
  EXPECT_EQ(a.kth_lower_bound, b.kth_lower_bound);
  EXPECT_EQ(a.unreturned_upper_bound, b.unreturned_upper_bound);
  EXPECT_TRUE(a.stats == b.stats);
  EXPECT_EQ(a.stop_position, b.stop_position);
  EXPECT_EQ(a.failed_over, b.failed_over);
  EXPECT_EQ(a.dead_lists, b.dead_lists);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
}

TEST(CompletionTest, ToStringCoversEveryReason) {
  EXPECT_STREQ(ToString(Completion::kExact), "exact");
  EXPECT_STREQ(ToString(Completion::kDeadline), "deadline");
  EXPECT_STREQ(ToString(Completion::kAccessBudget), "access-budget");
  EXPECT_STREQ(ToString(Completion::kMemoryBudget), "memory-budget");
  EXPECT_STREQ(ToString(Completion::kCancelled), "cancelled");
  EXPECT_STREQ(ToString(Completion::kListFailure), "list-failure");
}

TEST(QueryGovernorTest, UnarmedChargeIsFree) {
  QueryGovernor governor;
  AccessStats stats;
  stats.sorted_accesses = uint64_t{1} << 40;
  EXPECT_EQ(governor.Charge(stats, size_t{1} << 40, 1e12), Completion::kExact);
}

TEST(QueryGovernorTest, CancellationWorksUnarmedAndIsClearedByArm) {
  QueryGovernor governor;
  governor.RequestCancel();
  EXPECT_EQ(governor.Charge(AccessStats{}, 0, 0.0), Completion::kCancelled);
  governor.Arm(GovernorLimits{});  // arming clears the stale cancel
  EXPECT_EQ(governor.Charge(AccessStats{}, 0, 0.0), Completion::kExact);
}

TEST(QueryGovernorTest, BudgetKindsTripIndependently) {
  QueryGovernor governor;
  GovernorLimits limits;
  limits.sorted_access_budget = 10;
  limits.random_access_budget = 20;
  limits.total_access_budget = 25;
  limits.pool_byte_budget = 1000;
  governor.Arm(limits);

  AccessStats stats;
  EXPECT_EQ(governor.Charge(stats, 0, 0.0), Completion::kExact);
  // Direct accesses (BPA2) count toward the sorted budget.
  stats.sorted_accesses = 4;
  stats.direct_accesses = 6;
  EXPECT_EQ(governor.Charge(stats, 0, 0.0), Completion::kAccessBudget);
  stats = AccessStats{};
  stats.random_accesses = 20;
  EXPECT_EQ(governor.Charge(stats, 0, 0.0), Completion::kAccessBudget);
  // Total budget: every kind below its own cap, the sum over it.
  stats = AccessStats{};
  stats.sorted_accesses = 5;
  stats.direct_accesses = 4;
  stats.random_accesses = 19;
  EXPECT_EQ(governor.Charge(stats, 0, 0.0), Completion::kAccessBudget);
  stats = AccessStats{};
  EXPECT_EQ(governor.Charge(stats, 999, 0.0), Completion::kExact);
  EXPECT_EQ(governor.Charge(stats, 1000, 0.0), Completion::kMemoryBudget);
}

TEST(QueryGovernorTest, VirtualLatencyCountsAgainstTheDeadline) {
  QueryGovernor governor;
  GovernorLimits limits;
  limits.deadline_ms = 1e6;  // far away on the wall clock
  governor.Arm(limits);
  EXPECT_EQ(governor.Charge(AccessStats{}, 0, 0.0), Completion::kExact);
  EXPECT_EQ(governor.Charge(AccessStats{}, 0, 2e6), Completion::kDeadline);
}

TEST(GovernanceTest, AccessBudgetTripsDeterministicallyAcrossContexts) {
  const Database db = MakeDb();
  SumScorer scorer;
  const TopKQuery query{kK, &scorer};
  for (AlgorithmKind kind : GovernedKinds()) {
    SCOPED_TRACE(ToString(kind));
    AlgorithmOptions options;
    options.score_floor = DeriveScoreFloor(db);
    options.governor.total_access_budget = 150;
    ExecutionContext context;
    const TopKResult first = MustRun(kind, options, db, query, &context);
    EXPECT_EQ(first.completion, Completion::kAccessBudget);
    EXPECT_LE(first.items.size(), query.k);
    CheckAnytimeSoundness(kind, db, scorer, first);

    // Byte-identical on a warmed context and on a fresh one.
    const TopKResult warmed = MustRun(kind, options, db, query, &context);
    ExpectSameOutcome(first, warmed);
    ExecutionContext fresh;
    const TopKResult refreshed = MustRun(kind, options, db, query, &fresh);
    ExpectSameOutcome(first, refreshed);
  }
}

TEST(GovernanceTest, GenerousLimitsLeaveTheAnswerExactAndUntouched) {
  const Database db = MakeDb();
  SumScorer scorer;
  const TopKQuery query{kK, &scorer};
  for (AlgorithmKind kind : GovernedKinds()) {
    SCOPED_TRACE(ToString(kind));
    AlgorithmOptions plain;
    plain.score_floor = DeriveScoreFloor(db);
    AlgorithmOptions governed = plain;
    governed.governor.total_access_budget = uint64_t{1} << 40;
    governed.governor.deadline_ms = 1e9;
    governed.governor.pool_byte_budget = size_t{1} << 40;
    ExecutionContext context;
    const TopKResult baseline = MustRun(kind, plain, db, query, &context);
    const TopKResult governed_result =
        MustRun(kind, governed, db, query, &context);
    EXPECT_EQ(governed_result.completion, Completion::kExact);
    EXPECT_EQ(governed_result.theta, 1.0);
    ExpectSameOutcome(baseline, governed_result);
  }
}

TEST(GovernanceTest, DeadlineTripsViaInjectedLatency) {
  // Deterministic deadline: every access suffers a 10ms virtual spike while
  // the deadline is 5ms, so the first round boundary trips without depending
  // on the wall clock.
  const Database db = MakeDb();
  SumScorer scorer;
  const TopKQuery query{kK, &scorer};
  for (AlgorithmKind kind : GovernedKinds()) {
    SCOPED_TRACE(ToString(kind));
    AlgorithmOptions options;
    options.score_floor = DeriveScoreFloor(db);
    options.governor.deadline_ms = 5.0;
    options.fault_plan.spike_rate = 1.0;
    options.fault_plan.spike_ms = 10.0;
    ExecutionContext context;
    const TopKResult result = MustRun(kind, options, db, query, &context);
    EXPECT_EQ(result.completion, Completion::kDeadline);
    EXPECT_GT(result.stats.TotalAccesses(), 0u);
    CheckAnytimeSoundness(kind, db, scorer, result);
    const TopKResult rerun = MustRun(kind, options, db, query, &context);
    ExpectSameOutcome(result, rerun);
  }
}

TEST(GovernanceTest, PoolByteBudgetTripsThePoolAlgorithms) {
  const Database db = MakeDb();
  SumScorer scorer;
  const TopKQuery query{kK, &scorer};
  for (AlgorithmKind kind :
       {AlgorithmKind::kNra, AlgorithmKind::kCa, AlgorithmKind::kTput}) {
    SCOPED_TRACE(ToString(kind));
    AlgorithmOptions options;
    options.score_floor = DeriveScoreFloor(db);
    options.governor.pool_byte_budget = 1;
    ExecutionContext context;
    const TopKResult result = MustRun(kind, options, db, query, &context);
    EXPECT_EQ(result.completion, Completion::kMemoryBudget);
    CheckAnytimeSoundness(kind, db, scorer, result);
  }
}

TEST(GovernanceTest, StrictModeConvertsDegradationIntoAnError) {
  const Database db = MakeDb();
  SumScorer scorer;
  const TopKQuery query{kK, &scorer};
  AlgorithmOptions options;
  options.score_floor = DeriveScoreFloor(db);
  options.governor.total_access_budget = 100;
  options.governor.strict = true;
  for (AlgorithmKind kind : GovernedKinds()) {
    SCOPED_TRACE(ToString(kind));
    ExecutionContext context;
    auto algorithm = MakeAlgorithm(kind, options);
    auto result = algorithm->Execute(db, query, &context);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsResourceExhausted())
        << result.status().ToString();
    EXPECT_NE(result.status().ToString().find("StrictMode"), std::string::npos)
        << result.status().ToString();
  }
}

TEST(GovernanceTest, StrictModeAcceptsExactCompletions) {
  const Database db = MakeDb();
  SumScorer scorer;
  const TopKQuery query{kK, &scorer};
  AlgorithmOptions options;
  options.score_floor = DeriveScoreFloor(db);
  options.governor.total_access_budget = uint64_t{1} << 40;
  options.governor.strict = true;
  for (AlgorithmKind kind : GovernedKinds()) {
    SCOPED_TRACE(ToString(kind));
    ExecutionContext context;
    const TopKResult result = MustRun(kind, options, db, query, &context);
    EXPECT_EQ(result.completion, Completion::kExact);
  }
}

TEST(GovernanceTest, CooperativeCancellationStopsARunningQuery) {
  // A second thread requests cancellation while a deep NRA scan runs. The
  // cancel flag is sticky until the next Arm, so even extreme scheduling
  // cannot lose the request — the run either observes it at a round boundary
  // (anytime result tagged kCancelled) or the cancel landed before arming
  // and the run stays exact. Both are legal; a cancelled run must carry
  // sound bounds.
  const Database db = MakeUniformDatabase(/*n=*/200000, /*m=*/4, /*seed=*/7);
  SumScorer scorer;
  const TopKQuery query{/*k=*/100, &scorer};
  AlgorithmOptions options;
  options.score_floor = DeriveScoreFloor(db);
  ExecutionContext context;
  auto algorithm = MakeAlgorithm(AlgorithmKind::kNra, options);
  std::thread canceller([&context] { context.governor().RequestCancel(); });
  auto result = algorithm->Execute(db, query, &context);
  canceller.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const TopKResult& run = result.ValueOrDie();
  if (run.completion != Completion::kExact) {
    EXPECT_EQ(run.completion, Completion::kCancelled);
    CheckAnytimeSoundness(AlgorithmKind::kNra, db, scorer, run);
  }
}

TEST(FaultInjectionTest, TransientFaultsAndSpikesNeverChangeTheAnswer) {
  const Database db = MakeDb();
  SumScorer scorer;
  const TopKQuery query{kK, &scorer};
  for (AlgorithmKind kind : GovernedKinds()) {
    SCOPED_TRACE(ToString(kind));
    AlgorithmOptions plain;
    plain.score_floor = DeriveScoreFloor(db);
    AlgorithmOptions shaken = plain;
    shaken.fault_plan.seed = 99;
    shaken.fault_plan.transient_rate = 0.5;
    shaken.fault_plan.max_retries = 4;
    shaken.fault_plan.spike_rate = 0.25;
    shaken.fault_plan.spike_ms = 0.5;
    ExecutionContext context;
    const TopKResult baseline = MustRun(kind, plain, db, query, &context);
    const TopKResult faulty = MustRun(kind, shaken, db, query, &context);
    EXPECT_EQ(faulty.completion, Completion::kExact);
    EXPECT_GT(faulty.fault_retries, 0u);
    EXPECT_EQ(faulty.dead_lists, 0u);
    EXPECT_FALSE(faulty.failed_over);
    // Same items, same scores, same access counts — faults were absorbed.
    EXPECT_EQ(baseline.Items(), faulty.Items());
    EXPECT_EQ(baseline.Scores(), faulty.Scores());
    EXPECT_TRUE(baseline.stats == faulty.stats);
  }
}

TEST(FaultInjectionTest, TargetedKillDegradesOrFailsOverDeterministically) {
  const Database db = MakeDb();
  SumScorer scorer;
  const TopKQuery query{kK, &scorer};
  AlgorithmOptions oracle_options;
  ExecutionContext oracle_context;
  const TopKResult oracle = MustRun(AlgorithmKind::kNaive, oracle_options, db,
                                    query, &oracle_context);
  for (AlgorithmKind kind : GovernedKinds()) {
    SCOPED_TRACE(ToString(kind));
    AlgorithmOptions options;
    options.score_floor = DeriveScoreFloor(db);
    options.fault_plan.kill_list = 1;
    options.fault_plan.kill_after_accesses = 40;
    ExecutionContext context;
    const TopKResult first = MustRun(kind, options, db, query, &context);
    EXPECT_EQ(first.dead_lists, 1u);
    // Random-access algorithms cannot serve the query without list 1 and
    // must have failed over to NRA over the survivors.
    if (kind != AlgorithmKind::kNra && kind != AlgorithmKind::kCa) {
      EXPECT_TRUE(first.failed_over);
    }
    if (first.completion == Completion::kExact) {
      // Exactness despite the death is legal when the stop rule certified
      // the answer over the survivors — then it must BE the exact top-k.
      ASSERT_EQ(first.items.size(), query.k);
      for (size_t i = 0; i < query.k; ++i) {
        EXPECT_EQ(first.items[i].item, oracle.items[i].item);
        EXPECT_NEAR(first.items[i].score, oracle.items[i].score, 1e-9);
      }
    } else {
      EXPECT_EQ(first.completion, Completion::kListFailure);
      CheckAnytimeSoundness(kind, db, scorer, first);
    }
    const TopKResult warmed = MustRun(kind, options, db, query, &context);
    ExpectSameOutcome(first, warmed);
    ExecutionContext fresh;
    const TopKResult refreshed = MustRun(kind, options, db, query, &fresh);
    ExpectSameOutcome(first, refreshed);
  }
}

// A kill late enough that NRA's stop rule still certifies the top-k over the
// survivors: membership is certain, but the dead list's unread cells are
// gone, so NRA reports the winners' certified lower bounds under
// kListFailure (as CA does) instead of exact scores.
TEST(FaultInjectionTest, NraEndsWithADeadListAsListFailure) {
  const Database db = MakeUniformDatabase(2000, 4, /*seed=*/1);
  SumScorer scorer;
  const TopKQuery query{10, &scorer};
  AlgorithmOptions options;
  options.fault_plan.kill_list = 1;
  options.fault_plan.kill_after_accesses = 1000;
  ExecutionContext context;
  const TopKResult result =
      MustRun(AlgorithmKind::kNra, options, db, query, &context);
  ExecutionContext oracle_context;
  const TopKResult oracle = MustRun(AlgorithmKind::kNaive, AlgorithmOptions{},
                                    db, query, &oracle_context);

  EXPECT_EQ(result.dead_lists, 1u);
  EXPECT_EQ(result.completion, Completion::kListFailure);
  EXPECT_GE(result.theta, 1.0);
  EXPECT_TRUE(std::isfinite(result.theta));
  ASSERT_EQ(result.items.size(), query.k);
  std::vector<ItemId> returned;
  std::vector<ItemId> exact;
  for (size_t i = 0; i < query.k; ++i) {
    const ItemId item = result.items[i].item;
    const Score truth = db.OverallScore(item, [&](const std::vector<Score>& s) {
      return scorer.Combine(s.data(), s.size());
    });
    EXPECT_LE(result.items[i].score, truth) << "item " << item;
    returned.push_back(item);
    exact.push_back(oracle.items[i].item);
  }
  std::sort(returned.begin(), returned.end());
  std::sort(exact.begin(), exact.end());
  EXPECT_EQ(returned, exact);  // the certified membership is the exact set
}

TEST(FaultInjectionTest, StrictModeRejectsAListFailure) {
  const Database db = MakeDb();
  SumScorer scorer;
  const TopKQuery query{kK, &scorer};
  AlgorithmOptions options;
  options.score_floor = DeriveScoreFloor(db);
  options.governor.strict = true;
  options.governor.total_access_budget = uint64_t{1} << 40;  // arm, never trip
  // Every list dies almost immediately: nothing can stay exact.
  options.fault_plan.death_rate = 1.0;
  options.fault_plan.death_min_accesses = 1;
  options.fault_plan.death_max_accesses = 4;
  ExecutionContext context;
  auto algorithm = MakeAlgorithm(AlgorithmKind::kNra, options);
  auto result = algorithm->Execute(db, query, &context);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("StrictMode"), std::string::npos);
}

// Faulted single-node outcomes, pinned field for field: one targeted kill
// with transient faults (plan 0) and one random-death plan (plan 1), over
// every governed algorithm. The random-access algorithms fail over to NRA,
// NRA and CA degrade in place (CA finishes before plan 0's kill). Any change
// to how a faulted run reads its lists — the position a read goes to, the
// order the schedule is rolled in, the counts an NRA failover starts from —
// moves one of these values.
struct FaultPin {
  int plan;
  AlgorithmKind kind;
  std::vector<ItemId> items;
  uint64_t sorted_accesses;
  uint64_t random_accesses;
  uint64_t direct_accesses;
  Position stop_position;
  Completion completion;
  uint32_t dead_lists;
  uint64_t fault_retries;
  bool failed_over;
};

// NRA's seen mask caps it at 64 lists, so past that a random-access
// algorithm that loses a list cannot fail over: ExecuteInto returns the loss
// it names from the loop's signal (ExecutionContext::LoseList).
TEST(FaultInjectionTest, LostListPastTheMaskWordIsNamed) {
  const Database db = MakeUniformDatabase(/*n=*/200, /*m=*/65, /*seed=*/9);
  SumScorer scorer;
  AlgorithmOptions options;
  options.fault_plan.kill_list = 0;
  options.fault_plan.kill_after_accesses = 1;
  for (AlgorithmKind kind : {AlgorithmKind::kFa, AlgorithmKind::kTa,
                             AlgorithmKind::kBpa, AlgorithmKind::kBpa2}) {
    const Status status = MakeAlgorithm(kind, options)
                              ->Execute(db, TopKQuery{5, &scorer})
                              .status();
    EXPECT_TRUE(status.IsUnavailable()) << ToString(kind);
    EXPECT_EQ(status.message(),
              ToString(kind) +
                  ": list 0 died permanently; random access is unavailable");
  }
}

TEST(FaultInjectionTest, FaultedOutcomesArePinned) {
  const Database db = MakeUniformDatabase(300, 4, /*seed=*/7);
  SumScorer scorer;
  const TopKQuery query{5, &scorer};
  FaultPlan plans[2];
  plans[0].seed = 11;
  plans[0].kill_list = 1;
  plans[0].kill_after_accesses = 150;
  plans[0].transient_rate = 0.3;
  plans[1].seed = 3;
  plans[1].death_rate = 0.5;
  plans[1].death_min_accesses = 20;
  plans[1].death_max_accesses = 400;
  using K = AlgorithmKind;
  using C = Completion;
  const FaultPin pins[] = {
      {0, K::kFa, {238, 58, 286, 124, 19}, 1344, 160, 0, 300, C::kListFailure,
       1, 633, true},
      {0, K::kTa, {238, 58, 286, 124, 19}, 1051, 450, 0, 300, C::kListFailure,
       1, 630, true},
      {0, K::kBpa, {238, 58, 286, 124, 19}, 1051, 450, 0, 300, C::kListFailure,
       1, 630, true},
      {0, K::kBpa2, {238, 58, 286, 124, 19}, 900, 450, 150, 300,
       C::kListFailure, 1, 629, true},
      {0, K::kTput, {238, 58, 286, 124, 19}, 1723, 0, 0, 300, C::kListFailure,
       1, 721, true},
      {0, K::kNra, {238, 58, 249, 73, 291}, 774, 0, 0, 208, C::kListFailure, 1,
       304, false},
      {0, K::kCa, {238, 58, 249, 73, 291}, 480, 25, 0, 120, C::kExact, 0, 197,
       false},
      {1, K::kFa, {89, 238, 38, 199, 58}, 1344, 39, 0, 300, C::kListFailure, 1,
       0, true},
      {1, K::kTa, {89, 238, 38, 199, 58}, 1024, 369, 0, 300, C::kListFailure,
       1, 0, true},
      {1, K::kBpa, {89, 238, 38, 199, 58}, 1024, 369, 0, 300, C::kListFailure,
       1, 0, true},
      {1, K::kBpa2, {89, 238, 38, 199, 58}, 900, 369, 123, 300,
       C::kListFailure, 1, 0, true},
      {1, K::kTput, {89, 238, 38, 199, 58}, 1688, 0, 0, 300, C::kListFailure,
       1, 0, true},
      {1, K::kNra, {238, 58, 249, 73, 291}, 1023, 0, 0, 300, C::kListFailure,
       1, 0, false},
      {1, K::kCa, {238, 58, 249, 73, 291}, 477, 24, 0, 120, C::kListFailure, 1,
       0, false},
  };
  ExecutionContext context;  // warmed across runs, like a server worker's
  for (const FaultPin& pin : pins) {
    SCOPED_TRACE(ToString(pin.kind) + " plan " + std::to_string(pin.plan));
    AlgorithmOptions options;
    options.score_floor = DeriveScoreFloor(db);
    options.fault_plan = plans[pin.plan];
    const TopKResult r = MustRun(pin.kind, options, db, query, &context);
    EXPECT_EQ(r.Items(), pin.items);
    EXPECT_EQ(r.stats.sorted_accesses, pin.sorted_accesses);
    EXPECT_EQ(r.stats.random_accesses, pin.random_accesses);
    EXPECT_EQ(r.stats.direct_accesses, pin.direct_accesses);
    EXPECT_EQ(r.stop_position, pin.stop_position);
    EXPECT_EQ(r.completion, pin.completion);
    EXPECT_EQ(r.dead_lists, pin.dead_lists);
    EXPECT_EQ(r.fault_retries, pin.fault_retries);
    EXPECT_EQ(r.failed_over, pin.failed_over);
  }
}

// The local schedule's own timeline, rolled without an algorithm: 400
// round-robin rolls of every live list. It pins what the outcome pins above
// cannot: the spike draws, which move only virtual latency, and each list's
// death point under a random death window capped by a targeted kill.
TEST(FaultInjectionTest, ScheduleTimelineIsPinned) {
  constexpr size_t kLists = 6;
  FaultPlan plan;
  plan.seed = 3;
  plan.transient_rate = 0.4;
  plan.max_retries = 3;
  plan.spike_rate = 0.2;
  plan.spike_ms = 1.5;
  plan.death_rate = 0.6;
  plan.death_min_accesses = 5;
  plan.death_max_accesses = 300;
  plan.kill_list = 4;
  plan.kill_after_accesses = 77;
  FaultInjectingAccessEngine faults;
  faults.Arm(kLists, plan);
  std::vector<uint64_t> served(kLists, 0);
  std::vector<uint64_t> died_after(kLists, 0);  // 0: still alive
  for (int round = 0; round < 400; ++round) {
    for (size_t list = 0; list < kLists; ++list) {
      if (!faults.ListAlive(list)) continue;
      faults.Roll(list);
      ++served[list];
      if (!faults.ListAlive(list)) died_after[list] = served[list];
    }
  }
  EXPECT_EQ(died_after, (std::vector<uint64_t>{128, 0, 85, 0, 77, 114}));
  const FaultStats& stats = faults.fault_stats();
  EXPECT_EQ(stats.transient_faults, 733u);
  EXPECT_EQ(stats.exhausted_retries, 83u);
  EXPECT_EQ(stats.latency_spikes, 236u);
  EXPECT_DOUBLE_EQ(stats.virtual_latency_ms, 354.0);
  EXPECT_EQ(stats.dead_lists, 4u);
}

// A list killed at its first access, on a two-list workload where the kill
// lands before the list's first sorted read: BPA's and BPA2's λ meet a best
// position of 0 and TA's δ a cursor that never moved. Both must read the
// list maximum there, so TA certifies no wrong exact answer and BPA and BPA2
// return instead of reading before the list's first position.
TEST(FaultInjectionTest, ListKilledBeforeItsFirstReadKeepsBoundsSound) {
  const Database db = MakeUniformDatabase(50, 2, /*seed=*/1);
  SumScorer scorer;
  const TopKQuery query{1, &scorer};
  ExecutionContext oracle_context;
  const TopKResult oracle = MustRun(AlgorithmKind::kNaive, AlgorithmOptions{},
                                    db, query, &oracle_context);
  ExecutionContext context;  // warmed across runs, like a server worker's
  for (AlgorithmKind kind :
       {AlgorithmKind::kTa, AlgorithmKind::kBpa, AlgorithmKind::kBpa2}) {
    SCOPED_TRACE(ToString(kind));
    AlgorithmOptions options;
    options.score_floor = DeriveScoreFloor(db);
    options.fault_plan.kill_list = 1;
    options.fault_plan.kill_after_accesses = 1;
    const TopKResult result = MustRun(kind, options, db, query, &context);
    EXPECT_EQ(result.dead_lists, 1u);
    if (result.completion == Completion::kExact) {
      ASSERT_EQ(result.items.size(), query.k);
      EXPECT_EQ(result.items[0].item, oracle.items[0].item);
      EXPECT_NEAR(result.items[0].score, oracle.items[0].score, 1e-9);
    } else {
      CheckAnytimeSoundness(kind, db, scorer, result);
    }
  }
}

// The faulted run both tests below start from: list 1 dies after five
// accesses (BPA fails over to NRA) and half the accesses spike.
AlgorithmOptions SpikedKillOptions(const Database& db) {
  AlgorithmOptions options;
  options.score_floor = DeriveScoreFloor(db);
  options.fault_plan.kill_list = 1;
  options.fault_plan.kill_after_accesses = 5;
  options.fault_plan.spike_rate = 0.5;
  return options;
}

// Disarm() keeps the last armed run's schedule in storage, but a disarmed
// injector reports what one never armed reports: every list alive, no dead
// list, no latency, no fault.
TEST(FaultInjectionTest, DisarmedInjectorReportsNoFaults) {
  const Database db = MakeDb();
  SumScorer scorer;
  const TopKQuery query{kK, &scorer};
  ExecutionContext context;
  MustRun(AlgorithmKind::kBpa, SpikedKillOptions(db), db, query, &context);
  const FaultInjectingAccessEngine& faults = context.faults();
  ASSERT_EQ(faults.dead_lists(), 1u);
  ASSERT_GT(faults.virtual_latency_ms(), 0.0);
  MustRun(AlgorithmKind::kBpa, AlgorithmOptions{}, db, query, &context);
  ASSERT_FALSE(faults.armed());
  EXPECT_TRUE(faults.ListAlive(1));
  EXPECT_EQ(faults.dead_lists(), 0u);
  EXPECT_EQ(faults.virtual_latency_ms(), 0.0);
  const FaultStats stats = faults.fault_stats();
  EXPECT_EQ(stats.transient_faults, 0u);
  EXPECT_EQ(stats.exhausted_retries, 0u);
  EXPECT_EQ(stats.latency_spikes, 0u);
  EXPECT_EQ(stats.virtual_latency_ms, 0.0);
  EXPECT_EQ(stats.dead_lists, 0u);
}

// An audited run reads through the fault-aware policy with nothing armed. On
// a context whose last run was spiked and killed, the audited BPA and BPA2
// runs and a plain run after them must each equal a fresh context's run:
// the stale dead list and virtual latency (over the audited runs' 20-ms
// deadline) must not leak into them.
TEST(FaultInjectionTest, AuditedRunsAfterAFaultedRunMatchFreshContexts) {
  const Database db = MakeDb();
  SumScorer scorer;
  const TopKQuery query{kK, &scorer};
  const auto expect_fresh = [&](AlgorithmKind kind,
                                const AlgorithmOptions& options,
                                ExecutionContext* context) {
    SCOPED_TRACE(ToString(kind));
    const TopKResult reused = MustRun(kind, options, db, query, context);
    ExecutionContext fresh_context;
    const TopKResult fresh = MustRun(kind, options, db, query, &fresh_context);
    ExpectSameOutcome(fresh, reused);
    EXPECT_EQ(fresh.max_touches_per_list, reused.max_touches_per_list);
    return reused;
  };
  ExecutionContext context;
  const TopKResult faulted =
      expect_fresh(AlgorithmKind::kBpa, SpikedKillOptions(db), &context);
  EXPECT_TRUE(faulted.failed_over);
  ASSERT_GT(context.faults().virtual_latency_ms(), 20.0);

  AlgorithmOptions audited;
  audited.audit_accesses = true;
  audited.governor.deadline_ms = 20.0;
  for (AlgorithmKind kind : {AlgorithmKind::kBpa, AlgorithmKind::kBpa2}) {
    const TopKResult result = expect_fresh(kind, audited, &context);
    EXPECT_EQ(result.completion, Completion::kExact);
    EXPECT_EQ(result.max_touches_per_list.size(), kM);
  }
  expect_fresh(AlgorithmKind::kBpa, AlgorithmOptions{}, &context);
}

TEST(FaultInjectionTest, FaultPlanIsIncompatibleWithAccessAuditing) {
  const Database db = MakeDb();
  SumScorer scorer;
  const TopKQuery query{kK, &scorer};
  AlgorithmOptions options;
  options.audit_accesses = true;
  options.fault_plan.transient_rate = 0.1;
  ExecutionContext context;
  auto algorithm = MakeAlgorithm(AlgorithmKind::kTa, options);
  auto result = algorithm->Execute(db, query, &context);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalid());
  EXPECT_NE(result.status().ToString().find("audit_accesses"),
            std::string::npos);
}

}  // namespace
}  // namespace topk
