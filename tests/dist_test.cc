// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Tests of the distributed layer: ListOwner serving semantics, transport
// fault determinism, and the Coordinator's two acceptance bars —
//
//  1. parity: fault-free distributed BPA/TPUT return byte-identical
//     items/scores (same tie order) and identical logical access counts to
//     the single-node engine;
//  2. robustness: under injected owner death and delays every query still
//     returns, within its governor deadline, a θ-certified answer (θ >= 1,
//     θ == 1 iff certified exact), deterministically replayable from the
//     fault seed.

#include "dist/coordinator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithms.h"
#include "core/candidate_bounds.h"
#include "dist/fault_injecting_transport.h"
#include "dist/in_process_transport.h"
#include "dist/list_owner.h"
#include "gen/database_generator.h"
#include "gen/paper_fixtures.h"
#include "lists/scorer.h"

namespace topk {
namespace {

// ---- ListOwner ----

TEST(ListOwnerTest, HelloAdvertisesCatalog) {
  const Database db = MakeUniformDatabase(100, 3, 7);
  const ListOwner owner(&db, {0, 2});
  Request request;
  request.type = MessageType::kHello;
  Reply reply;
  ASSERT_TRUE(owner.Serve(request, &reply).ok());
  ASSERT_EQ(reply.catalog.size(), 2u);
  EXPECT_EQ(reply.catalog[0].list_index, 0u);
  EXPECT_EQ(reply.catalog[1].list_index, 2u);
  EXPECT_EQ(reply.catalog[0].num_items, 100u);
  EXPECT_DOUBLE_EQ(reply.catalog[0].max_score, db.list(0).MaxScore());
  EXPECT_DOUBLE_EQ(reply.catalog[1].min_score, db.list(2).MinScore());
}

TEST(ListOwnerTest, WindowServesConsecutiveRows) {
  const Database db = MakeUniformDatabase(50, 2, 3);
  const ListOwner owner(&db, {1});
  Request request;
  request.type = MessageType::kSortedWindow;
  request.list_index = 1;
  request.start = 11;
  request.max_entries = 8;
  Reply reply;
  ASSERT_TRUE(owner.Serve(request, &reply).ok());
  ASSERT_EQ(reply.entries.size(), 8u);
  for (size_t off = 0; off < reply.entries.size(); ++off) {
    const ListEntry expected = db.list(1).EntryAt(11 + off);
    EXPECT_EQ(reply.entries[off].item, expected.item);
    EXPECT_DOUBLE_EQ(reply.entries[off].score, expected.score);
  }
}

TEST(ListOwnerTest, WindowClampsAtListEnd) {
  const Database db = MakeUniformDatabase(20, 2, 3);
  const ListOwner owner(&db, {0});
  Request request;
  request.type = MessageType::kSortedWindow;
  request.list_index = 0;
  request.start = 18;
  request.max_entries = 64;
  Reply reply;
  ASSERT_TRUE(owner.Serve(request, &reply).ok());
  EXPECT_EQ(reply.entries.size(), 3u);  // positions 18, 19, 20
}

TEST(ListOwnerTest, DrainIncludesFirstBelowThresholdEntry) {
  const Database db = MakeUniformDatabase(200, 2, 11);
  const ListOwner owner(&db, {0});
  const Score threshold = db.list(0).EntryAt(50).score;
  Request request;
  request.type = MessageType::kDrain;
  request.list_index = 0;
  request.start = 1;
  request.max_entries = 200;
  request.threshold = threshold;
  Reply reply;
  ASSERT_TRUE(owner.Serve(request, &reply).ok());
  ASSERT_TRUE(reply.drained_to_threshold);
  // Every entry but the last is >= threshold; the last is the first one
  // strictly below it (the coordinator's cursor must end below the
  // threshold, exactly like a local sorted scan's).
  ASSERT_GE(reply.entries.size(), 1u);
  for (size_t off = 0; off + 1 < reply.entries.size(); ++off) {
    EXPECT_GE(reply.entries[off].score, threshold);
  }
  EXPECT_LT(reply.entries.back().score, threshold);
}

TEST(ListOwnerTest, LookupAnswersInRequestOrder) {
  const Database db = MakeUniformDatabase(60, 3, 5);
  const ListOwner owner(&db, {2});
  Request request;
  request.type = MessageType::kRandomLookup;
  request.list_index = 2;
  request.items = {7, 3, 42};
  Reply reply;
  ASSERT_TRUE(owner.Serve(request, &reply).ok());
  ASSERT_EQ(reply.lookups.size(), 3u);
  // Each reply names the item's row in list 2's sorted order.
  for (size_t idx = 0; idx < request.items.size(); ++idx) {
    const ListEntry expected = db.list(2).EntryAt(reply.lookups[idx].position);
    EXPECT_DOUBLE_EQ(reply.lookups[idx].score, expected.score);
    EXPECT_EQ(expected.item, request.items[idx]);
  }
}

TEST(ListOwnerTest, RejectsForeignListAndBadPositions) {
  const Database db = MakeUniformDatabase(30, 3, 5);
  const ListOwner owner(&db, {0});
  Request request;
  request.type = MessageType::kSortedWindow;
  request.list_index = 1;  // not owned
  request.start = 1;
  request.max_entries = 4;
  Reply reply;
  EXPECT_TRUE(owner.Serve(request, &reply).IsInvalid());
  request.list_index = 0;
  request.start = 31;  // outside [1, n]
  EXPECT_TRUE(owner.Serve(request, &reply).IsOutOfRange());
}

// ---- FaultInjectingTransport ----

TEST(DistFaultTransportTest, SameSeedSameSchedule) {
  const Database db = MakeUniformDatabase(100, 3, 17);
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.seed = 42;
  plan.drop_rate = 0.3;
  plan.delay_rate = 0.3;
  plan.duplicate_rate = 0.2;

  const auto run = [&](std::vector<int>* outcomes) {
    FaultInjectingTransport transport(&inner, plan);
    Request request;
    request.type = MessageType::kHello;
    Reply reply;
    CallResult call;
    for (int t = 0; t < 50; ++t) {
      const Status status = transport.Call(t % 3, request, &reply, &call);
      outcomes->push_back(status.ok()
                              ? static_cast<int>(call.duplicate_replies) +
                                    (call.latency_ms > 1.0 ? 10 : 0)
                              : -1);
    }
  };
  std::vector<int> first, second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);
}

TEST(DistFaultTransportTest, TargetedKillStopsOwnerAfterBudget) {
  const Database db = MakeUniformDatabase(100, 2, 17);
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.kill_owners = {1};
  plan.kill_after_messages = 3;
  FaultInjectingTransport transport(&inner, plan);
  Request request;
  request.type = MessageType::kHello;
  Reply reply;
  CallResult call;
  // The first three messages are served (the one reaching the death point
  // included); every later call fails.
  for (int t = 0; t < 3; ++t) {
    EXPECT_TRUE(transport.Call(1, request, &reply, &call).ok());
  }
  EXPECT_TRUE(transport.Call(1, request, &reply, &call).IsUnavailable());
  EXPECT_FALSE(transport.OwnerAlive(1));
  EXPECT_TRUE(transport.OwnerAlive(0));
  EXPECT_EQ(transport.fault_stats().dead_owners, 1u);
}

TEST(DistFaultTransportTest, ValidateRejectsBadPlans) {
  TransportFaultPlan plan;
  plan.drop_rate = 1.5;
  EXPECT_TRUE(plan.Validate("DistBPA", 3).IsInvalid());
  plan = TransportFaultPlan{};
  plan.kill_owners = {3};
  EXPECT_TRUE(plan.Validate("DistBPA", 3).IsInvalid());
  plan = TransportFaultPlan{};
  plan.death_min_messages = 0;
  EXPECT_TRUE(plan.Validate("DistBPA", 3).IsInvalid());
  plan = TransportFaultPlan{};
  plan.kill_owners = {0, 5};  // second entry out of range
  EXPECT_TRUE(plan.Validate("DistBPA", 3).IsInvalid());
  plan = TransportFaultPlan{};
  plan.flap_revive_calls = 2;  // flapping with no death source never flaps
  EXPECT_TRUE(plan.Validate("DistBPA", 3).IsInvalid());
  plan = TransportFaultPlan{};
  plan.flap_revive_calls = 2;
  plan.kill_owners = {1};
  EXPECT_TRUE(plan.Validate("DistBPA", 3).ok());
}

// ---- Coordinator: fault-free parity ----

struct ParityCase {
  size_t n;
  size_t m;
  size_t k;
  uint64_t seed;
};

class DistParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(DistParityTest, BpaMatchesSingleNodeExactly) {
  const ParityCase param = GetParam();
  const Database db = MakeUniformDatabase(param.n, param.m, param.seed);
  SumScorer sum;
  const TopKQuery query{param.k, &sum};

  // Single-node reference: the memoized variant (each item resolved once) —
  // the same discipline the coordinator's wire protocol implements. Items,
  // scores and stop depth are identical to the non-memoized run; access
  // counts are the memoized ones.
  AlgorithmOptions options;
  options.memoize_seen_items = true;
  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kBpa, options)->Execute(db, query)
          .ValueOrDie();

  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult dist = coordinator.ExecuteBpa(query).ValueOrDie();

  ASSERT_EQ(dist.items.size(), reference.items.size());
  for (size_t i = 0; i < reference.items.size(); ++i) {
    EXPECT_EQ(dist.items[i].item, reference.items[i].item) << "rank " << i;
    EXPECT_DOUBLE_EQ(dist.items[i].score, reference.items[i].score);
  }
  EXPECT_EQ(dist.stop_position, reference.stop_position);
  EXPECT_EQ(dist.min_best_position, reference.min_best_position);
  EXPECT_EQ(dist.stats.sorted_accesses, reference.stats.sorted_accesses);
  EXPECT_EQ(dist.stats.random_accesses, reference.stats.random_accesses);
  EXPECT_EQ(dist.completion, Completion::kExact);
  EXPECT_DOUBLE_EQ(dist.theta, 1.0);
  EXPECT_FALSE(dist.failed_over);
}

TEST_P(DistParityTest, TputMatchesSingleNodeExactly) {
  const ParityCase param = GetParam();
  const Database db = MakeUniformDatabase(param.n, param.m, param.seed);
  SumScorer sum;
  const TopKQuery query{param.k, &sum};

  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();

  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult dist = coordinator.ExecuteTput(query).ValueOrDie();

  ASSERT_EQ(dist.items.size(), reference.items.size());
  for (size_t i = 0; i < reference.items.size(); ++i) {
    EXPECT_EQ(dist.items[i].item, reference.items[i].item) << "rank " << i;
    EXPECT_DOUBLE_EQ(dist.items[i].score, reference.items[i].score);
  }
  EXPECT_EQ(dist.stop_position, reference.stop_position);
  EXPECT_EQ(dist.stats.sorted_accesses, reference.stats.sorted_accesses);
  EXPECT_EQ(dist.stats.random_accesses, reference.stats.random_accesses);
  EXPECT_EQ(dist.completion, Completion::kExact);
  EXPECT_DOUBLE_EQ(dist.theta, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistParityTest,
    ::testing::Values(ParityCase{60, 2, 1, 1}, ParityCase{200, 3, 5, 2},
                      ParityCase{500, 4, 10, 3}, ParityCase{500, 4, 10, 4},
                      ParityCase{1000, 5, 20, 5}, ParityCase{300, 6, 50, 6},
                      ParityCase{120, 3, 120, 7}));

TEST(DistCoordinatorTest, WindowSizeDoesNotChangeAnswers) {
  const Database db = MakeUniformDatabase(400, 4, 9);
  SumScorer sum;
  const TopKQuery query{8, &sum};
  InProcessTransport transport = InProcessTransport::PerListOwners(db);

  DistOptions wide;
  wide.window_rows = 256;
  Coordinator a(&transport, wide);
  ASSERT_TRUE(a.Connect().ok());
  DistOptions narrow;
  narrow.window_rows = 3;
  Coordinator b(&transport, narrow);
  ASSERT_TRUE(b.Connect().ok());
  DistOptions single;
  single.window_rows = 1;
  Coordinator c(&transport, single);
  ASSERT_TRUE(c.Connect().ok());

  // A window also spans dBPA's lookup batch: fault-free, each list gets at
  // most one window and one lookup per window of rows.
  const auto run_bpa = [&](Coordinator* coordinator, uint32_t window_rows) {
    const TopKResult result = coordinator->ExecuteBpa(query).ValueOrDie();
    const uint64_t windows =
        (result.stop_position + window_rows - 1) / window_rows;
    EXPECT_LE(coordinator->stats().messages_sent,
              2 * db.num_lists() * windows)
        << "window_rows = " << window_rows;
    return result;
  };
  // Answers, access counts and stop rows do not depend on the window.
  const auto expect_same = [](const TopKResult& got, const TopKResult& want) {
    ASSERT_EQ(got.items.size(), want.items.size());
    for (size_t i = 0; i < want.items.size(); ++i) {
      EXPECT_EQ(got.items[i].item, want.items[i].item) << "rank " << i;
      EXPECT_EQ(got.items[i].score, want.items[i].score) << "rank " << i;
    }
    EXPECT_EQ(got.stats.sorted_accesses, want.stats.sorted_accesses);
    EXPECT_EQ(got.stats.random_accesses, want.stats.random_accesses);
    EXPECT_EQ(got.stop_position, want.stop_position);
  };

  const TopKResult wide_bpa = run_bpa(&a, wide.window_rows);
  const TopKResult narrow_bpa = run_bpa(&b, narrow.window_rows);
  ASSERT_EQ(wide_bpa.items.size(), narrow_bpa.items.size());
  for (size_t i = 0; i < wide_bpa.items.size(); ++i) {
    EXPECT_EQ(wide_bpa.items[i].item, narrow_bpa.items[i].item);
    EXPECT_DOUBLE_EQ(wide_bpa.items[i].score, narrow_bpa.items[i].score);
  }
  EXPECT_EQ(wide_bpa.stats.sorted_accesses, narrow_bpa.stats.sorted_accesses);
  const TopKResult single_bpa = run_bpa(&c, single.window_rows);
  for (const TopKResult* other : {&narrow_bpa, &single_bpa}) {
    expect_same(*other, wide_bpa);
    EXPECT_EQ(other->min_best_position, wide_bpa.min_best_position);
  }

  const TopKResult wide_tput = a.ExecuteTput(query).ValueOrDie();
  const TopKResult narrow_tput = b.ExecuteTput(query).ValueOrDie();
  ASSERT_EQ(wide_tput.items.size(), narrow_tput.items.size());
  for (size_t i = 0; i < wide_tput.items.size(); ++i) {
    EXPECT_EQ(wide_tput.items[i].item, narrow_tput.items[i].item);
    EXPECT_DOUBLE_EQ(wide_tput.items[i].score, narrow_tput.items[i].score);
  }
  // Narrower windows cost more messages for the same logical accesses.
  EXPECT_EQ(wide_tput.stats.sorted_accesses,
            narrow_tput.stats.sorted_accesses);
  const TopKResult single_tput = c.ExecuteTput(query).ValueOrDie();
  for (const TopKResult* other : {&narrow_tput, &single_tput}) {
    expect_same(*other, wide_tput);
  }
}

TEST(DistCoordinatorTest, MultiListOwnersMatchPerListOwners) {
  const Database db = MakeUniformDatabase(300, 4, 13);
  SumScorer sum;
  const TopKQuery query{6, &sum};

  InProcessTransport per_list = InProcessTransport::PerListOwners(db);
  Coordinator a(&per_list, DistOptions{});
  ASSERT_TRUE(a.Connect().ok());

  InProcessTransport packed;
  packed.AddOwner(ListOwner(&db, {0, 1}));
  packed.AddOwner(ListOwner(&db, {2, 3}));
  Coordinator b(&packed, DistOptions{});
  ASSERT_TRUE(b.Connect().ok());
  EXPECT_EQ(b.num_lists(), 4u);

  const TopKResult fine = a.ExecuteBpa(query).ValueOrDie();
  const TopKResult coarse = b.ExecuteBpa(query).ValueOrDie();
  ASSERT_EQ(fine.items.size(), coarse.items.size());
  for (size_t i = 0; i < fine.items.size(); ++i) {
    EXPECT_EQ(fine.items[i].item, coarse.items[i].item);
    EXPECT_DOUBLE_EQ(fine.items[i].score, coarse.items[i].score);
  }
}

TEST(DistCoordinatorTest, WorksOnPaperFigure1) {
  const Database db = MakeFigure1Database();
  SumScorer sum;
  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult bpa = coordinator.ExecuteBpa(TopKQuery{3, &sum})
                             .ValueOrDie();
  EXPECT_EQ(bpa.items[0].item, 7u);  // d8
  EXPECT_DOUBLE_EQ(bpa.items[0].score, 71.0);
  const TopKResult tput = coordinator.ExecuteTput(TopKQuery{3, &sum})
                              .ValueOrDie();
  EXPECT_EQ(tput.items[0].item, 7u);
  EXPECT_DOUBLE_EQ(tput.items[0].score, 71.0);
}

TEST(DistCoordinatorTest, BpaSupportsGenericScorers) {
  const Database db = MakeUniformDatabase(150, 3, 21);
  MinScorer min;
  const TopKQuery query{5, &min};
  AlgorithmOptions options;
  options.memoize_seen_items = true;
  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kBpa, options)->Execute(db, query)
          .ValueOrDie();
  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult dist = coordinator.ExecuteBpa(query).ValueOrDie();
  ASSERT_EQ(dist.items.size(), reference.items.size());
  for (size_t i = 0; i < reference.items.size(); ++i) {
    EXPECT_EQ(dist.items[i].item, reference.items[i].item);
    EXPECT_DOUBLE_EQ(dist.items[i].score, reference.items[i].score);
  }
  EXPECT_EQ(dist.stop_position, reference.stop_position);
}

TEST(DistCoordinatorTest, TputRejectsNonSumScorer) {
  const Database db = MakeUniformDatabase(40, 3, 2);
  MinScorer min;
  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  EXPECT_TRUE(coordinator.ExecuteTput(TopKQuery{3, &min})
                  .status()
                  .IsNotImplemented());
}

TEST(DistCoordinatorTest, CountsMessagesAndBytes) {
  const Database db = MakeUniformDatabase(300, 3, 31);
  SumScorer sum;
  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult result =
      coordinator.ExecuteBpa(TopKQuery{5, &sum}).ValueOrDie();
  const DistStats& stats = coordinator.stats();
  EXPECT_GT(stats.messages_sent, 0u);
  EXPECT_EQ(stats.messages_sent, stats.replies_received);
  EXPECT_GE(stats.bytes_sent, stats.messages_sent * kWireHeaderBytes);
  EXPECT_GT(stats.bytes_received, stats.bytes_sent);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.owner_deaths, 0u);
  // Batching: far fewer messages than logical accesses.
  EXPECT_LT(stats.messages_sent, result.stats.TotalAccesses());
  EXPECT_GT(stats.virtual_ms, 0.0);
}

// ---- Coordinator: faults ----

TEST(DistFaultTest, DropsAreRetriedTransparently) {
  const Database db = MakeUniformDatabase(400, 3, 5);
  SumScorer sum;
  const TopKQuery query{5, &sum};
  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();

  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.seed = 7;
  plan.drop_rate = 0.20;  // well within a 4-attempt budget
  FaultInjectingTransport transport(&inner, plan);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult dist = coordinator.ExecuteTput(query).ValueOrDie();

  // Recovery is invisible to the answer: same items, same scores.
  ASSERT_EQ(dist.items.size(), reference.items.size());
  for (size_t i = 0; i < reference.items.size(); ++i) {
    EXPECT_EQ(dist.items[i].item, reference.items[i].item);
    EXPECT_DOUBLE_EQ(dist.items[i].score, reference.items[i].score);
  }
  EXPECT_EQ(dist.completion, Completion::kExact);
  // A dropped primary is rescued by its hedge when one fires in time, by a
  // backed-off retry otherwise; either way the loss shows in the wire
  // ledger as a sent message with no reply.
  EXPECT_GT(transport.fault_stats().dropped_messages, 0u);
  const DistStats& stats = coordinator.stats();
  EXPECT_GT(stats.retries + stats.hedges, 0u);
  EXPECT_GT(stats.messages_sent, stats.replies_received);
  EXPECT_EQ(dist.fault_retries, stats.retries);
}

TEST(DistFaultTest, SameSeedSameRun) {
  const Database db = MakeUniformDatabase(400, 4, 5);
  SumScorer sum;
  const TopKQuery query{8, &sum};
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.seed = 99;
  plan.drop_rate = 0.08;
  plan.delay_rate = 0.2;
  plan.delay_ms = 2.0;
  plan.duplicate_rate = 0.1;

  const auto run = [&](TopKResult* result, DistStats* stats) {
    FaultInjectingTransport transport(&inner, plan);
    Coordinator coordinator(&transport, DistOptions{});
    ASSERT_TRUE(coordinator.Connect().ok());
    *result = coordinator.ExecuteBpa(query).ValueOrDie();
    *stats = coordinator.stats();
  };
  TopKResult first_result, second_result;
  DistStats first_stats, second_stats;
  run(&first_result, &first_stats);
  run(&second_result, &second_stats);

  ASSERT_EQ(first_result.items.size(), second_result.items.size());
  for (size_t i = 0; i < first_result.items.size(); ++i) {
    EXPECT_EQ(first_result.items[i].item, second_result.items[i].item);
    EXPECT_DOUBLE_EQ(first_result.items[i].score,
                     second_result.items[i].score);
  }
  EXPECT_EQ(first_stats.messages_sent, second_stats.messages_sent);
  EXPECT_EQ(first_stats.retries, second_stats.retries);
  EXPECT_EQ(first_stats.hedges, second_stats.hedges);
  EXPECT_EQ(first_stats.duplicate_replies, second_stats.duplicate_replies);
  EXPECT_DOUBLE_EQ(first_stats.virtual_ms, second_stats.virtual_ms);
}

TEST(DistFaultTest, DelaysTriggerHedging) {
  const Database db = MakeUniformDatabase(600, 4, 5);
  SumScorer sum;
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.seed = 3;
  plan.delay_rate = 0.25;
  plan.delay_ms = 50.0;  // way past any p99-derived hedge timeout
  FaultInjectingTransport transport(&inner, plan);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult result =
      coordinator.ExecuteTput(TopKQuery{10, &sum}).ValueOrDie();
  EXPECT_EQ(result.completion, Completion::kExact);
  EXPECT_GT(coordinator.stats().hedges, 0u);
  EXPECT_GT(coordinator.stats().hedge_wins, 0u);
}

TEST(DistFaultTest, OwnerDeathDegradesToCertifiedAnswer) {
  const Database db = MakeUniformDatabase(500, 4, 23);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  const TopKResult truth =
      MakeAlgorithm(AlgorithmKind::kNaive)->Execute(db, query).ValueOrDie();

  for (const bool tput : {false, true}) {
    InProcessTransport inner = InProcessTransport::PerListOwners(db);
    TransportFaultPlan plan;
    plan.kill_owners = {2};
    plan.kill_after_messages = 6;
    FaultInjectingTransport transport(&inner, plan);
    DistOptions options;
    if (!tput) {
      // dBPA sends a list one window and one lookup per window; 16-row
      // windows run the budget out three windows in.
      options.window_rows = 16;
    }
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    // Connect's handshake consumed some of owner 2's message budget; the
    // query's early windows exhaust the rest.
    const TopKResult result =
        (tput ? coordinator.ExecuteTput(query) : coordinator.ExecuteBpa(query))
            .ValueOrDie();

    EXPECT_TRUE(result.failed_over);
    EXPECT_EQ(result.completion, Completion::kListFailure);
    EXPECT_GE(result.dead_lists, 1u);
    EXPECT_GE(coordinator.stats().owner_deaths, 1u);
    EXPECT_GE(result.theta, 1.0);
    // θ-certification soundness against ground truth: every returned score
    // is a lower bound on the item's true score, and no unreturned item's
    // true score exceeds the certified upper bound.
    for (const ResultItem& item : result.items) {
      EXPECT_LE(item.score, truth.items[0].score + 1e-9);
      EXPECT_GE(result.unreturned_upper_bound + 1e-12,
                result.kth_lower_bound);
    }
    std::vector<bool> returned(db.num_items(), false);
    for (const ResultItem& item : result.items) {
      returned[item.item] = true;
    }
    std::vector<Score> row(db.num_lists());
    for (ItemId item = 0; item < db.num_items(); ++item) {
      for (size_t j = 0; j < db.num_lists(); ++j) {
        row[j] = db.ScoreOf(j, item);
      }
      const Score true_score = sum.Combine(row.data(), row.size());
      if (!returned[item]) {
        EXPECT_LE(true_score, result.unreturned_upper_bound + 1e-9)
            << "item " << item;
      }
    }
  }
}

// Counts the messages each owner of `inner` receives.
class CountingTransport final : public Transport {
 public:
  explicit CountingTransport(Transport* inner)
      : inner_(inner), calls_(inner->num_owners(), 0) {}

  size_t num_owners() const override { return inner_->num_owners(); }

  Status Call(size_t owner, const Request& request, Reply* reply,
              CallResult* result) override {
    ++calls_[owner];
    return inner_->Call(owner, request, reply, result);
  }

  uint64_t calls(size_t owner) const { return calls_[owner]; }

 private:
  Transport* inner_;
  std::vector<uint64_t> calls_;
};

// Multi-list owners lose several lists at once. Sweeping the kill point of a
// packed owner {0, 2} over its messages, with windows of 16 rows, loses the
// pair on every kind of message — window fetches, and the span lookups sent
// right after every list's window rolled over — and every answer must hold
// up against the naive scan: exact answers equal it, anytime ones are sound.
TEST(DistFaultTest, PackedOwnerLossKeepsBpaSoundAtEveryKillPoint) {
  const Database db = MakeUniformDatabase(200, 4, 41);
  SumScorer sum;
  const TopKQuery query{40, &sum};
  const TopKResult truth =
      MakeAlgorithm(AlgorithmKind::kNaive)->Execute(db, query).ValueOrDie();
  std::vector<Score> true_score(db.num_items());
  std::vector<Score> row(db.num_lists());
  for (ItemId item = 0; item < db.num_items(); ++item) {
    for (size_t j = 0; j < db.num_lists(); ++j) {
      row[j] = db.ScoreOf(j, item);
    }
    true_score[item] = sum.Combine(row.data(), row.size());
  }
  DistOptions options;
  options.window_rows = 16;
  // The sweep's range: every message a fault-free run sends owner 0, the
  // handshake included.
  uint64_t owner_messages = 0;
  {
    InProcessTransport inner;
    inner.AddOwner(ListOwner(&db, {0, 2}));
    inner.AddOwner(ListOwner(&db, {1, 3}));
    CountingTransport counting(&inner);
    Coordinator coordinator(&counting, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    ASSERT_TRUE(coordinator.ExecuteBpa(query).ok());
    owner_messages = counting.calls(0);
  }
  size_t losses = 0;
  for (uint64_t kill = 1; kill <= owner_messages; ++kill) {
    SCOPED_TRACE("kill after " + std::to_string(kill) + " messages");
    InProcessTransport inner;
    inner.AddOwner(ListOwner(&db, {0, 2}));
    inner.AddOwner(ListOwner(&db, {1, 3}));
    TransportFaultPlan plan;
    plan.kill_owners = {0};
    plan.kill_after_messages = kill;
    FaultInjectingTransport transport(&inner, plan);
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    const TopKResult result = coordinator.ExecuteBpa(query).ValueOrDie();
    losses += result.dead_lists > 0 ? 1 : 0;
    if (result.completion == Completion::kExact) {
      ASSERT_EQ(result.items.size(), truth.items.size());
      for (size_t i = 0; i < truth.items.size(); ++i) {
        EXPECT_EQ(result.items[i].item, truth.items[i].item) << "rank " << i;
        EXPECT_EQ(result.items[i].score, truth.items[i].score);
      }
      continue;
    }
    EXPECT_EQ(result.dead_lists, 2u);
    EXPECT_GE(result.theta, 1.0);
    std::vector<bool> returned(db.num_items(), false);
    for (const ResultItem& item : result.items) {
      returned[item.item] = true;
      EXPECT_LE(item.score, true_score[item.item] + 1e-9);
    }
    for (ItemId item = 0; item < db.num_items(); ++item) {
      if (!returned[item]) {
        EXPECT_LE(true_score[item], result.unreturned_upper_bound + 1e-9)
            << "item " << item;
      }
    }
  }
  // Every kill point short of the last message loses the pair.
  EXPECT_EQ(losses, owner_messages - 1);
}

TEST(DistFaultTest, DegradedRunRespectsGovernorDeadline) {
  const Database db = MakeUniformDatabase(2000, 4, 29);
  SumScorer sum;
  const TopKQuery query{10, &sum};

  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.seed = 11;
  plan.kill_owners = {1};
  plan.kill_after_messages = 4;
  plan.delay_rate = 0.5;
  plan.delay_ms = 1.0;
  FaultInjectingTransport transport(&inner, plan);
  DistOptions options;
  options.governor.deadline_ms = 30.0;
  Coordinator coordinator(&transport, options);
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult result = coordinator.ExecuteBpa(query).ValueOrDie();

  // The query returns despite death + delays, under the deadline (virtual
  // time is charged at round boundaries, so allow one round of overshoot),
  // with a certified answer.
  EXPECT_NE(result.completion, Completion::kExact);
  EXPECT_GE(result.theta, 1.0);
  EXPECT_LT(coordinator.stats().virtual_ms, 2.0 * 30.0);
  EXPECT_TRUE(std::isfinite(result.kth_lower_bound) ||
              result.items.empty());
}

TEST(DistFaultTest, AllOwnersDeadStillReturnsCertified) {
  const Database db = MakeUniformDatabase(200, 3, 31);
  SumScorer sum;
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.seed = 5;
  plan.owner_death_rate = 1.0;  // every owner dies within the death window
  plan.death_min_messages = 2;
  plan.death_max_messages = 8;
  FaultInjectingTransport transport(&inner, plan);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult result =
      coordinator.ExecuteTput(TopKQuery{5, &sum}).ValueOrDie();
  EXPECT_EQ(result.completion, Completion::kListFailure);
  EXPECT_GE(result.theta, 1.0);
  EXPECT_GE(result.dead_lists, 1u);
}

// ---- Replica groups: parity, failover ladder, health tracking ----

// Shared check: `dist` is byte-identical to the single-node reference —
// same items, same scores (same tie order), same stop depth, same logical
// access counts — and certified exact.
void ExpectExactParity(const TopKResult& dist, const TopKResult& reference) {
  ASSERT_EQ(dist.items.size(), reference.items.size());
  for (size_t i = 0; i < reference.items.size(); ++i) {
    EXPECT_EQ(dist.items[i].item, reference.items[i].item) << "rank " << i;
    EXPECT_DOUBLE_EQ(dist.items[i].score, reference.items[i].score);
  }
  EXPECT_EQ(dist.stop_position, reference.stop_position);
  EXPECT_EQ(dist.stats.sorted_accesses, reference.stats.sorted_accesses);
  EXPECT_EQ(dist.stats.random_accesses, reference.stats.random_accesses);
  EXPECT_EQ(dist.completion, Completion::kExact);
  EXPECT_DOUBLE_EQ(dist.theta, 1.0);
}

TEST(DistReplicaTest, FaultFreeR2MatchesSingleNodeExactly) {
  const Database db = MakeUniformDatabase(500, 4, 3);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  AlgorithmOptions memoized;
  memoized.memoize_seen_items = true;
  const TopKResult bpa_reference =
      MakeAlgorithm(AlgorithmKind::kBpa, memoized)->Execute(db, query)
          .ValueOrDie();
  const TopKResult tput_reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();

  InProcessTransport transport = InProcessTransport::PerListOwners(db, 2);
  DistOptions options;
  options.replication_factor = 2;
  Coordinator coordinator(&transport, options);
  ASSERT_TRUE(coordinator.Connect().ok());

  ExpectExactParity(coordinator.ExecuteBpa(query).ValueOrDie(),
                    bpa_reference);
  ExpectExactParity(coordinator.ExecuteTput(query).ValueOrDie(),
                    tput_reference);
  // A fault-free run never leaves replica 0: no failovers, no breaker
  // activity, no probes. The health machinery is pure bookkeeping.
  const DistStats& stats = coordinator.stats();
  EXPECT_EQ(stats.replica_failovers, 0u);
  EXPECT_EQ(stats.breaker_opens, 0u);
  EXPECT_EQ(stats.probes_sent, 0u);
  EXPECT_EQ(stats.groups_lost, 0u);
}

TEST(DistReplicaTest, FaultFreeR2KeepsTheUnreplicatedWireTimeline) {
  // Sticky primaries pin every fault-free RPC to replica 0, whose owners sit
  // at the same indices as the unreplicated topology — so R = 2 costs the
  // same messages, bytes and virtual time as R = 1 until something fails.
  const Database db = MakeUniformDatabase(400, 4, 9);
  SumScorer sum;
  const TopKQuery query{8, &sum};

  InProcessTransport flat = InProcessTransport::PerListOwners(db);
  Coordinator r1(&flat, DistOptions{});
  ASSERT_TRUE(r1.Connect().ok());
  const TopKResult first = r1.ExecuteBpa(query).ValueOrDie();

  InProcessTransport wide = InProcessTransport::PerListOwners(db, 2);
  DistOptions options;
  options.replication_factor = 2;
  Coordinator r2(&wide, options);
  ASSERT_TRUE(r2.Connect().ok());
  const TopKResult second = r2.ExecuteBpa(query).ValueOrDie();

  ExpectExactParity(second, first);
  EXPECT_EQ(r2.stats().messages_sent, r1.stats().messages_sent);
  EXPECT_EQ(r2.stats().bytes_sent, r1.stats().bytes_sent);
  EXPECT_DOUBLE_EQ(r2.stats().virtual_ms, r1.stats().virtual_ms);
}

TEST(DistReplicaTest, MidQueryReplicaKillStaysExact) {
  // The headline robustness bar: kill the primary replica of one list
  // mid-query; the failover ladder (hedge to the sibling, breaker re-pick,
  // cursor handoff at the exact sorted position) keeps the answer
  // byte-identical to the single-node run — not merely certified.
  const Database db = MakeUniformDatabase(500, 4, 23);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  AlgorithmOptions memoized;
  memoized.memoize_seen_items = true;
  const TopKResult bpa_reference =
      MakeAlgorithm(AlgorithmKind::kBpa, memoized)->Execute(db, query)
          .ValueOrDie();
  const TopKResult tput_reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();

  for (const bool tput : {false, true}) {
    InProcessTransport inner = InProcessTransport::PerListOwners(db, 2);
    TransportFaultPlan plan;
    // The handshake consumes the primary's whole budget: every query RPC to
    // list 2 finds it dead, so the breaker trips and the sibling takes over.
    plan.kill_owners = {InProcessTransport::OwnerIndex(4, 2, 0)};
    plan.kill_after_messages = 1;
    FaultInjectingTransport transport(&inner, plan);
    DistOptions options;
    options.replication_factor = 2;
    options.governor.deadline_ms = 500.0;
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    const TopKResult result =
        (tput ? coordinator.ExecuteTput(query) : coordinator.ExecuteBpa(query))
            .ValueOrDie();

    ExpectExactParity(result, tput ? tput_reference : bpa_reference);
    const DistStats& stats = coordinator.stats();
    // The sibling took over as primary at least once, via the breaker.
    EXPECT_GE(stats.replica_failovers, 1u);
    EXPECT_GE(stats.breaker_opens, 1u);
    EXPECT_EQ(stats.groups_lost, 0u);
    // Hedge wins can absorb every primary failure before the retry budget
    // concludes death, so owner_deaths may legitimately stay 0 here — the
    // ladder's whole point is that the answer never notices either way.
  }
}

TEST(DistReplicaTest, CursorHandoffExactAtEveryKillPoint) {
  // Sweep the death point across the query so the handoff lands in every
  // phase — handshake, early windows, drains, random lookups. The survivor
  // resumes the sorted cursor at the exact position every time.
  const Database db = MakeUniformDatabase(400, 4, 9);
  SumScorer sum;
  const TopKQuery query{8, &sum};
  AlgorithmOptions memoized;
  memoized.memoize_seen_items = true;
  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kBpa, memoized)->Execute(db, query)
          .ValueOrDie();

  for (const uint64_t kill_after : {1u, 2u, 4u, 8u, 16u, 32u}) {
    SCOPED_TRACE(kill_after);
    InProcessTransport inner = InProcessTransport::PerListOwners(db, 2);
    TransportFaultPlan plan;
    plan.kill_owners = {InProcessTransport::OwnerIndex(4, 1, 0)};
    plan.kill_after_messages = kill_after;
    FaultInjectingTransport transport(&inner, plan);
    DistOptions options;
    options.replication_factor = 2;
    options.governor.deadline_ms = 500.0;
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    const TopKResult result = coordinator.ExecuteBpa(query).ValueOrDie();
    ExpectExactParity(result, reference);
    EXPECT_EQ(coordinator.stats().groups_lost, 0u);
  }
}

TEST(DistReplicaTest, BreakerScheduleIsDeterministic) {
  // Breaker opens, half-open probes, failovers and flapping recoveries are
  // all driven by seeded draws and virtual time — two runs of the same plan
  // agree counter-for-counter.
  const Database db = MakeUniformDatabase(600, 4, 29);
  SumScorer sum;
  const TopKQuery query{8, &sum};
  TransportFaultPlan plan;
  plan.seed = 17;
  plan.drop_rate = 0.05;
  plan.delay_rate = 0.2;
  plan.delay_ms = 2.0;
  plan.owner_death_rate = 0.5;
  plan.death_min_messages = 2;
  plan.death_max_messages = 20;
  plan.flap_revive_calls = 3;

  const auto run = [&](TopKResult* result, DistStats* stats) {
    InProcessTransport inner = InProcessTransport::PerListOwners(db, 2);
    FaultInjectingTransport transport(&inner, plan);
    DistOptions options;
    options.replication_factor = 2;
    options.governor.deadline_ms = 400.0;
    // A window and a lookup per list and 16 rows: traffic enough for the
    // owners' death windows.
    options.window_rows = 16;
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    *result = coordinator.ExecuteBpa(query).ValueOrDie();
    *stats = coordinator.stats();
  };
  TopKResult first_result, second_result;
  DistStats first, second;
  run(&first_result, &first);
  run(&second_result, &second);
  // The deadline adds real elapsed time, so a run it stopped would stop at a
  // host-speed-dependent row; the plan must finish well inside it.
  EXPECT_NE(first_result.completion, Completion::kDeadline);
  EXPECT_NE(second_result.completion, Completion::kDeadline);

  ASSERT_EQ(first_result.items.size(), second_result.items.size());
  for (size_t i = 0; i < first_result.items.size(); ++i) {
    EXPECT_EQ(first_result.items[i].item, second_result.items[i].item);
    EXPECT_DOUBLE_EQ(first_result.items[i].score,
                     second_result.items[i].score);
  }
  EXPECT_EQ(first.messages_sent, second.messages_sent);
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_EQ(first.hedges, second.hedges);
  EXPECT_EQ(first.replica_failovers, second.replica_failovers);
  EXPECT_EQ(first.breaker_opens, second.breaker_opens);
  EXPECT_EQ(first.probes_sent, second.probes_sent);
  EXPECT_EQ(first.groups_lost, second.groups_lost);
  EXPECT_DOUBLE_EQ(first.virtual_ms, second.virtual_ms);
  // The plan actually exercised the health machinery (half of eight owners
  // flap at this seed).
  EXPECT_GT(first.breaker_opens, 0u);
}

// Every DistStats field, compared exactly (virtual_ms included: the ladder's
// virtual timeline is a pure function of the seeds).
void ExpectSameDistStats(const DistStats& got, const DistStats& want) {
  EXPECT_EQ(got.messages_sent, want.messages_sent);
  EXPECT_EQ(got.replies_received, want.replies_received);
  EXPECT_EQ(got.bytes_sent, want.bytes_sent);
  EXPECT_EQ(got.bytes_received, want.bytes_received);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.hedges, want.hedges);
  EXPECT_EQ(got.hedge_wins, want.hedge_wins);
  EXPECT_EQ(got.duplicate_replies, want.duplicate_replies);
  EXPECT_EQ(got.timeouts, want.timeouts);
  EXPECT_EQ(got.owner_deaths, want.owner_deaths);
  EXPECT_EQ(got.replica_failovers, want.replica_failovers);
  EXPECT_EQ(got.breaker_opens, want.breaker_opens);
  EXPECT_EQ(got.probes_sent, want.probes_sent);
  EXPECT_EQ(got.groups_lost, want.groups_lost);
  EXPECT_EQ(got.virtual_ms, want.virtual_ms);
}

// The faulted ladder's exact outcome: answers, access counts and every
// DistStats field of one seeded R = 2 run per engine. SameSeedSameRun and
// BreakerScheduleIsDeterministic compare two runs of one binary, so they
// cannot see a change in WHICH attempts hedge, retry or fail over; these
// values were captured once and must not move when the coordinator's hot
// path is reworked. The plan makes every rung fire on both engines: retries,
// hedges and hedge wins, breaker opens, probes and replica failovers. dBPA
// runs 10-row windows, dTPUT 16-row ones: dBPA sends a window and a lookup
// per list and window, so its narrower windows give the flapping replicas
// enough traffic for every rung.
TEST(DistReplicaTest, FaultedLadderCountersArePinned) {
  const Database db = MakeUniformDatabase(1000, 4, 41);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  TransportFaultPlan plan;
  plan.seed = 5;
  plan.drop_rate = 0.1;
  plan.delay_rate = 0.1;
  plan.delay_ms = 5.0;
  plan.duplicate_rate = 0.1;
  // Replica 0 of lists 0 and 2 flaps: down after 6 served messages, back
  // after rejecting 4 calls, again and again.
  plan.kill_owners = {InProcessTransport::OwnerIndex(4, 0, 0),
                      InProcessTransport::OwnerIndex(4, 2, 0)};
  plan.kill_after_messages = 6;
  plan.death_min_messages = 6;
  plan.death_max_messages = 6;
  plan.flap_revive_calls = 4;

  // Both engines answer exactly (replica 1 never fails, so no group dies).
  const std::vector<ResultItem> items = {
      {27, 3.7903209076089874},  {813, 3.5946281858124229},
      {823, 3.5885327642365485}, {705, 3.5594281435293467},
      {829, 3.4911626050654689}, {485, 3.4180504016489461},
      {816, 3.3322909659087423}, {395, 3.3218098653744423},
      {118, 3.3025115285228037}, {790, 3.2710523499394575}};
  struct Pinned {
    bool tput;
    uint64_t sorted_accesses;
    uint64_t random_accesses;
    DistStats stats;
  };
  const Pinned pinned[] = {
      {false, 744, 1719,
       DistStats{.messages_sent = 187,
                 .replies_received = 180,
                 .bytes_sent = 11228,
                 .bytes_received = 37824,
                 .rounds = 186,
                 .retries = 8,
                 .hedges = 22,
                 .hedge_wins = 20,
                 .duplicate_replies = 26,
                 .timeouts = 11,
                 .owner_deaths = 0,
                 .replica_failovers = 2,
                 .breaker_opens = 4,
                 .probes_sent = 4,
                 .groups_lost = 0,
                 .virtual_ms = 147.34979014682511}},
      {true, 2978, 0,
       DistStats{.messages_sent = 229,
                 .replies_received = 222,
                 .bytes_sent = 3664,
                 .bytes_received = 45048,
                 .rounds = 3,
                 .retries = 11,
                 .hedges = 23,
                 .hedge_wins = 21,
                 .duplicate_replies = 30,
                 .timeouts = 14,
                 .owner_deaths = 0,
                 .replica_failovers = 2,
                 .breaker_opens = 4,
                 .probes_sent = 4,
                 .groups_lost = 0,
                 .virtual_ms = 199.08660820123802}},
  };

  for (const Pinned& want : pinned) {
    SCOPED_TRACE(want.tput ? "dTPUT" : "dBPA");
    InProcessTransport inner = InProcessTransport::PerListOwners(db, 2);
    FaultInjectingTransport transport(&inner, plan);
    DistOptions options;
    options.replication_factor = 2;
    options.window_rows = want.tput ? 16 : 10;
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    const TopKResult result = (want.tput ? coordinator.ExecuteTput(query)
                                         : coordinator.ExecuteBpa(query))
                                  .ValueOrDie();

    EXPECT_EQ(result.completion, Completion::kExact);
    ASSERT_EQ(result.items.size(), items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(result.items[i].item, items[i].item) << "rank " << i;
      EXPECT_EQ(result.items[i].score, items[i].score) << "rank " << i;
    }
    EXPECT_EQ(result.stats.sorted_accesses, want.sorted_accesses);
    EXPECT_EQ(result.stats.random_accesses, want.random_accesses);
    ExpectSameDistStats(coordinator.stats(), want.stats);
    // Every rung fired.
    const DistStats& stats = coordinator.stats();
    EXPECT_GT(stats.retries, 0u);
    EXPECT_GT(stats.hedges, 0u);
    EXPECT_GT(stats.hedge_wins, 0u);
    EXPECT_GT(stats.breaker_opens, 0u);
    EXPECT_GT(stats.probes_sent, 0u);
    EXPECT_GT(stats.replica_failovers, 0u);
  }
}

// The fault-free wire timeline, pinned like the faulted ladder above: the
// answer, access counts and every DistStats field of both engines at R = 1,
// on per-list owners and on multi-list owners (lists {0, 2} and {1, 3}).
// window_rows = 16 with k = 50 makes TPUT's phase 1 span four windows
// (16 + 16 + 16 + 2 rows) and its drains cross window edges, and BPA's 256
// rows take 16 spans: per list, 16 windows and 16 lookups. Values were
// captured once; a change in the message sequence moves them.
TEST_F(DistParityTest, FaultFreeWireCountsArePinned) {
  const Database db = MakeUniformDatabase(1000, 4, 41);
  SumScorer sum;
  const TopKQuery query{50, &sum};
  const std::vector<ResultItem> items = {
      {27, 3.7903209076089874},  {813, 3.5946281858124229},
      {823, 3.5885327642365485}, {705, 3.5594281435293467},
      {829, 3.4911626050654689}, {485, 3.4180504016489461},
      {816, 3.3322909659087423}, {395, 3.3218098653744423},
      {118, 3.3025115285228037}, {790, 3.2710523499394575},
      {873, 3.2706632445838904}, {365, 3.2619007944163934},
      {842, 3.2355306733230353}, {619, 3.2315358317443792},
      {184, 3.2220009487162793}, {21, 3.2151851507416298},
      {667, 3.2032225068147264}, {661, 3.1987309540222748},
      {460, 3.1971689992930905}, {554, 3.1730174583715374},
      {347, 3.1719568708206798}, {89, 3.162073336100812},
      {413, 3.1511473169417128}, {370, 3.1470472918397103},
      {115, 3.1452747794542328}, {825, 3.119306774494623},
      {706, 3.0926289122222523}, {22, 3.0915458215866822},
      {925, 3.0846676660216215}, {393, 3.0843988579574138},
      {133, 3.078353427633389},  {767, 3.0775828369166303},
      {10, 3.0642678676257411},  {654, 3.0593195556363653},
      {245, 3.0536156552734299}, {98, 3.0482411166077941},
      {442, 3.0443497640379005}, {838, 3.0420280386059608},
      {502, 3.0418043593759538}, {418, 3.0394827124560231},
      {253, 3.0180645379568967}, {153, 3.017360727336154},
      {862, 3.0023871998869116}, {415, 2.9957510671430967},
      {663, 2.9946883144413925}, {992, 2.9837150169246165},
      {490, 2.9719337593143171}, {553, 2.9706704957275534},
      {362, 2.9665244595300404}, {910, 2.9609521018006304}};
  struct Pinned {
    bool tput;
    uint64_t sorted_accesses;
    uint64_t random_accesses;
    DistStats stats;
  };
  const Pinned pinned[] = {
      {false, 1024, 2103,
       DistStats{.messages_sent = 128,
                 .replies_received = 128,
                 .bytes_sent = 10460,
                 .bytes_received = 39572,
                 .rounds = 256,
                 .virtual_ms = 6.3999999999999853}},
      {true, 2987, 4,
       DistStats{.messages_sent = 194,
                 .replies_received = 194,
                 .bytes_sent = 3120,
                 .bytes_received = 38996,
                 .rounds = 3,
                 .virtual_ms = 9.7000000000000028}},
  };

  for (const bool packed : {false, true}) {
    for (const Pinned& want : pinned) {
      SCOPED_TRACE(std::string(want.tput ? "dTPUT" : "dBPA") +
                   (packed ? " on owners {0, 2}, {1, 3}" : " per list"));
      InProcessTransport transport = InProcessTransport::PerListOwners(db);
      if (packed) {
        transport = InProcessTransport();
        transport.AddOwner(ListOwner(&db, {0, 2}));
        transport.AddOwner(ListOwner(&db, {1, 3}));
      }
      DistOptions options;
      options.window_rows = 16;
      Coordinator coordinator(&transport, options);
      ASSERT_TRUE(coordinator.Connect().ok());
      const TopKResult result = (want.tput ? coordinator.ExecuteTput(query)
                                           : coordinator.ExecuteBpa(query))
                                    .ValueOrDie();

      EXPECT_EQ(result.completion, Completion::kExact);
      ASSERT_EQ(result.items.size(), items.size());
      for (size_t i = 0; i < items.size(); ++i) {
        EXPECT_EQ(result.items[i].item, items[i].item) << "rank " << i;
        EXPECT_EQ(result.items[i].score, items[i].score) << "rank " << i;
      }
      EXPECT_EQ(result.stats.sorted_accesses, want.sorted_accesses);
      EXPECT_EQ(result.stats.random_accesses, want.random_accesses);
      ExpectSameDistStats(coordinator.stats(), want.stats);
    }
  }
}

TEST(DistReplicaTest, WholeGroupDeathDegradesToCertifiedAnswer) {
  // Correlated failure: both replicas of one list die. No ladder rung can
  // save an extinct group, so the query degrades exactly like PR 8's
  // single-owner death — θ-certified NRA over the survivors.
  const Database db = MakeUniformDatabase(500, 4, 23);
  SumScorer sum;
  const TopKQuery query{10, &sum};

  for (const bool tput : {false, true}) {
    InProcessTransport inner = InProcessTransport::PerListOwners(db, 2);
    TransportFaultPlan plan;
    plan.kill_owners = {InProcessTransport::OwnerIndex(4, 1, 0),
                        InProcessTransport::OwnerIndex(4, 1, 1)};
    plan.kill_after_messages = 4;
    FaultInjectingTransport transport(&inner, plan);
    DistOptions options;
    options.replication_factor = 2;
    if (!tput) {
      // dBPA sends a list one window and one lookup per window; 16-row
      // windows run both replicas' budgets out inside the query.
      options.window_rows = 16;
    }
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    const TopKResult result =
        (tput ? coordinator.ExecuteTput(query) : coordinator.ExecuteBpa(query))
            .ValueOrDie();

    EXPECT_TRUE(result.failed_over);
    EXPECT_EQ(result.completion, Completion::kListFailure);
    EXPECT_GE(result.dead_lists, 1u);
    EXPECT_GE(result.theta, 1.0);
    const DistStats& stats = coordinator.stats();
    EXPECT_GE(stats.owner_deaths, 2u);
    EXPECT_GE(stats.groups_lost, 1u);
  }
}

// ---- The single-node result contract (FinishResult) ----

TEST(DistContractTest, StrictModeRejectsBudgetTrips) {
  const Database db = MakeUniformDatabase(2000, 4, 29);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  DistOptions options;
  options.governor.strict = true;
  options.governor.total_access_budget = 200;
  for (const bool tput : {false, true}) {
    SCOPED_TRACE(tput ? "dTPUT" : "dBPA");
    InProcessTransport transport = InProcessTransport::PerListOwners(db);
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    const Result<TopKResult> run =
        tput ? coordinator.ExecuteTput(query) : coordinator.ExecuteBpa(query);
    ASSERT_FALSE(run.ok());
    EXPECT_TRUE(run.status().IsResourceExhausted()) << run.status().ToString();
    EXPECT_NE(run.status().message().find("StrictMode"), std::string::npos);
  }
}

TEST(DistContractTest, StrictModeRejectsALostGroup) {
  const Database db = MakeUniformDatabase(500, 4, 23);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  for (const bool tput : {false, true}) {
    SCOPED_TRACE(tput ? "dTPUT" : "dBPA");
    InProcessTransport inner = InProcessTransport::PerListOwners(db, 2);
    TransportFaultPlan plan;
    plan.kill_owners = {InProcessTransport::OwnerIndex(4, 1, 0),
                        InProcessTransport::OwnerIndex(4, 1, 1)};
    plan.kill_after_messages = 4;
    FaultInjectingTransport transport(&inner, plan);
    DistOptions options;
    options.replication_factor = 2;
    options.governor.strict = true;
    if (!tput) {
      // 16-row windows, as in WholeGroupDeathDegradesToCertifiedAnswer.
      options.window_rows = 16;
    }
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    const Result<TopKResult> run =
        tput ? coordinator.ExecuteTput(query) : coordinator.ExecuteBpa(query);
    ASSERT_FALSE(run.ok());
    EXPECT_TRUE(run.status().IsUnavailable()) << run.status().ToString();
    EXPECT_NE(run.status().message().find("StrictMode"), std::string::npos);
  }
}

TEST(DistContractTest, ExactAnswersCollapseTheCertificate) {
  const Database db = MakeUniformDatabase(2000, 4, 29);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  for (const bool tput : {false, true}) {
    SCOPED_TRACE(tput ? "dTPUT" : "dBPA");
    InProcessTransport transport = InProcessTransport::PerListOwners(db);
    Coordinator coordinator(&transport, DistOptions{});
    ASSERT_TRUE(coordinator.Connect().ok());
    const TopKResult result =
        (tput ? coordinator.ExecuteTput(query) : coordinator.ExecuteBpa(query))
            .ValueOrDie();
    ASSERT_EQ(result.completion, Completion::kExact);
    ASSERT_EQ(result.items.size(), query.k);
    EXPECT_GT(result.items.back().score, 0.0);
    EXPECT_EQ(result.kth_lower_bound, result.items.back().score);
    EXPECT_EQ(result.unreturned_upper_bound, result.items.back().score);
    EXPECT_EQ(result.theta, 1.0);
  }
}

// Under access budgets the distributed engines stop where the single-node
// loops stop — they are those loops — so the anytime answers, certificates,
// stop positions and access counts agree exactly with memoized BPA and TPUT.
TEST(DistContractTest, GovernedRunsMatchSingleNode) {
  const Database db = MakeUniformDatabase(1000, 4, 5);
  SumScorer sum;
  const TopKQuery query{20, &sum};
  GovernorLimits budgets[3];
  budgets[0].sorted_access_budget = 300;
  budgets[1].random_access_budget = 200;
  budgets[2].total_access_budget = 500;
  size_t tripped = 0;
  for (const GovernorLimits& limits : budgets) {
    for (const bool tput : {false, true}) {
      SCOPED_TRACE(std::string(tput ? "dTPUT" : "dBPA") + " sorted=" +
                   std::to_string(limits.sorted_access_budget) + " random=" +
                   std::to_string(limits.random_access_budget) + " total=" +
                   std::to_string(limits.total_access_budget));
      AlgorithmOptions single;
      single.memoize_seen_items = true;
      single.score_floor = DeriveScoreFloor(db);
      single.governor = limits;
      const TopKResult reference =
          MakeAlgorithm(tput ? AlgorithmKind::kTput : AlgorithmKind::kBpa,
                        single)
              ->Execute(db, query)
              .ValueOrDie();
      tripped += reference.completion != Completion::kExact ? 1 : 0;

      InProcessTransport transport = InProcessTransport::PerListOwners(db);
      DistOptions options;
      options.governor = limits;
      Coordinator coordinator(&transport, options);
      ASSERT_TRUE(coordinator.Connect().ok());
      const TopKResult dist = (tput ? coordinator.ExecuteTput(query)
                                    : coordinator.ExecuteBpa(query))
                                  .ValueOrDie();

      ASSERT_EQ(dist.items.size(), reference.items.size());
      for (size_t i = 0; i < reference.items.size(); ++i) {
        EXPECT_EQ(dist.items[i].item, reference.items[i].item) << "rank " << i;
        EXPECT_EQ(dist.items[i].score, reference.items[i].score);
      }
      EXPECT_EQ(dist.completion, reference.completion);
      EXPECT_EQ(dist.theta, reference.theta);
      EXPECT_EQ(dist.kth_lower_bound, reference.kth_lower_bound);
      EXPECT_EQ(dist.unreturned_upper_bound, reference.unreturned_upper_bound);
      EXPECT_EQ(dist.stop_position, reference.stop_position);
      EXPECT_EQ(dist.stats.sorted_accesses, reference.stats.sorted_accesses);
      EXPECT_EQ(dist.stats.random_accesses, reference.stats.random_accesses);
    }
  }
  // Every budget trips both engines, except TPUT's random budget: this
  // workload's τ2 survivors are all fully seen, so phase 3 reads nothing.
  EXPECT_EQ(tripped, 5u);
}

TEST(DistReplicaTest, ChaosSoakExactOrCertifiedUnderDeadline) {
  // Seeded chaos across drops, delays, flapping deaths and both replication
  // levels: every query must return inside the governor deadline with a
  // certified answer, and any run that claims exactness must BE exact.
  const Database db = MakeUniformDatabase(600, 4, 29);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  AlgorithmOptions memoized;
  memoized.memoize_seen_items = true;
  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kBpa, memoized)->Execute(db, query)
          .ValueOrDie();

  for (const size_t replicas : {size_t{1}, size_t{2}}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "replicas " << replicas << " seed " << seed);
      InProcessTransport inner =
          InProcessTransport::PerListOwners(db, replicas);
      TransportFaultPlan plan;
      plan.seed = seed;
      plan.drop_rate = 0.05;
      plan.delay_rate = 0.3;
      plan.delay_ms = 2.0;
      plan.owner_death_rate = 0.15;
      plan.death_min_messages = 2;
      plan.death_max_messages = 40;
      plan.flap_revive_calls = 2;
      FaultInjectingTransport transport(&inner, plan);
      DistOptions options;
      options.replication_factor = static_cast<uint32_t>(replicas);
      options.governor.deadline_ms = 250.0;
      Coordinator coordinator(&transport, options);
      ASSERT_TRUE(coordinator.Connect().ok());
      const Result<TopKResult> run = coordinator.ExecuteBpa(query);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const TopKResult& result = run.ValueOrDie();

      EXPECT_GE(result.theta, 1.0);
      EXPECT_LT(coordinator.stats().virtual_ms, 2.0 * 250.0);
      if (result.completion == Completion::kExact) {
        ExpectExactParity(result, reference);
      } else {
        EXPECT_GE(result.theta, 1.0);
        EXPECT_TRUE(std::isfinite(result.unreturned_upper_bound) ||
                    result.items.empty());
      }
    }
  }
}

TEST(DistReplicaTest, ConnectRejectsMismatchedReplicaCounts) {
  const Database db = MakeUniformDatabase(100, 3, 7);
  // One owner per list, but the options promise two replicas each.
  InProcessTransport flat = InProcessTransport::PerListOwners(db);
  DistOptions two;
  two.replication_factor = 2;
  Coordinator under(&flat, two);
  EXPECT_TRUE(under.Connect().IsInvalid());
  // Two owners per list, but the options promise one.
  InProcessTransport wide = InProcessTransport::PerListOwners(db, 2);
  Coordinator over(&wide, DistOptions{});
  EXPECT_TRUE(over.Connect().IsInvalid());
}

TEST(DistReplicaTest, ConnectRejectsDivergentReplicaCatalogs) {
  // Replicas must mirror the same list: a sibling serving a different
  // database is a misconfiguration, not a failover target.
  const Database db = MakeUniformDatabase(100, 2, 7);
  const Database impostor = MakeUniformDatabase(100, 2, 8);
  InProcessTransport transport;
  transport.AddOwner(ListOwner(&db, {0}));
  transport.AddOwner(ListOwner(&db, {1}));
  transport.AddOwner(ListOwner(&impostor, {0}));
  transport.AddOwner(ListOwner(&impostor, {1}));
  DistOptions options;
  options.replication_factor = 2;
  Coordinator coordinator(&transport, options);
  EXPECT_TRUE(coordinator.Connect().IsInvalid());
}

// ---- Fault transport: replica-aware plans ----

// Pins the death-window contract documented in fault_injecting_transport.h:
// every owner's death point counts ITS OWN served messages, so interleaved
// traffic to a sibling never drags another owner's window forward.
TEST(DistFaultTransportTest, DeathWindowsCountPerOwnerMessages) {
  const Database db = MakeUniformDatabase(50, 2, 3);
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.kill_owners = {0, 1};
  plan.kill_after_messages = 2;
  FaultInjectingTransport transport(&inner, plan);
  Request request;
  request.type = MessageType::kHello;
  Reply reply;
  CallResult call;

  EXPECT_TRUE(transport.Call(0, request, &reply, &call).ok());  // 0: 1 of 2
  EXPECT_TRUE(transport.Call(1, request, &reply, &call).ok());  // 1: 1 of 2
  EXPECT_TRUE(transport.Call(0, request, &reply, &call).ok());  // 0: 2 of 2
  // Owner 0 has served its window; owner 1 has one message left even though
  // the transport as a whole carried three.
  EXPECT_TRUE(transport.Call(0, request, &reply, &call).IsUnavailable());
  EXPECT_FALSE(transport.OwnerAlive(0));
  EXPECT_TRUE(transport.Call(1, request, &reply, &call).ok());  // 1: 2 of 2
  EXPECT_TRUE(transport.Call(1, request, &reply, &call).IsUnavailable());
  EXPECT_FALSE(transport.OwnerAlive(1));
  EXPECT_EQ(transport.fault_stats().dead_owners, 2u);
}

TEST(DistFaultTransportTest, FlappingRevivesAfterExactRejectionWindow) {
  const Database db = MakeUniformDatabase(50, 1, 3);
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.kill_owners = {0};
  plan.kill_after_messages = 2;
  plan.flap_revive_calls = 3;
  FaultInjectingTransport transport(&inner, plan);
  Request request;
  request.type = MessageType::kHello;
  Reply reply;
  CallResult call;

  // Serves its window, rejects exactly flap_revive_calls calls (the last
  // rejection is the one that revives it), then serves again.
  EXPECT_TRUE(transport.Call(0, request, &reply, &call).ok());
  EXPECT_TRUE(transport.Call(0, request, &reply, &call).ok());
  for (int down = 0; down < 3; ++down) {
    EXPECT_TRUE(transport.Call(0, request, &reply, &call).IsUnavailable());
  }
  EXPECT_TRUE(transport.OwnerAlive(0));
  EXPECT_TRUE(transport.Call(0, request, &reply, &call).ok());
  EXPECT_EQ(transport.fault_stats().owner_revivals, 1u);
  EXPECT_EQ(transport.fault_stats().dead_owners, 1u);

  // The redrawn death point is capped by the targeted kill, so the owner
  // dies again within two served messages and flaps through the same
  // exact-width down window.
  int served_after_revival = 1;
  while (transport.Call(0, request, &reply, &call).ok()) {
    ++served_after_revival;
  }
  EXPECT_LE(served_after_revival, 2);
  EXPECT_EQ(transport.fault_stats().dead_owners, 2u);
  for (int down = 0; down < 2; ++down) {
    EXPECT_TRUE(transport.Call(0, request, &reply, &call).IsUnavailable());
  }
  EXPECT_TRUE(transport.OwnerAlive(0));
  EXPECT_EQ(transport.fault_stats().owner_revivals, 2u);
}

// The transport schedule's own timeline, driven without a coordinator:
// random-window deaths, flap redraws capped by a targeted kill, drops,
// delays and duplicates, over 3,000 calls spread unevenly across 8 owners.
// Each owner's line lists the calls at which it died (d) and revived (r).
TEST(DistFaultTransportTest, ScheduleTimelineIsPinned) {
  const Database db = MakeUniformDatabase(50, 4, 3);
  InProcessTransport inner = InProcessTransport::PerListOwners(db, 2);
  struct Pin {
    uint64_t seed;
    uint64_t dropped, delayed, duplicated;
    uint32_t deaths, revivals;
    std::vector<std::string> owners;
  };
  const Pin pins[] = {
      {5, 278, 340, 267, 54, 54,
       {
           "",
           " d215 r258 d475 r518 d640 r683 d900 r943 d1160 r1203 d1264 r1307"
           " d1524 r1567 d1784 r1827 d2044 r2087 d2295 r2338 d2520 r2564"
           " d2754 r2798 d2850 r2893",
           "",
           "",
           " d194 r221 d481 r515 d645 r680 d732 r766 d949 r983 d1018 r1052"
           " d1304 r1338 d1364 r1391 d1607 r1642 d1703 r1737 d1910 r1937"
           " d2119 r2153 d2352 r2379 d2431 r2465 d2665 r2699 d2933 r2968",
           " d98 r141 d254 r297 d427 r471 d705 r748 d1043 r1086 d1216 r1259"
           " d1433 r1476 d1823 r1866 d2143 r2187 d2464 r2507 d2611 r2655",
           " d28 r71 d288 r331 d400 r444 d660 r704 d903 r946 d1102 r1146"
           " d1189 r1232 d1449 r1492 d1631 r1674 d1778 r1822 d1978 r2021"
           " d2220 r2264 d2480 r2524 d2740 r2784",
           "",
       }},
      {17, 287, 369, 237, 87, 83,
       {
           "",
           " d215 r258 d336 r380 d596 r640 d752 r796 d1012 r1056 d1272 r1316"
           " d1428 r1472 d1541 r1584 d1801 r1844 d1914 r1957 d2174 r2217"
           " d2434 r2477 d2538 r2581 d2798 r2841",
           " d327 r370 d413 r457 d665 r708 d777 r821 d1098 r1141 d1445 r1488"
           " d1592 r1635 d1913 r1956 d2259 r2303 d2372 r2415 d2693 r2736"
           " d2771 r2814 d2901 r2944",
           " d256 r300 d629 r672 d950 r993 d1062 r1106 d1270 r1314 d1660"
           " r1704 d1877 r1920 d2163 r2206 d2466 r2510 d2752 r2796 d2978",
           " d134 r168 d195 r229 d351 r385 d472 r506 d637 r671 d810 r844"
           " d1070 r1104 d1330 r1364 d1382 r1416 d1676 r1703 d1945 r1980"
           " d2162 r2196 d2240 r2274 d2352 r2379 d2430 r2457 d2482 r2509"
           " d2699 r2734 d2933 r2968 d2994",
           " d271 r315 d566 r609 d939 r982 d1121 r1164 d1502 r1545 d1597"
           " r1641 d1953 r1996 d2109 r2152 d2325 r2369 d2689 r2733 d2984",
           " d71 r114 d210 r253 d470 r513 d712 r756 d860 r903 d929 r972"
           " d1076 r1120 d1284 r1328 d1414 r1458 d1544 r1588 d1648 r1692"
           " d1735 r1778 d1900 r1943 d2004 r2047 d2229 r2272 d2489 r2532"
           " d2680 r2723 d2784 r2827 d2992",
           "",
       }},
  };
  Request request;
  request.type = MessageType::kHello;
  Reply reply;
  CallResult call;
  for (const Pin& pin : pins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    TransportFaultPlan plan;
    plan.seed = pin.seed;
    plan.drop_rate = 0.1;
    plan.delay_rate = 0.15;
    plan.delay_ms = 3.0;
    plan.duplicate_rate = 0.1;
    plan.owner_death_rate = 0.5;
    plan.death_min_messages = 3;
    plan.death_max_messages = 40;
    plan.kill_owners = {1, 6};
    plan.kill_after_messages = 25;
    plan.flap_revive_calls = 5;
    FaultInjectingTransport transport(&inner, plan);
    std::vector<std::string> owners(inner.num_owners());
    for (size_t t = 0; t < 3000; ++t) {
      const size_t owner = (7 * t + t / 13) % owners.size();
      const bool was_alive = transport.OwnerAlive(owner);
      (void)transport.Call(owner, request, &reply, &call);
      if (transport.OwnerAlive(owner) != was_alive) {
        owners[owner] += (was_alive ? " d" : " r") + std::to_string(t);
      }
    }
    EXPECT_EQ(owners, pin.owners);
    const TransportFaultStats& stats = transport.fault_stats();
    EXPECT_EQ(stats.dropped_messages, pin.dropped);
    EXPECT_EQ(stats.delayed_messages, pin.delayed);
    EXPECT_EQ(stats.duplicated_replies, pin.duplicated);
    EXPECT_EQ(stats.dead_owners, pin.deaths);
    EXPECT_EQ(stats.owner_revivals, pin.revivals);
  }
}

// ---- DistOptions validation ----

TEST(DistOptionsTest, ValidateRejectsBadKnobs) {
  DistOptions options;
  EXPECT_TRUE(options.Validate("DistBPA", 0).IsInvalid());
  options = DistOptions{};
  options.window_rows = 0;
  EXPECT_TRUE(options.Validate("DistBPA", 3).IsInvalid());
  options = DistOptions{};
  options.replication_factor = 0;
  EXPECT_TRUE(options.Validate("DistBPA", 3).IsInvalid());
  options = DistOptions{};
  EXPECT_TRUE(options.Validate("DistBPA", 3).ok());
}

TEST(DistCoordinatorTest, RejectsQueriesBeforeConnect) {
  const Database db = MakeUniformDatabase(50, 3, 2);
  SumScorer sum;
  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  EXPECT_TRUE(coordinator.ExecuteBpa(TopKQuery{3, &sum}).status().IsInvalid());
}

// ---- Coordinator: malformed owner replies ----

// Forwards every call to `inner`, then corrupts what one owner answers to one
// message type: the buggy or hostile owner whose reply fields the
// coordinator must reject by name instead of indexing with them.
class CorruptingTransport final : public Transport {
 public:
  using Corrupt = std::function<void(const Request&, Reply*)>;

  CorruptingTransport(Transport* inner, size_t owner, MessageType type,
                      Corrupt corrupt)
      : inner_(inner), owner_(owner), type_(type),
        corrupt_(std::move(corrupt)) {}

  size_t num_owners() const override { return inner_->num_owners(); }

  Status Call(size_t owner, const Request& request, Reply* reply,
              CallResult* result) override {
    Status status = inner_->Call(owner, request, reply, result);
    if (status.ok() && owner == owner_ && request.type == type_) {
      corrupt_(request, reply);
    }
    return status;
  }

 private:
  Transport* inner_;
  size_t owner_;
  MessageType type_;
  Corrupt corrupt_;
};

struct CorruptionCase {
  const char* name;
  bool tput;
  MessageType type;
  CorruptingTransport::Corrupt corrupt;
  const char* field;  // the reply field the error must name
};

TEST(DistReplyTest, MalformedRepliesAreRejectedByName) {
  constexpr size_t kN = 500;
  const Database db = MakeUniformDatabase(kN, 3, 13);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const CorruptionCase cases[] = {
      // An empty window: dBPA would read past the buffer, dTPUT's phase-1
      // cursor would never advance.
      {"empty window (dBPA)", false, MessageType::kSortedWindow,
       [](const Request&, Reply* r) { r->entries.clear(); }, "entries"},
      {"empty window (dTPUT)", true, MessageType::kSortedWindow,
       [](const Request&, Reply* r) { r->entries.clear(); }, "entries"},
      {"short window", false, MessageType::kSortedWindow,
       [](const Request&, Reply* r) { r->entries.pop_back(); }, "entries"},
      {"long window", false, MessageType::kSortedWindow,
       [](const Request&, Reply* r) { r->entries.push_back(r->entries[0]); },
       "entries"},
      {"window item out of range", false, MessageType::kSortedWindow,
       [](const Request&, Reply* r) { r->entries[3].item = kN; },
       "entries[3].item"},
      {"NaN window score", true, MessageType::kSortedWindow,
       [nan](const Request&, Reply* r) { r->entries[0].score = nan; },
       "entries[0].score"},
      // An empty drain never advances dTPUT's phase-2 depth.
      {"empty drain", true, MessageType::kDrain,
       [](const Request&, Reply* r) { r->entries.clear(); }, "entries"},
      {"oversized drain", true, MessageType::kDrain,
       [](const Request& q, Reply* r) {
         r->entries.resize(q.max_entries + 1, r->entries[0]);
       },
       "entries"},
      {"infinite drain score", true, MessageType::kDrain,
       [inf](const Request&, Reply* r) { r->entries.back().score = -inf; },
       ".score"},
      // Lookup answers index dBPA's per-row pending table and its seen
      // positions.
      {"short lookup", false, MessageType::kRandomLookup,
       [](const Request&, Reply* r) { r->lookups.pop_back(); }, "lookups"},
      {"long lookup", false, MessageType::kRandomLookup,
       [](const Request&, Reply* r) { r->lookups.push_back(r->lookups[0]); },
       "lookups"},
      {"lookup position 0", false, MessageType::kRandomLookup,
       [](const Request&, Reply* r) { r->lookups[0].position = 0; },
       "lookups[0].position"},
      {"lookup position past n", false, MessageType::kRandomLookup,
       [](const Request&, Reply* r) { r->lookups[0].position = kN + 1; },
       "lookups[0].position"},
      {"NaN lookup score", false, MessageType::kRandomLookup,
       [nan](const Request&, Reply* r) { r->lookups[0].score = nan; },
       "lookups[0].score"},
  };
  const char* type_names[] = {"hello", "window", "drain", "lookup", "probe"};
  for (const CorruptionCase& c : cases) {
    SCOPED_TRACE(c.name);
    InProcessTransport inner = InProcessTransport::PerListOwners(db);
    CorruptingTransport transport(&inner, /*owner=*/1, c.type, c.corrupt);
    Coordinator coordinator(&transport, DistOptions{});
    ASSERT_TRUE(coordinator.Connect().ok());
    const Result<TopKResult> run = c.tput ? coordinator.ExecuteTput(query)
                                          : coordinator.ExecuteBpa(query);
    ASSERT_FALSE(run.ok());
    const Status& status = run.status();
    EXPECT_TRUE(status.IsInvalid()) << status.ToString();
    const std::string message = status.message();
    EXPECT_NE(message.find("owner 1 "), std::string::npos) << message;
    EXPECT_NE(message.find("list 1"), std::string::npos) << message;
    EXPECT_NE(message.find(type_names[static_cast<size_t>(c.type)]),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(c.field), std::string::npos) << message;
    // A protocol bug is not a fault: nothing was retried or degraded.
    EXPECT_EQ(coordinator.stats().retries, 0u);
    EXPECT_EQ(coordinator.stats().owner_deaths, 0u);
  }
}

TEST(DistReplyTest, NonFiniteOrInvertedCatalogsAreRejected) {
  const Database db = MakeUniformDatabase(200, 3, 13);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct CatalogCase {
    const char* name;
    CorruptingTransport::Corrupt corrupt;
  };
  const CatalogCase cases[] = {
      {"NaN max", [nan](const Request&, Reply* r) {
         r->catalog[0].max_score = nan;
       }},
      {"+inf max", [inf](const Request&, Reply* r) {
         r->catalog[0].max_score = inf;
       }},
      {"-inf max", [inf](const Request&, Reply* r) {
         r->catalog[0].max_score = -inf;
       }},
      {"-inf min", [inf](const Request&, Reply* r) {
         r->catalog[0].min_score = -inf;
       }},
      {"NaN min", [nan](const Request&, Reply* r) {
         r->catalog[0].min_score = nan;
       }},
      {"min above max", [](const Request&, Reply* r) {
         r->catalog[0].min_score = r->catalog[0].max_score + 1.0;
       }},
  };
  for (const CatalogCase& c : cases) {
    SCOPED_TRACE(c.name);
    InProcessTransport inner = InProcessTransport::PerListOwners(db);
    CorruptingTransport transport(&inner, /*owner=*/1, MessageType::kHello,
                                  c.corrupt);
    Coordinator coordinator(&transport, DistOptions{});
    const Status status = coordinator.Connect();
    ASSERT_TRUE(status.IsInvalid()) << status.ToString();
    const std::string message = status.message();
    EXPECT_NE(message.find("owner 1"), std::string::npos) << message;
    EXPECT_NE(message.find("list 1"), std::string::npos) << message;
    EXPECT_NE(message.find("max_score"), std::string::npos) << message;
    EXPECT_NE(message.find("min_score"), std::string::npos) << message;
    // A rejected handshake leaves the coordinator unusable, not half-built.
    SumScorer sum;
    EXPECT_TRUE(
        coordinator.ExecuteBpa(TopKQuery{5, &sum}).status().IsInvalid());
  }
}

TEST(DistCoordinatorTest, RejectsBadK) {
  const Database db = MakeUniformDatabase(50, 3, 2);
  SumScorer sum;
  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  EXPECT_TRUE(coordinator.ExecuteBpa(TopKQuery{0, &sum}).status().IsInvalid());
  EXPECT_TRUE(
      coordinator.ExecuteBpa(TopKQuery{51, &sum}).status().IsInvalid());
}

}  // namespace
}  // namespace topk
