// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "lists/access_engine.h"

#include <gtest/gtest.h>

#include "core/list_io.h"
#include "lists/access_stats.h"
#include "lists/database.h"
#include "lists/fault_injection.h"

namespace topk {
namespace {

// The local read policies (core/list_io.h) over the engine that keeps their
// counts and audit trail.

Database SmallDb() {
  // 4 items, 2 lists.
  return Database::FromScoreMatrix({{4.0, 1.0},
                                    {3.0, 2.0},
                                    {2.0, 3.0},
                                    {1.0, 4.0}})
      .ValueOrDie();
}

AccessEngine ResetEngine(const Database& db, bool audit = false) {
  AccessEngine engine;
  engine.Reset(db.num_lists(), db.num_items(), audit);
  return engine;
}

TEST(AccessEngineTest, SortedAccessWalksDescending) {
  Database db = SmallDb();
  AccessEngine engine = ResetEngine(db);
  RawListIo io(&db, &engine);
  const AccessedEntry e1 = io.Sorted(0, 1);
  EXPECT_EQ(e1.item, 0u);
  EXPECT_DOUBLE_EQ(e1.score, 4.0);
  EXPECT_EQ(e1.position, 1u);
  const AccessedEntry e2 = io.Sorted(0, 2);
  EXPECT_EQ(e2.item, 1u);
  EXPECT_EQ(e2.position, 2u);
  EXPECT_EQ(io.stats().sorted_accesses, 2u);
}

TEST(AccessEngineTest, RandomAccessCountsAndReturns) {
  Database db = SmallDb();
  AccessEngine engine = ResetEngine(db);
  RawListIo io(&db, &engine);
  const ItemLookup lookup = io.Random(1, 0);
  EXPECT_DOUBLE_EQ(lookup.score, 1.0);
  EXPECT_EQ(lookup.position, 4u);
  EXPECT_EQ(io.stats().random_accesses, 1u);
  EXPECT_EQ(io.stats().sorted_accesses, 0u);
}

TEST(AccessEngineTest, DirectAccessCountsAndReturns) {
  Database db = SmallDb();
  AccessEngine engine = ResetEngine(db);
  RawListIo io(&db, &engine);
  const AccessedEntry e = io.Direct(1, 2);
  EXPECT_EQ(e.item, 2u);
  EXPECT_DOUBLE_EQ(e.score, 3.0);
  EXPECT_EQ(e.position, 2u);
  EXPECT_EQ(io.stats().direct_accesses, 1u);
}

TEST(AccessEngineTest, AuditCountsTouches) {
  Database db = SmallDb();
  AccessEngine engine = ResetEngine(db, /*audit=*/true);
  FaultInjectingAccessEngine faults;  // disarmed: the audited reads roll none
  FaultIo io(&db, &engine, &faults);
  io.Sorted(0, 1);     // touches list 0 pos 1
  io.Direct(0, 1);     // touches list 0 pos 1 again
  io.Random(0, 0);     // item 0 is at pos 1 in list 0
  EXPECT_EQ(engine.TouchCount(0, 1), 3u);
  EXPECT_EQ(engine.TouchCount(0, 2), 0u);
  EXPECT_EQ(engine.MaxTouchCount(0), 3u);
  EXPECT_EQ(engine.MaxTouchCount(1), 0u);
}

TEST(AccessEngineTest, StatsAggregate) {
  Database db = SmallDb();
  AccessEngine engine = ResetEngine(db);
  RawListIo io(&db, &engine);
  io.Sorted(0, 1);
  io.Random(1, 2);
  io.Random(1, 3);
  io.Direct(0, 4);
  const AccessStats& stats = io.stats();
  EXPECT_EQ(stats.sorted_accesses, 1u);
  EXPECT_EQ(stats.random_accesses, 2u);
  EXPECT_EQ(stats.direct_accesses, 1u);
  EXPECT_EQ(stats.TotalAccesses(), 4u);
  // The policy counts in registers and stores into the engine on Flush.
  EXPECT_EQ(engine.stats().TotalAccesses(), 0u);
  io.Flush();
  EXPECT_EQ(engine.stats(), stats);
}

TEST(AccessEngineTest, PolicyCountsOnFromTheEngineTotal) {
  // An NRA failover's policy starts from what the failed run spent, so its
  // budget checks see the run's running total.
  Database db = SmallDb();
  AccessEngine engine = ResetEngine(db);
  engine.set_stats(AccessStats{3, 2, 1});
  RawListIo io(&db, &engine);
  io.Sorted(0, 1);
  EXPECT_EQ(io.stats(), (AccessStats{4, 2, 1}));
  io.Flush();
  EXPECT_EQ(engine.stats(), (AccessStats{4, 2, 1}));
}

TEST(AccessEngineTest, FaultIoRollsTheScheduleBeforeEachRead) {
  Database db = SmallDb();
  AccessEngine engine = ResetEngine(db);
  FaultInjectingAccessEngine faults;
  FaultPlan plan;
  plan.kill_list = 1;
  plan.kill_after_accesses = 2;
  faults.Arm(db.num_lists(), plan);
  FaultIo io(&db, &engine, &faults);
  EXPECT_EQ(io.Sorted(1, 1).item, 3u);
  EXPECT_TRUE(io.SortedAlive(1));
  EXPECT_DOUBLE_EQ(io.Random(1, 0).score, 1.0);  // the second access is served
  EXPECT_FALSE(io.SortedAlive(1));
  EXPECT_FALSE(io.RandomAlive(1));
  EXPECT_TRUE(io.SortedAlive(0));
  EXPECT_EQ(io.DeadLists(), 1u);
  EXPECT_EQ(io.stats(), (AccessStats{1, 1, 0}));
}

TEST(AccessStatsTest, CostModelPaperDefault) {
  const CostModel model = CostModel::PaperDefault(1 << 16);
  EXPECT_DOUBLE_EQ(model.sorted_cost, 1.0);
  EXPECT_DOUBLE_EQ(model.random_cost, 16.0);  // log2(65536)
  AccessStats stats;
  stats.sorted_accesses = 10;
  stats.random_accesses = 3;
  stats.direct_accesses = 2;  // billed like random accesses
  EXPECT_DOUBLE_EQ(model.ExecutionCost(stats), 10.0 + 5 * 16.0);
}

TEST(AccessStatsTest, UnitCostModelCountsAccesses) {
  const CostModel model = CostModel::Unit();
  AccessStats stats;
  stats.sorted_accesses = 4;
  stats.random_accesses = 5;
  stats.direct_accesses = 6;
  EXPECT_DOUBLE_EQ(model.ExecutionCost(stats), 15.0);
}

TEST(AccessStatsTest, AdditionAndEquality) {
  AccessStats a{1, 2, 3};
  AccessStats b{10, 20, 30};
  AccessStats c = a + b;
  EXPECT_EQ(c, (AccessStats{11, 22, 33}));
  c += a;
  EXPECT_EQ(c, (AccessStats{12, 24, 36}));
}

TEST(AccessStatsTest, ToStringMentionsAllCounters) {
  AccessStats stats{1, 2, 3};
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("sorted=1"), std::string::npos);
  EXPECT_NE(s.find("random=2"), std::string::npos);
  EXPECT_NE(s.find("direct=3"), std::string::npos);
  EXPECT_NE(s.find("total=6"), std::string::npos);
}

}  // namespace
}  // namespace topk
