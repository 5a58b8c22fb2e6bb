// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "common/status.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "core/query_governor.h"
#include "core/topk_algorithm.h"
#include "dist/coordinator.h"
#include "dist/fault_injecting_transport.h"
#include "gen/database_generator.h"
#include "lists/fault_injection.h"
#include "lists/scorer.h"

namespace topk {
namespace {

// True when `status` is an error whose message contains every fragment —
// the rejection-message contract: name the algorithm, the limit, and the
// observed value.
::testing::AssertionResult MentionsAll(
    const Status& status, std::initializer_list<const char*> fragments) {
  if (status.ok()) {
    return ::testing::AssertionFailure() << "status is OK";
  }
  for (const char* fragment : fragments) {
    if (status.message().find(fragment) == std::string::npos) {
      return ::testing::AssertionFailure()
             << "message \"" << status.message() << "\" lacks \"" << fragment
             << "\"";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, OkFactory) {
  EXPECT_TRUE(Status::OK().ok());
}

TEST(StatusTest, InvalidCarriesMessage) {
  Status st = Status::Invalid("bad k = ", 42);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalid());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad k = 42");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad k = 42");
}

TEST(StatusTest, KeyError) {
  Status st = Status::KeyError("item ", 7, " missing");
  EXPECT_TRUE(st.IsKeyError());
  EXPECT_EQ(st.message(), "item 7 missing");
}

TEST(StatusTest, OutOfRange) {
  Status st = Status::OutOfRange("position 0");
  EXPECT_TRUE(st.IsOutOfRange());
}

TEST(StatusTest, NotImplemented) {
  Status st = Status::NotImplemented("nope");
  EXPECT_TRUE(st.IsNotImplemented());
}

TEST(StatusTest, Internal) {
  Status st = Status::Internal("bug");
  EXPECT_TRUE(st.IsInternal());
}

TEST(StatusTest, CopyIsCheapAndEqual) {
  Status st = Status::Invalid("x");
  Status copy = st;
  EXPECT_EQ(st, copy);
  EXPECT_TRUE(copy.IsInvalid());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Invalid("a"), Status::Invalid("a"));
  EXPECT_NE(Status::Invalid("a"), Status::Invalid("b"));
  EXPECT_NE(Status::Invalid("a"), Status::KeyError("a"));
  EXPECT_EQ(Status::OK(), Status());
}

TEST(StatusTest, StreamOperator) {
  std::ostringstream oss;
  oss << Status::OutOfRange("pos 9");
  EXPECT_EQ(oss.str(), "Out of range: pos 9");
}

TEST(StatusTest, CodeNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInvalidArgument),
            "Invalid argument");
  EXPECT_EQ(StatusCodeToString(StatusCode::kKeyError), "Key error");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "Out of range");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotImplemented),
            "Not implemented");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal error");
}

TEST(StatusTest, AbortOnOkIsNoop) {
  Status::OK().Abort();  // must not abort
}

TEST(StatusTest, ResourceExhaustedAndUnavailable) {
  Status exhausted = Status::ResourceExhausted("budget spent");
  EXPECT_TRUE(exhausted.IsResourceExhausted());
  EXPECT_EQ(exhausted.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exhausted.ToString(), "Resource exhausted: budget spent");
  Status unavailable = Status::Unavailable("list died");
  EXPECT_TRUE(unavailable.IsUnavailable());
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.ToString(), "Unavailable: list died");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "Resource exhausted");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
}

// ---- Rejection-message contract -------------------------------------------
// Every validation failure names the algorithm, the offending limit/knob, and
// the observed value — one test case per message.

TEST(RejectionMessageTest, QueryWithoutScorer) {
  Database db = MakeUniformDatabase(32, 2, 1);
  auto status = MakeAlgorithm(AlgorithmKind::kTa)
                    ->Execute(db, TopKQuery{1, nullptr})
                    .status();
  EXPECT_TRUE(status.IsInvalid());
  EXPECT_TRUE(MentionsAll(status, {"TA", "Scorer", "nullptr"}));
}

TEST(RejectionMessageTest, ZeroK) {
  Database db = MakeUniformDatabase(32, 2, 1);
  SumScorer scorer;
  auto status = MakeAlgorithm(AlgorithmKind::kNra)
                    ->Execute(db, TopKQuery{0, &scorer})
                    .status();
  EXPECT_TRUE(status.IsInvalid());
  EXPECT_TRUE(MentionsAll(status, {"NRA", "k must be >= 1", "k = 0"}));
}

TEST(RejectionMessageTest, KBeyondDatabaseSize) {
  Database db = MakeUniformDatabase(32, 2, 1);
  SumScorer scorer;
  for (AlgorithmKind kind : AllAlgorithmKinds()) {
    const std::string name = ToString(kind);
    SCOPED_TRACE(name);
    auto status =
        MakeAlgorithm(kind)->Execute(db, TopKQuery{33, &scorer}).status();
    EXPECT_TRUE(status.IsInvalid());
    EXPECT_TRUE(MentionsAll(status, {name.c_str(), "k = 33", "n = 32"}));
  }
}

// The status of `kind` run under `model` on a small valid query.
Status CostModelStatus(AlgorithmKind kind, CostModel model) {
  Database db = MakeUniformDatabase(32, 2, 1);
  SumScorer scorer;
  AlgorithmOptions options;
  options.cost_model = model;
  return MakeAlgorithm(kind, options)
      ->Execute(db, TopKQuery{3, &scorer})
      .status();
}

TEST(RejectionMessageTest, CostModelNaN) {
  const Status status =
      CostModelStatus(AlgorithmKind::kCa, CostModel{1.0, std::nan("")});
  EXPECT_TRUE(status.IsInvalid());
  EXPECT_TRUE(MentionsAll(
      status, {"CA", "cost_model", "random_cost must be finite", "nan"}));
}

TEST(RejectionMessageTest, CostModelInfinite) {
  const Status status = CostModelStatus(
      AlgorithmKind::kTa,
      CostModel{std::numeric_limits<double>::infinity(), 1.0});
  EXPECT_TRUE(status.IsInvalid());
  EXPECT_TRUE(MentionsAll(
      status, {"TA", "cost_model", "sorted_cost must be finite", "inf"}));
}

TEST(RejectionMessageTest, CostModelNegative) {
  const Status status =
      CostModelStatus(AlgorithmKind::kBpa2, CostModel{1.0, -2.5});
  EXPECT_TRUE(status.IsInvalid());
  EXPECT_TRUE(MentionsAll(
      status, {"BPA2", "cost_model", "random_cost", ">= 0", "-2.5"}));
}

TEST(RejectionMessageTest, GovernorDeadlineNaN) {
  GovernorLimits limits;
  limits.deadline_ms = std::nan("");
  EXPECT_TRUE(
      MentionsAll(limits.Validate("CA"), {"CA", "deadline_ms", "finite"}));
}

TEST(RejectionMessageTest, GovernorDeadlineInfinite) {
  GovernorLimits limits;
  limits.deadline_ms = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(
      MentionsAll(limits.Validate("TA"), {"TA", "deadline_ms", "finite"}));
}

TEST(RejectionMessageTest, GovernorDeadlineNegative) {
  GovernorLimits limits;
  limits.deadline_ms = -3.0;
  EXPECT_TRUE(MentionsAll(limits.Validate("FA"),
                          {"FA", "deadline_ms must be >= 0", "-3"}));
}

TEST(RejectionMessageTest, FaultTransientRateOutOfRange) {
  FaultPlan plan;
  plan.transient_rate = 1.5;
  EXPECT_TRUE(MentionsAll(plan.Validate("TA", 4),
                          {"TA", "transient_rate", "[0, 1]", "1.5"}));
}

TEST(RejectionMessageTest, FaultSpikeRateOutOfRange) {
  FaultPlan plan;
  plan.spike_rate = -0.25;
  EXPECT_TRUE(MentionsAll(plan.Validate("NRA", 4),
                          {"NRA", "spike_rate", "[0, 1]", "-0.25"}));
}

TEST(RejectionMessageTest, FaultDeathRateOutOfRange) {
  FaultPlan plan;
  plan.death_rate = 2.0;
  EXPECT_TRUE(
      MentionsAll(plan.Validate("CA", 4), {"CA", "death_rate", "[0, 1]", "2"}));
}

TEST(RejectionMessageTest, FaultRetriesBelowOne) {
  FaultPlan plan;
  plan.max_retries = 0;
  EXPECT_TRUE(MentionsAll(plan.Validate("BPA2", 4),
                          {"BPA2", "max_retries must be >= 1", "0"}));
}

TEST(RejectionMessageTest, FaultSpikeMsNegative) {
  FaultPlan plan;
  plan.spike_ms = -1.0;
  EXPECT_TRUE(MentionsAll(plan.Validate("FA", 4),
                          {"FA", "spike_ms must be >= 0", "-1"}));
}

TEST(RejectionMessageTest, FaultSpikeMsNotFinite) {
  for (double ms : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    FaultPlan plan;
    plan.spike_ms = ms;
    EXPECT_TRUE(MentionsAll(plan.Validate("BPA", 4),
                            {"BPA", "spike_ms must be >= 0", "finite"}));
  }
}

TEST(RejectionMessageTest, FaultDeathWindowInverted) {
  FaultPlan plan;
  plan.death_min_accesses = 10;
  plan.death_max_accesses = 5;
  EXPECT_TRUE(MentionsAll(plan.Validate("TPUT", 4),
                          {"TPUT", "death window", "[10, 5]"}));
}

TEST(RejectionMessageTest, FaultKillListBeyondLastIndex) {
  FaultPlan plan;
  plan.kill_list = 4;
  EXPECT_TRUE(MentionsAll(plan.Validate("TA", 4),
                          {"TA", "kill_list = 4", "last list index 3"}));
}

TEST(RejectionMessageTest, FaultKillAfterZero) {
  FaultPlan plan;
  plan.kill_list = 0;
  plan.kill_after_accesses = 0;
  EXPECT_TRUE(MentionsAll(plan.Validate("BPA", 4),
                          {"BPA", "kill_after_accesses must be >= 1", "0"}));
}

TEST(RejectionMessageTest, DistZeroOwners) {
  DistOptions options;
  EXPECT_TRUE(MentionsAll(options.Validate("DistBPA", 0),
                          {"DistBPA", "at least one", "num_owners = 0"}));
}

TEST(RejectionMessageTest, DistZeroWindowRows) {
  DistOptions options;
  options.window_rows = 0;
  EXPECT_TRUE(MentionsAll(options.Validate("DistTPUT", 3),
                          {"DistTPUT", "window_rows must be >= 1",
                           "window_rows = 0"}));
}

TEST(RejectionMessageTest, DistReplicationFactorZero) {
  DistOptions options;
  options.replication_factor = 0;
  EXPECT_TRUE(MentionsAll(options.Validate("DistBPA", 3),
                          {"DistBPA", "replication_factor must be >= 1",
                           "replication_factor = 0"}));
}

TEST(RejectionMessageTest, TransportDropRateOutOfRange) {
  TransportFaultPlan plan;
  plan.drop_rate = 1.5;
  EXPECT_TRUE(MentionsAll(plan.Validate("DistBPA", 3),
                          {"DistBPA", "drop_rate", "[0, 1]",
                           "drop_rate = 1.5"}));
}

TEST(RejectionMessageTest, TransportKillAfterZero) {
  TransportFaultPlan plan;
  plan.kill_owners = {0};
  plan.kill_after_messages = 0;
  EXPECT_TRUE(MentionsAll(plan.Validate("DistBPA", 3),
                          {"DistBPA", "kill_after_messages must be >= 1",
                           "kill_after_messages = 0"}));
}

TEST(RejectionMessageTest, TransportDelayMsNotFinite) {
  for (double ms : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    TransportFaultPlan plan;
    plan.delay_ms = ms;
    EXPECT_TRUE(MentionsAll(plan.Validate("DistBPA", 3),
                            {"DistBPA", "delay_ms must be >= 0", "finite"}));
  }
}

TEST(RejectionMessageTest, TransportDeathWindowInverted) {
  TransportFaultPlan plan;
  plan.death_min_messages = 8;
  plan.death_max_messages = 2;
  EXPECT_TRUE(MentionsAll(plan.Validate("DistTPUT", 3),
                          {"DistTPUT", "death window", "[8, 2]"}));
}

TEST(RejectionMessageTest, TransportKillOwnersEntryBeyondLastIndex) {
  TransportFaultPlan plan;
  plan.kill_owners = {1, 4};
  EXPECT_TRUE(MentionsAll(plan.Validate("DistBPA", 3),
                          {"DistBPA", "kill_owners entry 4",
                           "last owner index 2"}));
}

TEST(RejectionMessageTest, TransportFlapWithoutDeathSource) {
  TransportFaultPlan plan;
  plan.flap_revive_calls = 2;
  EXPECT_TRUE(MentionsAll(plan.Validate("DistTPUT", 3),
                          {"DistTPUT", "flap_revive_calls = 2",
                           "needs a death source"}));
}

TEST(RejectionMessageTest, FaultPlanConflictsWithAudit) {
  Database db = MakeUniformDatabase(32, 2, 1);
  SumScorer scorer;
  AlgorithmOptions options;
  options.audit_accesses = true;
  options.fault_plan.spike_rate = 0.5;
  auto status = MakeAlgorithm(AlgorithmKind::kTa, options)
                    ->Execute(db, TopKQuery{1, &scorer})
                    .status();
  EXPECT_TRUE(status.IsInvalid());
  EXPECT_TRUE(MentionsAll(status, {"TA", "fault_plan", "audit_accesses"}));
}

}  // namespace
}  // namespace topk
