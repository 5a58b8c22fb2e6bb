// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// TopKServer: submission/completion plumbing, admission control (both shed
// policies), watchdog deadline cancellation with certified anytime answers,
// the warmed-worker steady state (arena byte stability), and batches run as
// server clients (submit every query, then wait). The scorers below give the
// tests deterministic handles on worker timing: GateScorer parks a worker
// mid-query until released, SlowScorer stretches every aggregation so a
// deadline reliably lands mid-run.

#include "core/topk_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "core/algorithms.h"
#include "gen/database_generator.h"
#include "lists/scorer.h"

namespace topk {
namespace {

/// Sum scorer whose first aggregation blocks until Open() — pins one worker
/// inside a query so tests can fill the admission queue deterministically.
class GateScorer final : public Scorer {
 public:
  using Scorer::Combine;

  Score Combine(const Score* scores, size_t count) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      entered_cv_.notify_all();
      open_cv_.wait(lock, [&] { return open_; });
    }
    Score total = 0.0;
    for (size_t i = 0; i < count; ++i) {
      total += scores[i];
    }
    return total;
  }

  std::string name() const override { return "gate-sum"; }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    open_cv_.notify_all();
  }

  /// Blocks until a worker is parked inside Combine.
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [&] { return entered_; });
  }

  /// AwaitEntered bounded by `timeout`; true once a worker is parked.
  bool AwaitEnteredFor(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return entered_cv_.wait_for(lock, timeout, [&] { return entered_; });
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable open_cv_;
  mutable std::condition_variable entered_cv_;
  mutable bool open_ = false;
  mutable bool entered_ = false;
};

/// Sum scorer that sleeps per aggregation, stretching each algorithm round so
/// a millisecond-scale deadline reliably expires mid-run.
class SlowScorer final : public Scorer {
 public:
  using Scorer::Combine;

  explicit SlowScorer(std::chrono::microseconds delay) : delay_(delay) {}

  Score Combine(const Score* scores, size_t count) const override {
    std::this_thread::sleep_for(delay_);
    Score total = 0.0;
    for (size_t i = 0; i < count; ++i) {
      total += scores[i];
    }
    return total;
  }

  std::string name() const override { return "slow-sum"; }

 private:
  std::chrono::microseconds delay_;
};

class TopKServerTest : public ::testing::Test {
 protected:
  TopKServerTest() : db_(MakeUniformDatabase(600, 4, 9042)) {}

  Database db_;
  SumScorer sum_;
};

TEST_F(TopKServerTest, SubmittedRequestsCompleteWithExactResults) {
  ServerOptions options;
  options.num_threads = 2;
  TopKServer server(&db_, options);

  std::vector<std::future<Result<TopKResult>>> futures;
  for (size_t i = 0; i < 12; ++i) {
    ServerRequest request;
    request.kind = (i % 2 == 0) ? AlgorithmKind::kBpa : AlgorithmKind::kTa;
    request.query = TopKQuery{1 + i, &sum_};
    futures.push_back(server.Submit(request));
  }
  auto bpa = MakeAlgorithm(AlgorithmKind::kBpa);
  auto ta = MakeAlgorithm(AlgorithmKind::kTa);
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<TopKResult> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.ValueUnsafe().completion, Completion::kExact);
    const TopKAlgorithm& direct = (i % 2 == 0) ? *bpa : *ta;
    const TopKResult want =
        direct.Execute(db_, TopKQuery{1 + i, &sum_}).ValueOrDie();
    EXPECT_EQ(got.ValueUnsafe().Items(), want.Items()) << "request " << i;
    EXPECT_EQ(got.ValueUnsafe().stats, want.stats) << "request " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 12u);
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.shed_rejected + stats.shed_degraded, 0u);
}

TEST_F(TopKServerTest, CallbacksFireInSubmissionOrderOnOneWorker) {
  ServerOptions options;
  options.num_threads = 1;  // single worker => FIFO completion
  TopKServer server(&db_, options);

  std::mutex mu;
  std::vector<size_t> order;
  std::condition_variable cv;
  const size_t kRequests = 8;
  for (size_t i = 0; i < kRequests; ++i) {
    ServerRequest request;
    request.kind = AlgorithmKind::kNra;
    request.query = TopKQuery{5 + i, &sum_};
    ASSERT_TRUE(server.SubmitWithCallback(request, [&, i](Result<TopKResult> r) {
      ASSERT_TRUE(r.ok());
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      cv.notify_all();
    }));
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return order.size() == kRequests; });
  for (size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST_F(TopKServerTest, FullQueueRejectsUnderRejectPolicy) {
  GateScorer gate;
  ServerOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.shed_policy = ShedPolicy::kReject;
  TopKServer server(&db_, options);

  // Request 1 parks the only worker; request 2 fills the queue.
  auto running = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &gate}, 0.0});
  gate.AwaitEntered();
  auto queued = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &sum_}, 0.0});

  // Request 3 finds the queue full and is rejected immediately.
  auto shed = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &sum_}, 0.0});
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  Result<TopKResult> shed_result = shed.get();
  EXPECT_FALSE(shed_result.ok());
  EXPECT_TRUE(shed_result.status().IsResourceExhausted())
      << shed_result.status().ToString();

  gate.Open();
  EXPECT_TRUE(running.get().ok());
  EXPECT_TRUE(queued.get().ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST_F(TopKServerTest, FullQueueServesDegradedAnytimeAnswer) {
  GateScorer gate;
  ServerOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.shed_policy = ShedPolicy::kServeDegraded;
  TopKServer server(&db_, options);

  auto running = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &gate}, 0.0});
  gate.AwaitEntered();
  auto queued = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &sum_}, 0.0});

  // Request 3 is served inline on this thread under the degraded budget: an
  // ok() anytime result whose certificate names the tripped budget.
  auto shed = server.Submit(ServerRequest{
      AlgorithmKind::kNra, TopKQuery{10, &sum_}, 0.0});
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  Result<TopKResult> degraded = shed.get();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded.ValueUnsafe().completion, Completion::kAccessBudget);
  EXPECT_GE(degraded.ValueUnsafe().theta, 1.0);
  EXPECT_LE(degraded.ValueUnsafe().stats.TotalAccesses(),
            TopKServer::kDegradedAccessBudget + 64u)
      << "budget enforced at round granularity only";

  gate.Open();
  EXPECT_TRUE(running.get().ok());
  EXPECT_TRUE(queued.get().ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_degraded, 1u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST_F(TopKServerTest, OverdueInFlightRequestIsCancelledWithCertificate) {
  SlowScorer slow(std::chrono::microseconds(500));
  ServerOptions options;
  options.num_threads = 1;
  TopKServer server(&db_, options);

  // Without the deadline this TA run takes hundreds of milliseconds (every
  // aggregation sleeps); with it, the watchdog cancels within a couple of
  // watchdog periods past 20 ms and the worker returns the anytime answer.
  ServerRequest request;
  request.kind = AlgorithmKind::kTa;
  request.query = TopKQuery{20, &slow};
  request.deadline_ms = 20.0;
  Result<TopKResult> got = server.Submit(request).get();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const TopKResult& result = got.ValueUnsafe();
  EXPECT_EQ(result.completion, Completion::kDeadline);
  EXPECT_GE(result.theta, 1.0);
  EXPECT_TRUE(result.theta >= 1.0 || std::isinf(result.theta));
  // The certificate relates the bounds: nothing unreturned can beat
  // theta * (weakest returned lower bound).
  if (!result.items.empty() && result.kth_lower_bound > 0.0) {
    EXPECT_LE(result.unreturned_upper_bound,
              result.theta * result.kth_lower_bound + 1e-9);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

// The self-healing watchdog handshake: ExecuteInto's Arm() clears the cancel
// flag at run start, so a RequestCancel that lands between slot publication
// and Arm would be lost if delivered only once. The watchdog re-cancels every
// still-overdue slot each pass, so the cancel must arrive eventually no
// matter how the first delivery interleaves with Arm. A parked worker plus a
// deadline far shorter than the park forces that window every iteration;
// under TSan this also proves the slot-mutex/atomic discipline of the
// re-cancel path.
TEST_F(TopKServerTest, WatchdogRecancelSurvivesArmRace) {
  int parked_runs = 0;
  for (int attempt = 0; parked_runs < 25; ++attempt) {
    ASSERT_LT(attempt, 250) << "only " << parked_runs
                            << " runs started before their 1 ms deadline";
    GateScorer gate;
    ServerOptions options;
    options.num_threads = 1;
    TopKServer server(&db_, options);

    ServerRequest request;
    request.kind = AlgorithmKind::kTa;
    request.query = TopKQuery{3, &gate};
    request.deadline_ms = 1.0;
    auto future = server.Submit(request);
    // A worker scheduled after the 1 ms deadline has passed answers "expired
    // while queued" without running the query: correct, but that run never
    // parks, so it proves nothing here and is not counted.
    bool entered = false;
    while (!(entered = gate.AwaitEnteredFor(std::chrono::milliseconds(1))) &&
           future.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
    }
    if (!entered) {
      EXPECT_TRUE(future.get().status().IsResourceExhausted());
      EXPECT_EQ(server.stats().expired_at_dequeue, 1u);
      continue;
    }
    ++parked_runs;
    // The worker is parked inside the query's first aggregation; the 1 ms
    // deadline expires while it sits there, so the watchdog fires (and keeps
    // re-firing) across the park. Whether its first cancel raced Arm's clear
    // or not, the flag must be set by the time the worker resumes. The gate
    // opens only after two deliveries counted past the park: the first may
    // be the tail of a cancel that landed before Arm's clear, but the second
    // started after it, so it reached the parked, armed run. A fixed sleep
    // here assumed the watchdog got scheduled inside it.
    const uint64_t parked = server.stats().watchdog_cancels;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool recancelled = true;
    while (server.stats().watchdog_cancels < parked + 2) {
      if (std::chrono::steady_clock::now() >= give_up) {
        recancelled = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    gate.Open();
    ASSERT_TRUE(recancelled)
        << "attempt " << attempt
        << ": the watchdog did not re-cancel the parked run within 10 s";

    Result<TopKResult> got = future.get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const TopKResult& result = got.ValueUnsafe();
    EXPECT_EQ(result.completion, Completion::kDeadline)
        << "attempt " << attempt;
    EXPECT_GE(result.theta, 1.0) << "attempt " << attempt;
    EXPECT_EQ(server.stats().deadline_cancelled, 1u) << "attempt " << attempt;
  }
}

TEST_F(TopKServerTest, RequestOverdueAtDequeueFailsWithoutExecuting) {
  GateScorer gate;
  ServerOptions options;
  options.num_threads = 1;
  TopKServer server(&db_, options);

  auto running = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &gate}, 0.0});
  gate.AwaitEntered();
  // Queued behind the parked worker with a deadline far shorter than the
  // park: expired before a worker ever picks it up.
  ServerRequest doomed;
  doomed.kind = AlgorithmKind::kBpa;
  doomed.query = TopKQuery{3, &sum_};
  doomed.deadline_ms = 5.0;
  auto expired = server.Submit(doomed);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.Open();

  Result<TopKResult> expired_result = expired.get();
  EXPECT_FALSE(expired_result.ok());
  EXPECT_TRUE(expired_result.status().IsResourceExhausted())
      << expired_result.status().ToString();
  EXPECT_TRUE(running.get().ok());
  EXPECT_EQ(server.stats().expired_at_dequeue, 1u);
}

// Deadline conversion: a finite deadline past what the clock can represent
// (about 9.2e12 ms of nanoseconds) never fires instead of overflowing the
// conversion; a non-finite deadline is refused as Invalid, like
// GovernorLimits::Validate refuses one.
TEST_F(TopKServerTest, DeadlineBeyondTheClockNeverFiresAndNonFiniteIsInvalid) {
  ServerOptions options;
  options.num_threads = 1;
  TopKServer server(&db_, options);

  for (const double deadline_ms : {1e13, 1e300}) {
    Result<TopKResult> got = server.Submit(ServerRequest{
        AlgorithmKind::kBpa, TopKQuery{10, &sum_}, deadline_ms}).get();
    ASSERT_TRUE(got.ok()) << deadline_ms << ": " << got.status().ToString();
    EXPECT_EQ(got.ValueUnsafe().completion, Completion::kExact)
        << deadline_ms;
  }
  EXPECT_EQ(server.stats().expired_at_dequeue, 0u);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double deadline_ms :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    Result<TopKResult> got = server.Submit(ServerRequest{
        AlgorithmKind::kBpa, TopKQuery{10, &sum_}, deadline_ms}).get();
    ASSERT_FALSE(got.ok()) << deadline_ms;
    EXPECT_TRUE(got.status().IsInvalid()) << got.status().ToString();
    EXPECT_NE(got.status().message().find("deadline_ms"), std::string::npos)
        << got.status().ToString();
  }
  bool invalid = false;
  EXPECT_FALSE(server.SubmitWithCallback(
      ServerRequest{AlgorithmKind::kBpa, TopKQuery{10, &sum_}, kInf},
      [&](Result<TopKResult> r) { invalid = r.status().IsInvalid(); }));
  EXPECT_TRUE(invalid);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.expired_at_dequeue, 0u);
}

TEST_F(TopKServerTest, StopAnswersEverythingAdmitted) {
  std::vector<std::future<Result<TopKResult>>> futures;
  {
    ServerOptions options;
    options.num_threads = 2;
    TopKServer server(&db_, options);
    for (size_t i = 0; i < 16; ++i) {
      ServerRequest request;
      request.kind = AlgorithmKind::kBpa2;
      request.query = TopKQuery{1 + (i % 10), &sum_};
      futures.push_back(server.Submit(request));
    }
    // Destructor: stops admission, drains the queue, joins the workers.
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(future.get().ok());
  }
}

TEST_F(TopKServerTest, SubmitAfterStopIsRefused) {
  ServerOptions options;
  options.num_threads = 1;
  TopKServer server(&db_, options);
  server.Stop();
  auto refused = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &sum_}, 0.0});
  Result<TopKResult> result = refused.get();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable());
}

// The serving steady state reuses each worker's warmed context: after the
// first pass over a fixed workload the pool arena must not grow by a single
// byte. (The future/promise plumbing allocates per request by design; the
// execution path itself is what must stay allocation-free.)
TEST_F(TopKServerTest, WarmedWorkerArenaIsByteStableAcrossRequests) {
  ServerOptions options;
  options.num_threads = 1;
  TopKServer server(&db_, options);

  auto run_wave = [&] {
    std::vector<std::future<Result<TopKResult>>> futures;
    for (size_t i = 0; i < 6; ++i) {
      ServerRequest request;
      request.kind = (i % 2 == 0) ? AlgorithmKind::kNra : AlgorithmKind::kCa;
      request.query = TopKQuery{8 + i, &sum_};
      futures.push_back(server.Submit(request));
    }
    for (auto& future : futures) {
      ASSERT_TRUE(future.get().ok());
    }
  };

  run_wave();  // warm-up sizes the arena to the workload
  const size_t warmed_bytes =
      server.worker_context(0).pool().arena_bytes_reserved();
  EXPECT_GT(warmed_bytes, 0u);
  for (int wave = 0; wave < 3; ++wave) {
    run_wave();
    EXPECT_EQ(server.worker_context(0).pool().arena_bytes_reserved(),
              warmed_bytes)
        << "wave " << wave;
  }
}

// Batches are server clients: submit every query, then wait on the futures.
class TopKServerBatchTest : public ::testing::Test {
 protected:
  TopKServerBatchTest() : db_(MakeUniformDatabase(600, 4, 2718)) {}

  std::vector<TopKQuery> MakeQueries(size_t count) {
    std::vector<TopKQuery> queries;
    for (size_t i = 0; i < count; ++i) {
      queries.push_back(TopKQuery{1 + (i % 25), &sum_});
    }
    return queries;
  }

  static std::vector<Result<TopKResult>> RunBatch(
      TopKServer& server, AlgorithmKind kind,
      const std::vector<TopKQuery>& queries) {
    std::vector<std::future<Result<TopKResult>>> futures;
    for (const TopKQuery& query : queries) {
      futures.push_back(server.Submit(ServerRequest{kind, query, 0.0}));
    }
    std::vector<Result<TopKResult>> results;
    for (auto& future : futures) {
      results.push_back(future.get());
    }
    return results;
  }

  /// Access total over the successful results.
  static uint64_t TotalAccesses(const std::vector<Result<TopKResult>>& batch) {
    uint64_t total = 0;
    for (const Result<TopKResult>& r : batch) {
      if (r.ok()) {
        total += r.ValueUnsafe().stats.TotalAccesses();
      }
    }
    return total;
  }

  static ServerOptions Workers(size_t num_threads) {
    ServerOptions options;
    options.num_threads = num_threads;
    return options;
  }

  Database db_;
  SumScorer sum_;
};

TEST_F(TopKServerBatchTest, InlineBatchMatchesDirectExecution) {
  TopKServer server(&db_, Workers(1));
  const auto queries = MakeQueries(8);
  const auto results = RunBatch(server, AlgorithmKind::kBpa, queries);
  ASSERT_EQ(results.size(), queries.size());
  auto algorithm = MakeAlgorithm(AlgorithmKind::kBpa);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    const TopKResult direct =
        algorithm->Execute(db_, queries[i]).ValueOrDie();
    ASSERT_EQ(results[i].ValueUnsafe().items.size(), direct.items.size());
    for (size_t r = 0; r < direct.items.size(); ++r) {
      EXPECT_EQ(results[i].ValueUnsafe().items[r].item, direct.items[r].item);
    }
    EXPECT_EQ(results[i].ValueUnsafe().stats, direct.stats);
  }
}

TEST_F(TopKServerBatchTest, ParallelMatchesInline) {
  TopKServer one(&db_, Workers(1));
  TopKServer eight(&db_, Workers(8));
  const auto queries = MakeQueries(40);
  const auto inline_results = RunBatch(one, AlgorithmKind::kBpa2, queries);
  const auto parallel_results =
      RunBatch(eight, AlgorithmKind::kBpa2, queries);
  ASSERT_EQ(inline_results.size(), parallel_results.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(inline_results[i].ok());
    ASSERT_TRUE(parallel_results[i].ok());
    const auto& a = inline_results[i].ValueUnsafe();
    const auto& b = parallel_results[i].ValueUnsafe();
    EXPECT_EQ(a.stats, b.stats) << "query " << i;
    ASSERT_EQ(a.items.size(), b.items.size());
    for (size_t r = 0; r < a.items.size(); ++r) {
      EXPECT_EQ(a.items[r].item, b.items[r].item);
      EXPECT_DOUBLE_EQ(a.items[r].score, b.items[r].score);
    }
  }
}

TEST_F(TopKServerBatchTest, PerQueryFailuresDoNotAbortTheBatch) {
  TopKServer server(&db_, Workers(4));
  std::vector<TopKQuery> queries = MakeQueries(3);
  queries.push_back(TopKQuery{db_.num_items() + 1, &sum_});  // invalid k
  queries.push_back(TopKQuery{5, nullptr});                  // missing scorer
  const auto results = RunBatch(server, AlgorithmKind::kTa, queries);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_TRUE(results[3].status().IsInvalid());
  EXPECT_TRUE(results[4].status().IsInvalid());
  EXPECT_EQ(server.stats().failed, 2u);
}

TEST_F(TopKServerBatchTest, MoreThreadsThanQueries) {
  TopKServer server(&db_, Workers(64));
  const auto results = RunBatch(server, AlgorithmKind::kNaive, MakeQueries(2));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
}

TEST_F(TopKServerBatchTest, MixedScorersInOneBatch) {
  MinScorer min;
  MaxScorer max;
  TopKServer server(&db_, Workers(3));
  std::vector<TopKQuery> queries = {TopKQuery{5, &sum_}, TopKQuery{5, &min},
                                    TopKQuery{5, &max}};
  const auto results = RunBatch(server, AlgorithmKind::kBpa, queries);
  auto naive = MakeAlgorithm(AlgorithmKind::kNaive);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    const TopKResult want = naive->Execute(db_, queries[i]).ValueOrDie();
    for (size_t r = 0; r < 5; ++r) {
      EXPECT_DOUBLE_EQ(results[i].ValueUnsafe().items[r].score,
                       want.items[r].score);
    }
  }
}

// Regression for the batch stats race: two issuer threads sharing one engine
// once raced on a shared last-batch aggregate. As server clients each
// issuer collects its own futures, so both must observe exactly their own
// batch's access total (that of a single-worker run) and every per-query
// answer must succeed. Run under TSan to certify the absence of the data
// race, not just its invisibility.
TEST_F(TopKServerBatchTest, ConcurrentIssuersShareOneEngine) {
  const auto queries_a = MakeQueries(24);
  auto queries_b = MakeQueries(17);
  queries_b.erase(queries_b.begin());  // different shapes on purpose
  uint64_t want_a = 0;
  uint64_t want_b = 0;
  {
    TopKServer single(&db_, Workers(1));
    want_a = TotalAccesses(RunBatch(single, AlgorithmKind::kBpa, queries_a));
    want_b = TotalAccesses(RunBatch(single, AlgorithmKind::kNra, queries_b));
  }

  TopKServer server(&db_, Workers(2));
  for (int round = 0; round < 4; ++round) {
    std::vector<Result<TopKResult>> got_a;
    std::vector<Result<TopKResult>> got_b;
    std::thread issuer_a(
        [&] { got_a = RunBatch(server, AlgorithmKind::kBpa, queries_a); });
    std::thread issuer_b(
        [&] { got_b = RunBatch(server, AlgorithmKind::kNra, queries_b); });
    issuer_a.join();
    issuer_b.join();
    EXPECT_EQ(TotalAccesses(got_a), want_a) << "round " << round;
    EXPECT_EQ(TotalAccesses(got_b), want_b) << "round " << round;
    for (const auto& r : got_a) {
      ASSERT_TRUE(r.ok());
    }
    for (const auto& r : got_b) {
      ASSERT_TRUE(r.ok());
    }
  }
}

}  // namespace
}  // namespace topk
