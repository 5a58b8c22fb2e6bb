// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// TopKServer: a persistent serving frontend over the algorithm library.
//
// A server owns a pool of worker threads, each with a private, warmed
// ExecutionContext, fed by a bounded multi-producer admission queue. A worker
// runs the request's AlgorithmKind under the server-wide
// ServerOptions::algorithm_options. Submitters get a
// std::future<Result<TopKResult>> (or a completion callback) and never block
// on a full queue — admission control sheds instead:
//
//   * ShedPolicy::kReject      — the request completes immediately with
//                                Status::ResourceExhausted.
//   * ShedPolicy::kServeDegraded — the request runs inline on the submitting
//                                thread under kDegradedAccessBudget total
//                                accesses and returns a certified θ-bounded
//                                anytime answer (TopKResult::completion names
//                                the tripped budget).
//
// Deadlines. Each request may carry an SLA deadline (ServerRequest::
// deadline_ms, measured from admission). The algorithm options are
// server-wide, so per-request deadlines are enforced from the outside: a
// watchdog thread scans the in-flight slots and calls
// QueryGovernor::RequestCancel() on any run past its deadline. The running
// algorithm observes the flag at its next round boundary, stops, and
// certifies an anytime result; the worker rewrites Completion::kCancelled to
// Completion::kDeadline when the watchdog (not a caller) pulled the trigger.
// Requests already past their deadline at dequeue complete with
// ResourceExhausted without touching a context.
//
// The watchdog/cancel handshake is deliberately self-healing: ExecuteInto's
// Arm() clears the cancel flag at run start, so a cancel landing in the
// window between slot publication and Arm would be lost — the watchdog
// therefore re-cancels every still-overdue slot on every pass (slots are
// read and cancelled under the slot mutex, so a cancel can never land on the
// *next* request of a worker).
//
// Steady state allocates nothing on the execution path: contexts and results
// are reused per worker; only the future/promise plumbing of each request
// allocates.
//
// Batches are clients like any other: Submit every query, then wait on the
// futures. A batch larger than queue_capacity sheds per shed_policy.

#ifndef TOPK_CORE_TOPK_SERVER_H_
#define TOPK_CORE_TOPK_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/execution_context.h"
#include "core/topk_algorithm.h"
#include "lists/database.h"

namespace topk {

/// What to do with a request that arrives while the admission queue is full.
enum class ShedPolicy : uint8_t {
  kReject = 0,         ///< complete immediately with ResourceExhausted
  kServeDegraded = 1,  ///< run inline under a small access budget (anytime)
};

/// One serving request: which algorithm, what query, and the SLA.
struct ServerRequest {
  AlgorithmKind kind = AlgorithmKind::kBpa;
  TopKQuery query;

  /// Per-request deadline in milliseconds, measured from admission
  /// (Submit time). <= 0 disables; a non-finite value is Invalid; a finite
  /// value past what the clock can represent never fires. An in-flight
  /// request past its deadline is cancelled and returns a certified anytime
  /// answer tagged Completion::kDeadline; a request already overdue at
  /// dequeue completes with Status::ResourceExhausted.
  double deadline_ms = 0.0;
};

/// Server construction knobs.
struct ServerOptions {
  /// Worker threads (each with a private warmed context). Minimum 1.
  size_t num_threads = 1;

  /// Admission-queue capacity; a submit beyond it sheds per `shed_policy`.
  size_t queue_capacity = 256;

  ShedPolicy shed_policy = ShedPolicy::kReject;

  /// Options every request runs under. Per-request deadlines do NOT go
  /// through these (see the watchdog comment above); limits set here apply
  /// to every request. GovernorLimits::strict converts degradations into
  /// Status errors server-wide.
  AlgorithmOptions algorithm_options;
};

/// Monotonic counters, snapshotted by TopKServer::stats().
struct ServerStats {
  uint64_t submitted = 0;          ///< Submit/SubmitWithCallback calls
  uint64_t completed = 0;          ///< delivered with an ok() Result
  uint64_t failed = 0;             ///< delivered with an error Status
  uint64_t shed_rejected = 0;      ///< full queue, ShedPolicy::kReject
  uint64_t shed_degraded = 0;      ///< full queue, served inline degraded
  uint64_t expired_at_dequeue = 0; ///< deadline already gone when picked up
  uint64_t deadline_cancelled = 0; ///< cancelled mid-run by the watchdog
  uint64_t watchdog_cancels = 0;   ///< watchdog RequestCancel deliveries
};

/// The serving frontend. Thread-safe: any number of threads may Submit
/// concurrently. Destruction drains the queue (every admitted request is
/// answered) and joins the workers.
class TopKServer {
 public:
  using Callback = std::function<void(Result<TopKResult>)>;

  /// Total-access budget of degraded (shed-inline) executions under
  /// ShedPolicy::kServeDegraded.
  static constexpr uint64_t kDegradedAccessBudget = 512;

  /// \param db non-owning; must outlive the server.
  explicit TopKServer(const Database* db, ServerOptions options = {});
  ~TopKServer();

  TopKServer(const TopKServer&) = delete;
  TopKServer& operator=(const TopKServer&) = delete;

  /// Submits a request. The future is satisfied when a worker completes the
  /// request — or immediately, when the queue is full (shed) or the server
  /// is stopping (Unavailable).
  std::future<Result<TopKResult>> Submit(const ServerRequest& request);

  /// Callback flavor: `callback` runs exactly once, on the worker thread
  /// that completed the request (or on the submitting thread when the
  /// request is shed inline). Returns false iff the request was shed or
  /// refused — the callback still fires with the terminal Result either way.
  bool SubmitWithCallback(const ServerRequest& request, Callback callback);

  /// Stops admission, answers everything already admitted, joins workers.
  /// Idempotent; called by the destructor.
  void Stop();

  ServerStats stats() const;
  size_t num_threads() const { return workers_.size(); }

  /// Test access: worker `i`'s execution context (for arena byte-stability
  /// pins); `i` must be below num_threads(). Do not touch while the server
  /// is running requests.
  ExecutionContext& worker_context(size_t i) { return *contexts_.at(i); }

 private:
  using Clock = QueryGovernor::DeadlineClock;

  struct Pending {
    ServerRequest request;
    Callback deliver;
    Clock::time_point deadline_at{};
    bool has_deadline = false;
  };

  /// One worker's in-flight publication, read by the watchdog. `governor`
  /// and the flags are only touched under `mu` (the pointer itself is stable:
  /// it is the worker's context governor).
  struct InflightSlot {
    std::mutex mu;
    QueryGovernor* governor = nullptr;  // null <=> idle
    Clock::time_point deadline_at{};
    bool has_deadline = false;
    bool deadline_fired = false;  // watchdog cancelled this run
    uint64_t watchdog_cancels = 0;  // RequestCancel deliveries, all runs
  };

  void WorkerLoop(size_t worker_index);
  void WatchdogLoop();
  /// Admission decision + handoff; returns false when the request was shed
  /// or refused (the callback has then already fired).
  bool Admit(const ServerRequest& request, Callback deliver);
  void ServeDegraded(const ServerRequest& request, const Callback& deliver);

  const Database* db_;
  ServerOptions options_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;

  std::mutex stop_mu_;  // serializes Stop() callers
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  // One heap-allocated context per worker, filled in the constructor and
  // never resized: no two workers' governors (which the watchdog writes)
  // share a cache line.
  std::vector<std::unique_ptr<ExecutionContext>> contexts_;
  std::vector<std::unique_ptr<InflightSlot>> slots_;
  std::vector<std::thread> workers_;
  std::thread watchdog_;

  // Degraded lane: one context, serialized by a mutex (shedding is the
  // overload path; contention here is the point), and the server-wide
  // options under kDegradedAccessBudget, built once by the constructor.
  std::mutex shed_mu_;
  ExecutionContext shed_context_;
  AlgorithmOptions degraded_options_;

  struct Counters {
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> failed{0};
    std::atomic<uint64_t> shed_rejected{0};
    std::atomic<uint64_t> shed_degraded{0};
    std::atomic<uint64_t> expired_at_dequeue{0};
    std::atomic<uint64_t> deadline_cancelled{0};
  };
  mutable Counters counters_;
};

}  // namespace topk

#endif  // TOPK_CORE_TOPK_SERVER_H_
