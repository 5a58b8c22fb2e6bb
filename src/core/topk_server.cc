// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/topk_server.h"

#include <atomic>
#include <cmath>
#include <utility>

namespace topk {

namespace {

// Watchdog scan period. Deadline enforcement quantizes to this (plus the
// algorithm's round length), so it stays well under the finest SLA.
constexpr double kWatchdogPeriodMs = 0.5;

}  // namespace

TopKServer::TopKServer(const Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  if (options_.num_threads == 0) {
    options_.num_threads = 1;
  }
  if (options_.queue_capacity == 0) {
    options_.queue_capacity = 1;
  }
  degraded_options_ = options_.algorithm_options;
  degraded_options_.governor.total_access_budget = kDegradedAccessBudget;
  // Degraded mode exists to answer, not to error: anytime results even when
  // the server-wide options are strict.
  degraded_options_.governor.strict = false;
  contexts_.reserve(options_.num_threads);
  slots_.reserve(options_.num_threads);
  for (size_t i = 0; i < options_.num_threads; ++i) {
    contexts_.push_back(std::make_unique<ExecutionContext>());
    slots_.push_back(std::make_unique<InflightSlot>());
  }
  workers_.reserve(options_.num_threads);
  for (size_t i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back(&TopKServer::WorkerLoop, this, i);
  }
  watchdog_ = std::thread(&TopKServer::WatchdogLoop, this);
}

TopKServer::~TopKServer() { Stop(); }

std::future<Result<TopKResult>> TopKServer::Submit(
    const ServerRequest& request) {
  auto promise = std::make_shared<std::promise<Result<TopKResult>>>();
  std::future<Result<TopKResult>> future = promise->get_future();
  Admit(request, [promise](Result<TopKResult> result) {
    promise->set_value(std::move(result));
  });
  return future;
}

bool TopKServer::SubmitWithCallback(const ServerRequest& request,
                                    Callback callback) {
  return Admit(request, std::move(callback));
}

bool TopKServer::Admit(const ServerRequest& request, Callback deliver) {
  counters_.submitted.fetch_add(1, std::memory_order_relaxed);
  if (!std::isfinite(request.deadline_ms)) {
    counters_.failed.fetch_add(1, std::memory_order_relaxed);
    deliver(Result<TopKResult>(Status::Invalid(
        "server request deadline_ms must be finite; got deadline_ms = ",
        request.deadline_ms)));
    return false;
  }
  Pending pending;
  pending.request = request;
  if (request.deadline_ms > 0.0) {
    // Compared in floating point before converting, so a deadline past what
    // the clock can represent never fires instead of overflowing.
    const std::chrono::duration<double, std::milli> budget(
        request.deadline_ms);
    const Clock::time_point now = Clock::now();
    if (budget < Clock::time_point::max() - now) {
      pending.has_deadline = true;
      pending.deadline_at =
          now + std::chrono::duration_cast<Clock::duration>(budget);
    }
  }
  bool refused_stopping = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      refused_stopping = true;
    } else if (queue_.size() < options_.queue_capacity) {
      pending.deliver = std::move(deliver);
      queue_.push_back(std::move(pending));
      queue_cv_.notify_one();
      return true;
    }
  }
  // Refusal and shedding deliver outside the queue lock: a slow callback (or
  // a degraded inline execution) must never stall admission or the workers.
  if (refused_stopping) {
    counters_.failed.fetch_add(1, std::memory_order_relaxed);
    deliver(Result<TopKResult>(Status::Unavailable("server is stopping")));
    return false;
  }
  if (options_.shed_policy == ShedPolicy::kReject) {
    counters_.shed_rejected.fetch_add(1, std::memory_order_relaxed);
    counters_.failed.fetch_add(1, std::memory_order_relaxed);
    deliver(Result<TopKResult>(Status::ResourceExhausted(
        "admission queue full (", options_.queue_capacity,
        " pending); request rejected by shed policy")));
    return false;
  }
  counters_.shed_degraded.fetch_add(1, std::memory_order_relaxed);
  ServeDegraded(request, deliver);
  return false;
}

void TopKServer::ServeDegraded(const ServerRequest& request,
                               const Callback& deliver) {
  Result<TopKResult> result = [&]() -> Result<TopKResult> {
    std::lock_guard<std::mutex> lock(shed_mu_);
    return TopKAlgorithm(request.kind, degraded_options_)
        .Execute(*db_, request.query, &shed_context_);
  }();
  if (result.ok()) {
    counters_.completed.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.failed.fetch_add(1, std::memory_order_relaxed);
  }
  deliver(std::move(result));
}

void TopKServer::WorkerLoop(size_t worker_index) {
  ExecutionContext* context = contexts_[worker_index].get();
  InflightSlot& slot = *slots_[worker_index];
  TopKResult scratch;
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping and fully drained
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    if (pending.has_deadline && Clock::now() >= pending.deadline_at) {
      counters_.expired_at_dequeue.fetch_add(1, std::memory_order_relaxed);
      counters_.failed.fetch_add(1, std::memory_order_relaxed);
      pending.deliver(Result<TopKResult>(Status::ResourceExhausted(
          "deadline of ", pending.request.deadline_ms,
          " ms expired while the request was queued")));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      slot.governor = &context->governor();
      slot.deadline_at = pending.deadline_at;
      slot.has_deadline = pending.has_deadline;
      slot.deadline_fired = false;
    }
    scratch.Clear();
    const Status status =
        TopKAlgorithm(pending.request.kind, options_.algorithm_options)
            .ExecuteInto(*db_, pending.request.query, context, &scratch);
    bool deadline_fired = false;
    {
      std::lock_guard<std::mutex> lock(slot.mu);
      deadline_fired = slot.deadline_fired;
      slot.governor = nullptr;  // idle; the watchdog stops looking
    }
    if (status.ok()) {
      if (scratch.completion == Completion::kCancelled && deadline_fired) {
        // The watchdog, not a caller, pulled the cancel trigger: surface it
        // as the SLA event it is. The θ certificate is unaffected.
        scratch.completion = Completion::kDeadline;
        counters_.deadline_cancelled.fetch_add(1, std::memory_order_relaxed);
      }
      counters_.completed.fetch_add(1, std::memory_order_relaxed);
      pending.deliver(Result<TopKResult>(scratch));
    } else {
      if (deadline_fired) {
        counters_.deadline_cancelled.fetch_add(1, std::memory_order_relaxed);
      }
      counters_.failed.fetch_add(1, std::memory_order_relaxed);
      pending.deliver(Result<TopKResult>(status));
    }
  }
}

void TopKServer::WatchdogLoop() {
  const auto period = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(kWatchdogPeriodMs));
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  for (;;) {
    if (watchdog_cv_.wait_for(lock, period, [&] { return watchdog_stop_; })) {
      return;
    }
    const Clock::time_point now = Clock::now();
    for (const std::unique_ptr<InflightSlot>& slot : slots_) {
      std::lock_guard<std::mutex> slot_lock(slot->mu);
      if (slot->governor != nullptr && slot->has_deadline &&
          now >= slot->deadline_at) {
        // Re-cancelled on every pass while overdue: Arm() clears the flag at
        // run start, so a cancel that raced the arming is re-delivered one
        // period later instead of being lost.
        slot->governor->RequestCancel();
        slot->deadline_fired = true;
        ++slot->watchdog_cancels;
      }
    }
  }
}

void TopKServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) {
    watchdog_.join();
  }
}

ServerStats TopKServer::stats() const {
  ServerStats out;
  out.submitted = counters_.submitted.load(std::memory_order_relaxed);
  out.completed = counters_.completed.load(std::memory_order_relaxed);
  out.failed = counters_.failed.load(std::memory_order_relaxed);
  out.shed_rejected = counters_.shed_rejected.load(std::memory_order_relaxed);
  out.shed_degraded = counters_.shed_degraded.load(std::memory_order_relaxed);
  out.expired_at_dequeue =
      counters_.expired_at_dequeue.load(std::memory_order_relaxed);
  out.deadline_cancelled =
      counters_.deadline_cancelled.load(std::memory_order_relaxed);
  // Counted per slot, under the mutex the watchdog already holds to cancel.
  for (const std::unique_ptr<InflightSlot>& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    out.watchdog_cancels += slot->watchdog_cancels;
  }
  return out;
}

}  // namespace topk
