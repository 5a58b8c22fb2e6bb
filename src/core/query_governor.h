// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// QueryGovernor: per-query execution limits — wall-clock deadline, access
// budgets, candidate-pool byte budget — plus cooperative cancellation.
//
// One governor lives in every ExecutionContext. ExecuteInto arms it from
// AlgorithmOptions::governor before each run; the algorithm loops call
// Charge() at their existing round boundaries (TA/BPA row loops, BPA2
// rounds, the NRA kNraCheckInterval batches, CA resolve batches, TPUT phase
// edges). When no limits are armed and no cancellation is pending, Charge()
// is one relaxed atomic load plus one branch — the hot path pays a single
// predictable test per round and the governor allocates nothing, ever.
//
// When a limit trips, the loop stops cleanly and certifies an *anytime*
// result (see CertifyAnytime below and the Completion/theta fields of
// TopKResult): every returned score is a proven lower bound, and theta is
// Fagin's approximation factor relating the best unreturned item to the
// weakest returned one.

#ifndef TOPK_CORE_QUERY_GOVERNOR_H_
#define TOPK_CORE_QUERY_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "common/status.h"
#include "core/topk_result.h"
#include "lists/access_stats.h"

namespace topk {

/// Per-query execution limits. All limits default to "unlimited"; a
/// default-constructed GovernorLimits arms nothing and changes nothing.
struct GovernorLimits {
  /// Wall-clock deadline in milliseconds, measured from the start of the run
  /// (ExecuteInto's arming point). Injected latency spikes from the fault
  /// layer count against it as virtual milliseconds. <= 0 disables.
  double deadline_ms = 0.0;

  /// Budgets on the number of accesses of each kind (0 disables). Direct
  /// accesses (BPA2) count toward the sorted budget — they play the same
  /// role in the paper's cost model as a position-addressed scan read.
  uint64_t sorted_access_budget = 0;
  uint64_t random_access_budget = 0;
  /// Budget on sorted + random + direct accesses together (0 disables).
  uint64_t total_access_budget = 0;

  /// Budget on the live candidate-pool footprint in bytes (NRA/CA/TPUT;
  /// 0 disables). Measures the candidates of *this* query, not the arena
  /// capacity retained by a warmed context.
  size_t pool_byte_budget = 0;

  /// StrictMode: when true, any degradation (a tripped limit, cancellation,
  /// or a permanent list failure) is converted by ExecuteInto into a Status
  /// error (ResourceExhausted / Unavailable) instead of an anytime result.
  bool strict = false;

  /// True when any limit is set (cancellation works regardless).
  bool enabled() const {
    return deadline_ms > 0.0 || sorted_access_budget != 0 ||
           random_access_budget != 0 || total_access_budget != 0 ||
           pool_byte_budget != 0;
  }

  /// Validates the limits for `algorithm`; messages name the algorithm, the
  /// limit and the observed value.
  Status Validate(const char* algorithm) const;
};

/// The per-context governor. Not copyable (holds the cancellation flag).
class QueryGovernor {
 public:
  /// The clock deadlines are armed and charged on. Must be monotonic: a
  /// wall clock stepping backwards would un-expire an armed deadline, and
  /// stepping forwards would spuriously cancel every in-flight query.
  using DeadlineClock = std::chrono::steady_clock;
  static_assert(DeadlineClock::is_steady,
                "deadline enforcement requires a monotonic clock");

  QueryGovernor() = default;
  QueryGovernor(const QueryGovernor&) = delete;
  QueryGovernor& operator=(const QueryGovernor&) = delete;

  /// Arms the governor for one run: captures the deadline's start time and
  /// clears any cancellation left over from a previous query. Called by
  /// ExecuteInto; cheap (no clock read unless a deadline is set).
  void Arm(const GovernorLimits& limits);

  /// The round-boundary check. Returns Completion::kExact while the run may
  /// continue; any other value names the first limit found exhausted
  /// (precedence: cancellation, deadline, access budgets, pool budget).
  /// `stats` are the run's access counts so far, `pool_bytes` the live
  /// candidate footprint (0 for pool-free algorithms), `virtual_ms` the
  /// injected latency accumulated by the fault layer.
  Completion Charge(const AccessStats& stats, size_t pool_bytes,
                    double virtual_ms) {
    if (cancel_.load(std::memory_order_relaxed)) {
      return Completion::kCancelled;
    }
    if (!armed_) {
      return Completion::kExact;
    }
    return ChargeSlow(stats, pool_bytes, virtual_ms);
  }

  /// Cooperative cancellation: may be called from any thread; the running
  /// query observes it at its next round boundary and stops with an anytime
  /// result tagged Completion::kCancelled. Cleared by the next Arm().
  void RequestCancel() { cancel_.store(true, std::memory_order_relaxed); }

  bool armed() const { return armed_; }
  const GovernorLimits& limits() const { return limits_; }

 private:
  Completion ChargeSlow(const AccessStats& stats, size_t pool_bytes,
                        double virtual_ms) const;

  GovernorLimits limits_;
  bool armed_ = false;
  std::atomic<bool> cancel_{false};
  DeadlineClock::time_point start_{};
};

/// Certifies an anytime result: records the completion reason, the bound
/// pair and Fagin's theta on `result`. `kth_lower` must be a certified lower
/// bound on every returned item's true score (-inf when nothing was
/// returned); `unreturned_upper` a certified upper bound on every unreturned
/// item's true score. The stored unreturned bound is widened to at least
/// kth_lower so that items proven weaker than the answer set (e.g. pruned
/// candidates) stay covered, and theta = unreturned_upper / kth_lower
/// clamped to [1, +inf] (with +inf when kth_lower <= 0 and the bound does
/// not already collapse).
void CertifyAnytime(Completion reason, Score kth_lower, Score unreturned_upper,
                    TopKResult* result);

}  // namespace topk

#endif  // TOPK_CORE_QUERY_GOVERNOR_H_
