// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// FaultInjectingAccessEngine: the seeded, deterministic fault schedule of a
// local run — transient errors (absorbed by bounded retry), latency spikes
// (charged as virtual milliseconds against the governor's deadline), and
// permanent per-list death. It is a schedule, not a decorator: it reads no
// list. The FaultIo access policy (core/list_io.h) rolls it before each read
// it serves.
//
// Determinism is the whole point: every fault decision is a pure hash of
// (seed, list, per-list access counter[, retry attempt]), so the same plan
// replays the same schedule access-for-access, across reruns and across
// warmed contexts. Nothing here reads a clock or an RNG stream shared with
// anything else.
//
// Death contract: a list serves every access up to its precomputed death
// point and then flips to dead — callers must check ListAlive() *before*
// accessing (the algorithm loops do this through the FaultIo policy), so a
// fault never surfaces as an exception or a torn read. Transient faults are
// total: a burst that exhausts the retry budget is counted (see
// FaultStats::exhausted_retries) and the final attempt is deemed served —
// "absorbed by bounded retry" is literal, and only the schedule's permanent
// deaths remove data.

#ifndef TOPK_LISTS_FAULT_INJECTION_H_
#define TOPK_LISTS_FAULT_INJECTION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace topk {

/// A seeded, deterministic fault schedule. Rates are per-access (or per-list
/// for death_rate) probabilities in [0, 1]; a default-constructed plan
/// injects nothing.
struct FaultPlan {
  static constexpr size_t kNoList = static_cast<size_t>(-1);

  /// Seed of the schedule; same seed + same plan => same faults, always.
  uint64_t seed = 1;

  /// Probability that one access attempt fails transiently. The engine
  /// retries (with deterministic "backoff" charged as retry counts) up to
  /// max_retries times; see the death contract above.
  double transient_rate = 0.0;
  int max_retries = 3;

  /// Probability that an access suffers a latency spike of spike_ms virtual
  /// milliseconds (charged against the governor's wall-clock deadline).
  double spike_rate = 0.0;
  double spike_ms = 1.0;

  /// Probability that a list dies permanently, and the access-count window
  /// [death_min_accesses, death_max_accesses] in which its (deterministic)
  /// death point is drawn. Each list serves at least one access.
  double death_rate = 0.0;
  uint64_t death_min_accesses = 1;
  uint64_t death_max_accesses = 1024;

  /// Deterministic targeted kill: list `kill_list` dies permanently after
  /// serving exactly `kill_after_accesses` accesses (>= 1). kNoList disables.
  size_t kill_list = kNoList;
  uint64_t kill_after_accesses = 1;

  /// True when the plan injects anything at all.
  bool enabled() const {
    return transient_rate > 0.0 || spike_rate > 0.0 || death_rate > 0.0 ||
           kill_list != kNoList;
  }

  /// Validates the plan for `algorithm` against a database with `num_lists`
  /// lists; messages name the algorithm, the knob and the observed value.
  Status Validate(const char* algorithm, size_t num_lists) const;
};

/// Counters of what the schedule actually injected during one arm period.
struct FaultStats {
  uint64_t transient_faults = 0;   ///< failed attempts absorbed by retry
  uint64_t exhausted_retries = 0;  ///< bursts that hit the retry budget
  uint64_t latency_spikes = 0;
  double virtual_latency_ms = 0.0;  ///< injected latency, charged to deadline
  uint32_t dead_lists = 0;          ///< lists currently permanently dead
};

/// The schedule. One instance lives in every ExecutionContext; Arm()
/// precomputes each list's death point, and all storage is retained across
/// queries (zero allocations once warmed).
class FaultInjectingAccessEngine {
 public:
  FaultInjectingAccessEngine() = default;

  /// Arms the schedule for one query over `m` lists. Resets per-list
  /// counters and draws each list's death point from the plan. Call Disarm()
  /// instead when no faults are wanted.
  void Arm(size_t m, const FaultPlan& plan);

  /// Disarms without touching retained storage; accessors keep working
  /// (everything reports alive / zero faults).
  void Disarm() { armed_ = false; }

  bool armed() const { return armed_; }

  /// True while `list_index` has not yet died. Callers must check before
  /// every access on a fault-aware path.
  bool ListAlive(size_t list_index) const {
    return !armed_ || alive_[list_index] != 0;
  }

  /// Rolls the schedule for one access to `list_index` (precondition:
  /// armed and ListAlive): possibly spends retries, charges a spike, or
  /// schedules the list's death *after* this access.
  void Roll(size_t list_index);

  uint32_t dead_lists() const { return stats_.dead_lists; }
  double virtual_latency_ms() const { return stats_.virtual_latency_ms; }
  const FaultStats& fault_stats() const { return stats_; }

 private:
  FaultPlan plan_;
  FaultStats stats_;
  bool armed_ = false;
  std::vector<uint64_t> touches_;   // accesses served per list
  std::vector<uint64_t> death_at_;  // list dies after serving this many
  std::vector<uint8_t> alive_;
};

}  // namespace topk

#endif  // TOPK_LISTS_FAULT_INJECTION_H_
