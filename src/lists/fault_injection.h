// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// The seeded, deterministic fault schedules. FaultSchedule is the death
// schedule both injectors share: a unit is a list for
// FaultInjectingAccessEngine (below) and an owner for
// FaultInjectingTransport (dist/fault_injecting_transport.h), and each adds
// its own per-access draws. FaultInjectingAccessEngine is a local run's
// schedule — transient errors (absorbed by bounded retry), latency spikes
// (charged as virtual milliseconds against the governor's deadline), and
// permanent per-list death. It reads no list: the FaultIo access policy
// (core/list_io.h) rolls it before each read it serves while it is armed.
//
// Determinism is the whole point: every fault decision is a pure hash of
// (seed, unit, per-unit counter[, retry attempt]) through FaultDraw, so the
// same plan replays the same schedule access-for-access, across reruns and
// across warmed contexts. Nothing here reads a clock or a shared RNG stream.
//
// Death contract: a unit serves every access up to its precomputed death
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

#include "common/rng.h"
#include "common/status.h"

namespace topk {

/// Uniform draw in [0, 1) from (seed, unit, counter) under `salt`, through
/// Mix64; `mixed` is an optional pre-mixed fourth term (0 adds nothing).
inline double FaultDraw(uint64_t seed, uint64_t unit, uint64_t counter,
                        uint64_t salt, uint64_t mixed = 0) {
  const uint64_t h = Mix64(seed ^ Mix64(unit + salt) ^
                           Mix64(counter * 0x2545f4914f6cdd1dull) ^ mixed);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Plan checks both schedules share; messages name the algorithm, the plan,
/// the knob and the value. `served` is "accesses" or "messages".
Status CheckFaultRate(const char* algorithm, const char* plan,
                      const char* knob, double rate);
Status CheckFaultLatency(const char* algorithm, const char* plan,
                         const char* knob, double ms);
Status CheckDeathWindow(const char* algorithm, const char* plan,
                        const char* served, uint64_t min, uint64_t max);

/// The per-unit death schedule. A unit dies after serving its death point:
/// with probability `rate` a point drawn from [min_served, max_served], and
/// at most `kill_after` for a unit named by Kill(). With flap_revive_calls
/// > 0 a dead unit rejects exactly that many calls, then revives with its
/// next death point redrawn past the revival. A unit counts its own served
/// accesses only. Storage is retained across Arm()s.
class FaultSchedule {
 public:
  /// Each injector's salted death hash: the rate draws at counter 0, the
  /// first point at 1, and the point after the r-th revival at 2r.
  using DeathDraw = double (*)(uint64_t seed, uint64_t unit, uint64_t counter);

  /// The death knobs of a plan, copied at Arm().
  struct Deaths {
    uint64_t seed;
    double rate;
    uint64_t min_served, max_served, kill_after, flap_revive_calls;
  };

  /// Resets every unit's counters and draws its first death point.
  void Arm(size_t units, const Deaths& deaths, DeathDraw draw);

  /// Targeted kill: caps `unit`'s death points, first and redrawn, at
  /// kill_after. A unit past the last one names none and kills nothing.
  void Kill(size_t unit);

  bool Alive(size_t unit) const { return units_[unit].alive; }

  /// Counts one access served by a live unit and returns its count; the
  /// access that reaches the death point is served, then the unit is dead.
  uint64_t Serve(size_t unit) {
    Unit& u = units_[unit];
    if (++u.served >= u.death_at) {
      u.alive = false;
      u.down_left = knobs_.flap_revive_calls;
      ++deaths_seen_;
    }
    return u.served;
  }

  /// Counts one call rejected by a dead unit. A flapping unit's last
  /// rejection revives it (the next call sees it alive).
  void Reject(size_t unit);

  uint32_t deaths() const { return deaths_seen_; }  ///< death events
  uint32_t revivals() const { return revivals_; }

 private:
  struct Unit {
    uint64_t served = 0;
    uint64_t death_at = ~0ull;  // dies after serving this many
    uint64_t down_left = 0;     // flapping: rejected calls until revival
    uint64_t revivals = 0;
    bool alive = true;
    bool killed = false;
  };

  /// min_served plus a draw over the window at `counter`, capped by a kill.
  uint64_t DeathPoint(size_t unit, uint64_t counter) const;

  Deaths knobs_{};
  DeathDraw draw_ = nullptr;
  std::vector<Unit> units_;
  uint32_t deaths_seen_ = 0;
  uint32_t revivals_ = 0;
};

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

/// The local injector. One instance lives in every ExecutionContext; Arm()
/// precomputes each list's death point, and all storage is retained across
/// queries (zero allocations once warmed).
class FaultInjectingAccessEngine {
 public:
  /// Arms the schedule for one query over `m` lists. Resets per-list
  /// counters and draws each list's death point from the plan. Call Disarm()
  /// instead when no faults are wanted.
  void Arm(size_t m, const FaultPlan& plan);

  /// Disarms without touching retained storage; accessors keep working
  /// (everything reports alive / zero faults, whatever the last armed run
  /// injected).
  void Disarm() { armed_ = false; }

  bool armed() const { return armed_; }

  /// True while `list_index` has not yet died. Callers must check before
  /// every access on a fault-aware path.
  bool ListAlive(size_t list_index) const {
    return !armed_ || schedule_.Alive(list_index);
  }

  /// Rolls the schedule for one access to `list_index` (precondition:
  /// armed and ListAlive): possibly spends retries, charges a spike, or
  /// schedules the list's death *after* this access.
  void Roll(size_t list_index);

  uint32_t dead_lists() const { return armed_ ? schedule_.deaths() : 0; }
  double virtual_latency_ms() const {
    return armed_ ? stats_.virtual_latency_ms : 0.0;
  }
  FaultStats fault_stats() const {
    if (!armed_) {
      return FaultStats{};
    }
    FaultStats stats = stats_;
    stats.dead_lists = schedule_.deaths();
    return stats;
  }

 private:
  FaultPlan plan_;
  FaultStats stats_;
  bool armed_ = false;
  FaultSchedule schedule_;
};

}  // namespace topk

#endif  // TOPK_LISTS_FAULT_INJECTION_H_
