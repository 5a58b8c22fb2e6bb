// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "lists/fault_injection.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/macros.h"

namespace topk {
namespace {

// Distinct salts keep the transient / spike / death draws independent even
// though they hash the same (seed, list, counter) tuple.
constexpr uint64_t kTransientSalt = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kSpikeSalt = 0xbf58476d1ce4e5b9ull;
constexpr uint64_t kDeathSalt = 0x94d049bb133111ebull;

// The local draws hash a fourth term, the retry attempt.
double Draw(uint64_t seed, uint64_t list, uint64_t counter, uint64_t attempt,
            uint64_t salt) {
  return FaultDraw(seed, list, counter, salt,
                   Mix64(attempt + 0xd6e8feb86659fd93ull));
}

// A list's death draws take their counter as the attempt.
double DeathDraw(uint64_t seed, uint64_t list, uint64_t counter) {
  return Draw(seed, list, counter, counter, kDeathSalt);
}

}  // namespace

Status CheckFaultRate(const char* algorithm, const char* plan,
                      const char* knob, double rate) {
  if (rate >= 0.0 && rate <= 1.0) return Status::OK();
  return Status::Invalid(algorithm, ": ", plan, " ", knob,
                         " must be in [0, 1]; got ", knob, " = ", rate);
}

Status CheckFaultLatency(const char* algorithm, const char* plan,
                         const char* knob, double ms) {
  if (std::isfinite(ms) && ms >= 0.0) return Status::OK();
  return Status::Invalid(algorithm, ": ", plan, " ", knob,
                         " must be >= 0 and finite; got ", knob, " = ", ms);
}

Status CheckDeathWindow(const char* algorithm, const char* plan,
                        const char* served, uint64_t min, uint64_t max) {
  if (min >= 1 && max >= min) return Status::OK();
  return Status::Invalid(algorithm, ": ", plan,
                         " death window must satisfy 1 <= death_min_", served,
                         " <= death_max_", served, "; got [", min, ", ", max,
                         "]");
}

void FaultSchedule::Arm(size_t units, const Deaths& deaths, DeathDraw draw) {
  knobs_ = deaths;
  draw_ = draw;
  deaths_seen_ = 0;
  revivals_ = 0;
  units_.assign(units, Unit{});
  for (size_t i = 0; i < units; ++i) {
    // The death point itself comes from an independent draw so the rate
    // and the position are not correlated.
    if (knobs_.rate > 0.0 && draw_(knobs_.seed, i, 0) < knobs_.rate) {
      units_[i].death_at = DeathPoint(i, 1);
    }
  }
}

void FaultSchedule::Kill(size_t unit) {
  if (unit < units_.size()) {
    units_[unit].killed = true;
    units_[unit].death_at = std::min(units_[unit].death_at, knobs_.kill_after);
  }
}

uint64_t FaultSchedule::DeathPoint(size_t unit, uint64_t counter) const {
  const double u = draw_(knobs_.seed, unit, counter);
  const uint64_t span = knobs_.max_served - knobs_.min_served + 1;
  const uint64_t at =
      knobs_.min_served + static_cast<uint64_t>(u * static_cast<double>(span));
  return units_[unit].killed ? std::min(at, knobs_.kill_after) : at;
}

void FaultSchedule::Reject(size_t unit) {
  Unit& u = units_[unit];
  if (u.down_left == 0 || --u.down_left > 0) return;
  // The down window is over: this rejection still fails, and the next death
  // point is redrawn past the revival. The redraw hashes the unit's own
  // revival count, so it is independent of how calls to other units
  // interleave.
  u.alive = true;
  ++revivals_;
  u.death_at = u.served + DeathPoint(unit, 2 * ++u.revivals);
}

Status FaultPlan::Validate(const char* algorithm, size_t num_lists) const {
  constexpr const char* kPlan = "fault plan";
  TOPK_RETURN_NOT_OK(
      CheckFaultRate(algorithm, kPlan, "transient_rate", transient_rate));
  TOPK_RETURN_NOT_OK(CheckFaultRate(algorithm, kPlan, "spike_rate", spike_rate));
  TOPK_RETURN_NOT_OK(CheckFaultRate(algorithm, kPlan, "death_rate", death_rate));
  if (max_retries < 1) {
    return Status::Invalid(algorithm, ": fault plan max_retries must be >= 1; ",
                           "got max_retries = ", max_retries);
  }
  TOPK_RETURN_NOT_OK(CheckFaultLatency(algorithm, kPlan, "spike_ms", spike_ms));
  TOPK_RETURN_NOT_OK(CheckDeathWindow(algorithm, kPlan, "accesses",
                                      death_min_accesses, death_max_accesses));
  if (kill_list != kNoList) {
    if (kill_list >= num_lists) {
      return Status::Invalid(algorithm, ": fault plan kill_list = ", kill_list,
                             " exceeds the last list index ", num_lists - 1);
    }
    if (kill_after_accesses < 1) {
      return Status::Invalid(
          algorithm,
          ": fault plan kill_after_accesses must be >= 1 (every list serves "
          "its first access); got kill_after_accesses = ",
          kill_after_accesses);
    }
  }
  return Status::OK();
}

void FaultInjectingAccessEngine::Arm(size_t m, const FaultPlan& plan) {
  plan_ = plan;
  stats_ = FaultStats{};
  armed_ = true;
  schedule_.Arm(m,
                {plan.seed, plan.death_rate, plan.death_min_accesses,
                 plan.death_max_accesses, plan.kill_after_accesses, 0},
                &DeathDraw);
  schedule_.Kill(plan.kill_list);  // kNoList names no list
}

void FaultInjectingAccessEngine::Roll(size_t list_index) {
  assert(armed_ && schedule_.Alive(list_index));
  const uint64_t t = schedule_.Serve(list_index);
  if (plan_.transient_rate > 0.0) {
    int attempt = 0;
    while (attempt < plan_.max_retries &&
           Draw(plan_.seed, list_index, t, static_cast<uint64_t>(attempt),
                kTransientSalt) < plan_.transient_rate) {
      ++stats_.transient_faults;
      ++attempt;
    }
    if (attempt == plan_.max_retries) {
      ++stats_.exhausted_retries;
    }
  }
  if (plan_.spike_rate > 0.0 &&
      Draw(plan_.seed, list_index, t, 0, kSpikeSalt) < plan_.spike_rate) {
    ++stats_.latency_spikes;
    stats_.virtual_latency_ms += plan_.spike_ms;
  }
}

}  // namespace topk
