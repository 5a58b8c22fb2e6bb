// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "lists/fault_injection.h"

#include <cassert>

#include "common/rng.h"

namespace topk {
namespace {

// Distinct salts keep the transient / spike / death draws independent even
// though they hash the same (seed, list, counter) tuple.
constexpr uint64_t kTransientSalt = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kSpikeSalt = 0xbf58476d1ce4e5b9ull;
constexpr uint64_t kDeathSalt = 0x94d049bb133111ebull;

// Uniform draw in [0, 1) from a tuple hashed with the splitmix64 finalizer
// (Mix64): all fault decisions are pure functions of its output.
double Draw(uint64_t seed, uint64_t list, uint64_t counter, uint64_t attempt,
            uint64_t salt) {
  const uint64_t h = Mix64(seed ^ Mix64(list + salt) ^
                           Mix64(counter * 0x2545f4914f6cdd1dull) ^
                           Mix64(attempt + 0xd6e8feb86659fd93ull));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

Status FaultPlan::Validate(const char* algorithm, size_t num_lists) const {
  const auto rate_ok = [](double rate) { return rate >= 0.0 && rate <= 1.0; };
  if (!rate_ok(transient_rate)) {
    return Status::Invalid(algorithm,
                           ": fault plan transient_rate must be in [0, 1]; ",
                           "got transient_rate = ", transient_rate);
  }
  if (!rate_ok(spike_rate)) {
    return Status::Invalid(algorithm,
                           ": fault plan spike_rate must be in [0, 1]; ",
                           "got spike_rate = ", spike_rate);
  }
  if (!rate_ok(death_rate)) {
    return Status::Invalid(algorithm,
                           ": fault plan death_rate must be in [0, 1]; ",
                           "got death_rate = ", death_rate);
  }
  if (max_retries < 1) {
    return Status::Invalid(algorithm, ": fault plan max_retries must be >= 1; ",
                           "got max_retries = ", max_retries);
  }
  if (spike_ms < 0.0) {
    return Status::Invalid(algorithm, ": fault plan spike_ms must be >= 0; ",
                           "got spike_ms = ", spike_ms);
  }
  if (death_min_accesses < 1 || death_max_accesses < death_min_accesses) {
    return Status::Invalid(
        algorithm,
        ": fault plan death window must satisfy 1 <= death_min_accesses <= "
        "death_max_accesses; got [",
        death_min_accesses, ", ", death_max_accesses, "]");
  }
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
  touches_.assign(m, 0);
  death_at_.assign(m, ~0ull);
  alive_.assign(m, 1);
  for (size_t i = 0; i < m; ++i) {
    if (plan_.death_rate > 0.0 &&
        Draw(plan_.seed, i, 0, 0, kDeathSalt) < plan_.death_rate) {
      // The death point itself comes from an independent draw so the rate
      // and the position are not correlated.
      const double u = Draw(plan_.seed, i, 1, 1, kDeathSalt);
      const uint64_t span = plan_.death_max_accesses -
                            plan_.death_min_accesses + 1;
      death_at_[i] = plan_.death_min_accesses +
                     static_cast<uint64_t>(u * static_cast<double>(span));
    }
    if (plan_.kill_list == i && plan_.kill_after_accesses < death_at_[i]) {
      death_at_[i] = plan_.kill_after_accesses;
    }
  }
}

void FaultInjectingAccessEngine::Roll(size_t list_index) {
  assert(armed_ && alive_[list_index]);
  const uint64_t t = ++touches_[list_index];
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
  // The access that reaches the death point is still served; the list is
  // dead from the next ListAlive() check on.
  if (t >= death_at_[list_index]) {
    alive_[list_index] = 0;
    ++stats_.dead_lists;
  }
}

}  // namespace topk
