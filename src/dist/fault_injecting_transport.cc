// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "dist/fault_injecting_transport.h"

#include <cassert>

#include "common/macros.h"

namespace topk {
namespace {

// Distinct salts keep the drop / delay / duplicate / death draws independent
// even though they hash the same (seed, owner, counter) tuple. Different
// constants from fault_injection.cc's salts, so a shared seed across the
// access-level and message-level schedules still yields independent draws.
constexpr uint64_t kDropSalt = 0xd1b54a32d192ed03ull;
constexpr uint64_t kDelaySalt = 0x8cb92ba72f3d8dd7ull;
constexpr uint64_t kDuplicateSalt = 0xaef17502108ef2d9ull;
constexpr uint64_t kOwnerDeathSalt = 0x9fb21c651e98df25ull;

// An owner's death draws hash no fourth term.
double DeathDraw(uint64_t seed, uint64_t owner, uint64_t counter) {
  return FaultDraw(seed, owner, counter, kOwnerDeathSalt);
}

}  // namespace

Status TransportFaultPlan::Validate(const char* algorithm,
                                    size_t num_owners) const {
  constexpr const char* kPlan = "transport fault plan";
  TOPK_RETURN_NOT_OK(CheckFaultRate(algorithm, kPlan, "drop_rate", drop_rate));
  TOPK_RETURN_NOT_OK(CheckFaultRate(algorithm, kPlan, "delay_rate", delay_rate));
  TOPK_RETURN_NOT_OK(
      CheckFaultRate(algorithm, kPlan, "duplicate_rate", duplicate_rate));
  TOPK_RETURN_NOT_OK(
      CheckFaultRate(algorithm, kPlan, "owner_death_rate", owner_death_rate));
  TOPK_RETURN_NOT_OK(CheckFaultLatency(algorithm, kPlan, "delay_ms", delay_ms));
  TOPK_RETURN_NOT_OK(CheckDeathWindow(algorithm, kPlan, "messages",
                                      death_min_messages, death_max_messages));
  for (size_t owner : kill_owners) {
    if (owner >= num_owners) {
      return Status::Invalid(algorithm,
                             ": transport fault plan kill_owners entry ",
                             owner, " exceeds the last owner index ",
                             num_owners - 1);
    }
  }
  if (!kill_owners.empty() && kill_after_messages < 1) {
    return Status::Invalid(
        algorithm,
        ": transport fault plan kill_after_messages must be >= 1 (every "
        "owner serves its first message); got kill_after_messages = ",
        kill_after_messages);
  }
  if (flap_revive_calls > 0 && owner_death_rate == 0.0 &&
      kill_owners.empty()) {
    return Status::Invalid(
        algorithm,
        ": transport fault plan flap_revive_calls = ", flap_revive_calls,
        " needs a death source (owner_death_rate > 0 or a targeted kill) — "
        "a flap plan without deaths never flaps");
  }
  return Status::OK();
}

FaultInjectingTransport::FaultInjectingTransport(
    Transport* inner, const TransportFaultPlan& plan)
    : inner_(inner), plan_(plan) {
  // An unvalidated plan arms another schedule than the one it names: a
  // kill_after_messages of 0 kills after the first message, and an
  // out-of-range kill_owners entry kills nothing.
  assert(plan.Validate("FaultInjectingTransport", inner->num_owners()).ok());
  schedule_.Arm(inner_->num_owners(),
                {plan.seed, plan.owner_death_rate, plan.death_min_messages,
                 plan.death_max_messages, plan.kill_after_messages,
                 plan.flap_revive_calls},
                &DeathDraw);
  for (size_t owner : plan.kill_owners) {
    schedule_.Kill(owner);
  }
}

Status FaultInjectingTransport::Call(size_t owner, const Request& request,
                                     Reply* reply, CallResult* result) {
  *result = CallResult{};
  if (!schedule_.Alive(owner)) {
    // Dead owner: the message vanishes; the caller times out on its own RPC
    // deadline (latency 0 here — the wait is the caller's, not the wire's).
    // A flapping owner's last rejected call revives it.
    schedule_.Reject(owner);
    return Status::Unavailable("FaultInjectingTransport: owner ", owner,
                               " is dead");
  }
  // The message that reaches the death point is still served (the schedule
  // counts THIS owner's served messages only — see the header).
  const uint64_t t = schedule_.Serve(owner);
  if (plan_.drop_rate > 0.0 &&
      FaultDraw(plan_.seed, owner, t, kDropSalt) < plan_.drop_rate) {
    ++stats_.dropped_messages;
    return Status::Unavailable("FaultInjectingTransport: message ", t,
                               " to owner ", owner, " lost");
  }
  Status status = inner_->Call(owner, request, reply, result);
  if (!status.ok()) return status;
  if (plan_.delay_rate > 0.0 &&
      FaultDraw(plan_.seed, owner, t, kDelaySalt) < plan_.delay_rate) {
    ++stats_.delayed_messages;
    result->latency_ms += plan_.delay_ms;
  }
  if (plan_.duplicate_rate > 0.0 &&
      FaultDraw(plan_.seed, owner, t, kDuplicateSalt) < plan_.duplicate_rate) {
    ++stats_.duplicated_replies;
    ++result->duplicate_replies;
  }
  return status;
}

}  // namespace topk
