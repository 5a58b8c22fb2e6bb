// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "dist/fault_injecting_transport.h"

#include <algorithm>
#include <cassert>

#include "common/rng.h"

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

// Uniform draw in [0, 1) from a tuple hashed with the splitmix64 finalizer
// (Mix64, as in fault_injection.cc): all message-fault decisions are pure
// functions of its output.
double Draw(uint64_t seed, uint64_t owner, uint64_t counter, uint64_t salt) {
  const uint64_t h = Mix64(seed ^ Mix64(owner + salt) ^
                           Mix64(counter * 0x2545f4914f6cdd1dull));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

Status TransportFaultPlan::Validate(const char* algorithm,
                                    size_t num_owners) const {
  const auto rate_ok = [](double rate) { return rate >= 0.0 && rate <= 1.0; };
  if (!rate_ok(drop_rate)) {
    return Status::Invalid(algorithm,
                           ": transport fault plan drop_rate must be in "
                           "[0, 1]; got drop_rate = ",
                           drop_rate);
  }
  if (!rate_ok(delay_rate)) {
    return Status::Invalid(algorithm,
                           ": transport fault plan delay_rate must be in "
                           "[0, 1]; got delay_rate = ",
                           delay_rate);
  }
  if (!rate_ok(duplicate_rate)) {
    return Status::Invalid(algorithm,
                           ": transport fault plan duplicate_rate must be in "
                           "[0, 1]; got duplicate_rate = ",
                           duplicate_rate);
  }
  if (!rate_ok(owner_death_rate)) {
    return Status::Invalid(algorithm,
                           ": transport fault plan owner_death_rate must be "
                           "in [0, 1]; got owner_death_rate = ",
                           owner_death_rate);
  }
  if (delay_ms < 0.0) {
    return Status::Invalid(
        algorithm, ": transport fault plan delay_ms must be >= 0; ",
        "got delay_ms = ", delay_ms);
  }
  if (death_min_messages < 1 || death_max_messages < death_min_messages) {
    return Status::Invalid(
        algorithm,
        ": transport fault plan death window must satisfy 1 <= "
        "death_min_messages <= death_max_messages; got [",
        death_min_messages, ", ", death_max_messages, "]");
  }
  if (kill_owner != kNoOwner && kill_owner >= num_owners) {
    return Status::Invalid(algorithm,
                           ": transport fault plan kill_owner = ", kill_owner,
                           " exceeds the last owner index ", num_owners - 1);
  }
  for (size_t owner : kill_owners) {
    if (owner >= num_owners) {
      return Status::Invalid(algorithm,
                             ": transport fault plan kill_owners entry ",
                             owner, " exceeds the last owner index ",
                             num_owners - 1);
    }
  }
  if ((kill_owner != kNoOwner || !kill_owners.empty()) &&
      kill_after_messages < 1) {
    return Status::Invalid(
        algorithm,
        ": transport fault plan kill_after_messages must be >= 1 (every "
        "owner serves its first message); got kill_after_messages = ",
        kill_after_messages);
  }
  if (flap_revive_calls > 0 && owner_death_rate == 0.0 &&
      kill_owner == kNoOwner && kill_owners.empty()) {
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
  Arm();
}

uint64_t FaultInjectingTransport::TargetedKillAt(size_t owner) const {
  uint64_t at = ~0ull;
  if (plan_.kill_owner == owner) {
    at = plan_.kill_after_messages;
  }
  for (size_t target : plan_.kill_owners) {
    if (target == owner && plan_.kill_after_messages < at) {
      at = plan_.kill_after_messages;
    }
  }
  return at;
}

void FaultInjectingTransport::Arm() {
  stats_ = TransportFaultStats{};
  const size_t owners = inner_->num_owners();
  served_.assign(owners, 0);
  death_at_.assign(owners, ~0ull);
  alive_.assign(owners, 1);
  down_left_.assign(owners, 0);
  revivals_.assign(owners, 0);
  for (size_t i = 0; i < owners; ++i) {
    if (plan_.owner_death_rate > 0.0 &&
        Draw(plan_.seed, i, 0, kOwnerDeathSalt) < plan_.owner_death_rate) {
      // The death point itself comes from an independent draw so the rate
      // and the position are not correlated.
      const double u = Draw(plan_.seed, i, 1, kOwnerDeathSalt);
      const uint64_t span =
          plan_.death_max_messages - plan_.death_min_messages + 1;
      death_at_[i] = plan_.death_min_messages +
                     static_cast<uint64_t>(u * static_cast<double>(span));
    }
    const uint64_t targeted = TargetedKillAt(i);
    if (targeted < death_at_[i]) {
      death_at_[i] = targeted;
    }
  }
}

Status FaultInjectingTransport::Call(size_t owner, const Request& request,
                                     Reply* reply, CallResult* result) {
  *result = CallResult{};
  assert(owner < alive_.size());
  if (!alive_[owner]) {
    if (plan_.flap_revive_calls > 0 && down_left_[owner] > 0 &&
        --down_left_[owner] == 0) {
      // Flapping: the owner has rejected its full down window and recovers;
      // this call still fails (the recovery is observed by the NEXT call),
      // and the next death point is redrawn past the revival. The redraw
      // hashes the per-owner revival count, so it is independent of how
      // calls to other owners interleave.
      alive_[owner] = 1;
      ++stats_.owner_revivals;
      const uint64_t revival = ++revivals_[owner];
      const double u = Draw(plan_.seed, owner, 2 * revival, kOwnerDeathSalt);
      const uint64_t span =
          plan_.death_max_messages - plan_.death_min_messages + 1;
      uint64_t next = plan_.death_min_messages +
                      static_cast<uint64_t>(u * static_cast<double>(span));
      const uint64_t targeted = TargetedKillAt(owner);
      if (targeted != ~0ull) {
        next = std::min(next, plan_.kill_after_messages);
      }
      death_at_[owner] = served_[owner] + next;
    }
    // Dead owner: the message vanishes; the caller times out on its own RPC
    // deadline (latency 0 here — the wait is the caller's, not the wire's).
    return Status::Unavailable("FaultInjectingTransport: owner ", owner,
                               " is dead");
  }
  const uint64_t t = ++served_[owner];
  // The message that reaches the death point is still served; the owner is
  // dead from the next Call() on. (death_at_ counts THIS owner's served
  // messages only — see the header's death-window note.)
  if (t >= death_at_[owner]) {
    alive_[owner] = 0;
    ++stats_.dead_owners;
    if (plan_.flap_revive_calls > 0) {
      down_left_[owner] = plan_.flap_revive_calls;
    }
  }
  if (plan_.drop_rate > 0.0 &&
      Draw(plan_.seed, owner, t, kDropSalt) < plan_.drop_rate) {
    ++stats_.dropped_messages;
    return Status::Unavailable("FaultInjectingTransport: message ", t,
                               " to owner ", owner, " lost");
  }
  Status status = inner_->Call(owner, request, reply, result);
  if (!status.ok()) return status;
  if (plan_.delay_rate > 0.0 &&
      Draw(plan_.seed, owner, t, kDelaySalt) < plan_.delay_rate) {
    ++stats_.delayed_messages;
    result->latency_ms += plan_.delay_ms;
  }
  if (plan_.duplicate_rate > 0.0 &&
      Draw(plan_.seed, owner, t, kDuplicateSalt) < plan_.duplicate_rate) {
    ++stats_.duplicated_replies;
    ++result->duplicate_replies;
  }
  return status;
}

}  // namespace topk
