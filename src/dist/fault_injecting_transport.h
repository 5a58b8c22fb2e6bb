// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// FaultInjectingTransport: a seeded, deterministic fault decorator over any
// Transport — the message-layer sibling of the local fault schedule,
// FaultInjectingAccessEngine. It drops messages, delays deliveries and
// duplicates replies, all as pure hashes of (seed, owner, per-owner message
// counter) through FaultDraw, and kills owners through the FaultSchedule
// both injectors share (lists/fault_injection.h), so a fault schedule
// replays message-for-message from its seed.
//
// Death contract (the shared schedule's): an owner serves every message up
// to its death point and then flips to dead; every later Call() fails
// Unavailable with zero reported latency — a dead owner looks exactly like
// a black hole, so the caller charges its own RPC deadline for the wait,
// and only its retry budget can conclude death.
//
// Death windows count each owner's OWN served messages (the schedule's
// per-unit counters), so calls to a sibling never drag another owner's
// window forward, and a replica-targeted plan kills exactly one replica of
// a group. (Pinned by DistFaultTransportTest.DeathWindowsCountPerOwnerMessages.)

#ifndef TOPK_DIST_FAULT_INJECTING_TRANSPORT_H_
#define TOPK_DIST_FAULT_INJECTING_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dist/transport.h"
#include "lists/fault_injection.h"

namespace topk {

/// A seeded, deterministic message-fault schedule. Rates are per-message (or
/// per-owner for owner_death_rate) probabilities in [0, 1]; a
/// default-constructed plan injects nothing.
struct TransportFaultPlan {
  /// Seed of the schedule; same seed + same plan => same faults, always.
  uint64_t seed = 1;

  /// Probability that one message is lost in flight (request or reply — the
  /// caller cannot tell, and must not: at-most-once delivery is the model).
  double drop_rate = 0.0;

  /// Probability that a delivered exchange is delayed by delay_ms extra
  /// virtual milliseconds (a straggler; hedging's reason to exist).
  double delay_rate = 0.0;
  double delay_ms = 5.0;

  /// Probability that a delivered reply arrives more than once (the
  /// coordinator dedupes and counts the extra bytes).
  double duplicate_rate = 0.0;

  /// Probability that an owner dies permanently, and the message-count
  /// window [death_min_messages, death_max_messages] in which its
  /// (deterministic) death point is drawn. Each owner serves >= 1 message.
  double owner_death_rate = 0.0;
  uint64_t death_min_messages = 1;
  uint64_t death_max_messages = 256;

  /// Deterministic targeted kills: every owner in `kill_owners` dies after
  /// serving at most `kill_after_messages` messages (>= 1) of its own (see
  /// the death-window note above). Listing every replica owner of one list
  /// is the correlated whole-group-death scenario the coordinator's degrade
  /// path certifies against.
  std::vector<size_t> kill_owners;
  uint64_t kill_after_messages = 1;

  /// Flapping: when > 0, deaths are temporary — a down owner rejects
  /// exactly `flap_revive_calls` calls, then revives with its next death
  /// point redrawn past the revival. Validate() requires a death source
  /// (owner_death_rate > 0 or a targeted kill): without one nothing flaps.
  uint64_t flap_revive_calls = 0;

  /// True when the plan injects anything at all.
  bool enabled() const {
    return drop_rate > 0.0 || delay_rate > 0.0 || duplicate_rate > 0.0 ||
           owner_death_rate > 0.0 || !kill_owners.empty();
  }

  /// Validates the plan for `algorithm` against a transport with
  /// `num_owners` owners; messages name the algorithm, knob and value.
  Status Validate(const char* algorithm, size_t num_owners) const;
};

/// Counters of what the schedule actually injected since construction.
struct TransportFaultStats {
  uint64_t dropped_messages = 0;
  uint64_t delayed_messages = 0;
  uint64_t duplicated_replies = 0;
  uint32_t dead_owners = 0;     ///< death events (a flapper counts each one)
  uint32_t owner_revivals = 0;  ///< flapping recoveries
};

class FaultInjectingTransport : public Transport {
 public:
  /// Decorates `inner` (not owned; must outlive this transport) and arms the
  /// schedule once: per-owner counters reset, death points drawn from the
  /// plan. Build a new transport for a fresh schedule. The plan must pass
  /// TransportFaultPlan::Validate for `inner`'s owners (asserted in debug
  /// builds).
  FaultInjectingTransport(Transport* inner, const TransportFaultPlan& plan);

  size_t num_owners() const override { return inner_->num_owners(); }

  /// True while `owner` has not yet died.
  bool OwnerAlive(size_t owner) const { return schedule_.Alive(owner); }

  TransportFaultStats fault_stats() const {
    TransportFaultStats stats = stats_;
    stats.dead_owners = schedule_.deaths();
    stats.owner_revivals = schedule_.revivals();
    return stats;
  }

  Status Call(size_t owner, const Request& request, Reply* reply,
              CallResult* result) override;

 private:
  Transport* inner_;
  TransportFaultPlan plan_;
  TransportFaultStats stats_;
  FaultSchedule schedule_;
};

}  // namespace topk

#endif  // TOPK_DIST_FAULT_INJECTING_TRANSPORT_H_
