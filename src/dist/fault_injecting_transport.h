// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// FaultInjectingTransport: a seeded, deterministic fault decorator over any
// Transport — the message-layer sibling of the local fault schedule,
// FaultInjectingAccessEngine. It
// drops messages, delays deliveries, duplicates replies, and kills owners
// permanently, all as pure hashes of (seed, owner, per-owner message counter)
// using the same splitmix64 discipline, so a fault schedule replays
// message-for-message from its seed.
//
// Death contract (mirrors the local fault schedule's): an owner serves every
// message up to its precomputed death point and then flips to dead; every
// later Call() fails Unavailable with zero reported latency — a dead owner
// looks exactly like a black hole, so the caller charges its own RPC deadline
// for the wait, and only its retry budget can conclude death.
//
// Death-window counter semantics: a death point is a count on ITS OWNER'S
// OWN message axis, not the transport-wide one. Every owner keeps a private
// served-message counter, the death point drawn from
// [death_min_messages, death_max_messages] (or pinned by a targeted kill) is
// compared against that private counter only, and calls to other owners
// never advance it. Two owners given the same window therefore die after
// serving their own Nth message each, regardless of how calls interleave
// across owners — replica-targeted plans can kill exactly one replica of a
// group without the sibling's traffic dragging the window forward.
// (Pinned by DistFaultTransportTest.DeathWindowsCountPerOwnerMessages.)

#ifndef TOPK_DIST_FAULT_INJECTING_TRANSPORT_H_
#define TOPK_DIST_FAULT_INJECTING_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dist/transport.h"

namespace topk {

/// A seeded, deterministic message-fault schedule. Rates are per-message (or
/// per-owner for owner_death_rate) probabilities in [0, 1]; a
/// default-constructed plan injects nothing.
struct TransportFaultPlan {
  static constexpr size_t kNoOwner = static_cast<size_t>(-1);

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

  /// Deterministic targeted kill: owner `kill_owner` dies permanently after
  /// serving exactly `kill_after_messages` messages (>= 1). kNoOwner disables.
  size_t kill_owner = kNoOwner;
  uint64_t kill_after_messages = 1;

  /// Additional deterministic targeted kills, each after its own
  /// `kill_after_messages` served messages (per-owner counters — see the
  /// death-window note above). Listing every replica owner of one list is
  /// the correlated whole-group-death scenario the coordinator's degrade
  /// path certifies against.
  std::vector<size_t> kill_owners;

  /// Flapping: when > 0, deaths are temporary — a down owner rejects
  /// exactly `flap_revive_calls` calls, then recovers and serves again; its
  /// next death point is redrawn from the death window past the revival
  /// (per-owner revival counters keep the redraws deterministic under any
  /// call interleaving). Requires a death source (owner_death_rate > 0 or a
  /// targeted kill) — a flap plan without deaths never flaps and is
  /// rejected by Validate().
  uint64_t flap_revive_calls = 0;

  /// True when the plan injects anything at all.
  bool enabled() const {
    return drop_rate > 0.0 || delay_rate > 0.0 || duplicate_rate > 0.0 ||
           owner_death_rate > 0.0 || kill_owner != kNoOwner ||
           !kill_owners.empty();
  }

  /// Validates the plan for `algorithm` against a transport with
  /// `num_owners` owners; messages name the algorithm, knob and value.
  Status Validate(const char* algorithm, size_t num_owners) const;
};

/// Counters of what the schedule actually injected since Arm().
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
  /// schedule: per-owner counters reset, death points drawn from the plan.
  FaultInjectingTransport(Transport* inner, const TransportFaultPlan& plan);

  /// Re-arms the same plan from scratch (fresh counters and death points) —
  /// one armed period per query keeps schedules independent across queries.
  void Arm();

  size_t num_owners() const override { return inner_->num_owners(); }

  /// True while `owner` has not yet died.
  bool OwnerAlive(size_t owner) const { return alive_[owner] != 0; }

  const TransportFaultStats& fault_stats() const { return stats_; }

  Status Call(size_t owner, const Request& request, Reply* reply,
              CallResult* result) override;

 private:
  /// The owner's targeted kill point (the tightest of kill_owner /
  /// kill_owners naming it), or ~0 when untargeted.
  uint64_t TargetedKillAt(size_t owner) const;

  Transport* inner_;
  TransportFaultPlan plan_;
  TransportFaultStats stats_;
  std::vector<uint64_t> served_;    // messages served, per owner (see header)
  std::vector<uint64_t> death_at_;  // owner dies after serving this many
  std::vector<uint8_t> alive_;
  std::vector<uint64_t> down_left_;  // flapping: rejected calls until revival
  std::vector<uint64_t> revivals_;   // flapping: per-owner revival count
};

}  // namespace topk

#endif  // TOPK_DIST_FAULT_INJECTING_TRANSPORT_H_
