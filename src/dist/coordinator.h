// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Coordinator: the paper's query node in the distributed setting. It runs the
// core BPA and TPUT loops (and NRA, when a list is lost) over a pluggable
// message Transport to ListOwner shards, reading through the RemoteIo access
// policy (dist/remote_io.h), which batches sorted accesses into windows and
// random accesses into per-list lookup vectors so the wire carries few large
// messages instead of the loops' many small accesses — the metric the
// distributed top-k literature optimizes (messages and bytes per query). The
// coordinator itself keeps only the RPC, health and replica machinery.
//
// Robustness is the contract, not an afterthought. Its settings are named
// constants in coordinator.cc, one value each (kRpcDeadlineMs and friends):
//
//  * every RPC runs under a per-call deadline (kRpcDeadlineMs, 5 virtual ms)
//    with a bounded retry budget (kRpcMaxAttempts, 4 attempts) and
//    deterministic jittered exponential backoff (kBackoffBaseMs · 2^(a-1),
//    jitter seeded by kBackoffSeed), all charged as virtual milliseconds
//    against the query governor's deadline;
//  * straggler hedging: when an exchange outlasts a per-owner hedge timeout
//    (kHedgeMultiplier × the owner's observed p99, never below
//    kHedgeFloorMs), the request is re-issued and the earlier reply wins
//    (duplicates are deduped and their bytes counted, as an at-least-once
//    transport forces);
//  * replica groups: with DistOptions::replication_factor = R every list is
//    served by R owner replicas (mirrors of the same immutable list), and a
//    per-replica health tracker (a circuit breaker that opens after
//    kBreakerFailures consecutive failures for a kBreakerOpenMs window
//    jittered by kHealthSeed, then admits a half-open probe; EWMA latency
//    with weight kEwmaAlpha) drives a failover ladder per
//    RPC: retry-with-backoff on the primary → hedge to the healthiest
//    sibling replica → abandon the replica (breaker open or retry budget
//    exhausted) and re-route to a survivor, resuming the sorted cursor at
//    the exact window position. Owners are stateless and windows are
//    deterministic functions of the immutable list, so a mid-query replica
//    switch is invisible to the algorithm: items, scores, stop positions
//    and access counts stay byte-identical to the unreplicated run;
//  * only when a WHOLE replica group is dead does a list die: it maps onto
//    the core loops' dead-list semantics and the coordinator re-runs the
//    core NRA loop over the surviving lists, returning a θ-certified anytime
//    answer tagged Completion::kListFailure — a dying cluster still answers
//    inside the SLA.
//
// Determinism: distributed BPA/TPUT run the single-node loops themselves, so
// their answers, certificates, access counts and governor behaviour are the
// single-node engine's (dBPA's are memoized BPA's: it resolves each item
// once), and a faulted run replays message-for-message from the transport
// fault plan's seed plus the constant kBackoffSeed and kHealthSeed.

#ifndef TOPK_DIST_COORDINATOR_H_
#define TOPK_DIST_COORDINATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/execution_context.h"
#include "core/query_governor.h"
#include "core/topk_algorithm.h"
#include "core/topk_result.h"
#include "dist/transport.h"
#include "lists/scorer.h"
#include "lists/types.h"

namespace topk {

struct RemoteReads;  // dist/remote_io.h

/// Knobs of one coordinator. A default-constructed DistOptions is valid for
/// any transport with at least one owner. The RPC, hedging and health
/// settings are fixed constants (see the file comment).
struct DistOptions {
  /// Sorted-access batching: rows fetched per kSortedWindow/kDrain message.
  /// It also spans BPA's random-access batches: the random reads of a
  /// window's rows go out in one kRandomLookup per list (at 1, one per row).
  uint32_t window_rows = 64;

  /// Replica groups: every list must be claimed by exactly this many owners
  /// (Connect() groups the claims). 1 — the default — is the unreplicated
  /// PR 8 topology; the health tracker and failover ladder are then inert
  /// (one replica is always "the healthiest") and behavior is unchanged.
  uint32_t replication_factor = 1;

  /// Per-query execution limits, enforced by the core loops on their
  /// single-node cadence (StrictMode included). RPC latencies, backoff waits
  /// and timeout waits all charge the deadline as virtual milliseconds.
  GovernorLimits governor;

  /// Validates the options for `algorithm` over a transport with
  /// `num_owners` owners; messages name the algorithm, knob and value.
  Status Validate(const char* algorithm, size_t num_owners) const;
};

/// Per-query wire and robustness counters — what the distributed literature
/// benchmarks, plus what the fault machinery actually did.
struct DistStats {
  uint64_t messages_sent = 0;
  uint64_t replies_received = 0;  ///< incl. duplicate deliveries
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;  ///< incl. duplicate deliveries
  uint64_t rounds = 0;          ///< loop rounds: BPA rows, TPUT phases, NRA
  uint64_t retries = 0;         ///< re-attempts after a lost/failed exchange
  uint64_t hedges = 0;          ///< hedge requests issued
  uint64_t hedge_wins = 0;      ///< hedges whose reply beat the primary's
  uint64_t duplicate_replies = 0;  ///< extra reply copies deduped
  uint64_t timeouts = 0;           ///< attempts that cost the full RPC deadline
  uint32_t owner_deaths = 0;       ///< owners declared permanently dead
  uint64_t replica_failovers = 0;  ///< RPCs re-routed to a sibling replica
  uint64_t breaker_opens = 0;      ///< circuit-breaker open transitions
  uint64_t probes_sent = 0;        ///< half-open health probes issued
  uint32_t groups_lost = 0;        ///< lists whose whole replica group died
  double virtual_ms = 0.0;  ///< total virtual time charged to the deadline
};

class Coordinator {
 public:
  /// Binds to `transport` (not owned; must outlive the coordinator).
  Coordinator(Transport* transport, const DistOptions& options);
  ~Coordinator();

  /// The catalog handshake: one kHello per owner. Fails unless every list
  /// index 0..m-1 is claimed by exactly replication_factor owners (its
  /// replica group, ordered by owner index), the replicas of each group
  /// advertise identical catalogs (same max/min scores — mirrors of the same
  /// immutable list), and all lists agree on n. Must succeed before the
  /// Execute calls. The handshake's messages are connection setup: each
  /// Execute call resets DistStats, so they appear in stats() only until the
  /// first query runs.
  Status Connect();

  size_t num_lists() const { return replicas_of_.size(); }
  size_t num_items() const { return n_; }

  /// The score floor the answers are certified against (DeriveScoreFloor of
  /// the owners' catalogs: 0 lowered to the smallest advertised min score).
  Score score_floor() const { return floor_; }

  /// Distributed BPA: the core memoized BPA loop — per-depth rows over
  /// batched sorted windows, one lookup message per list and window (the
  /// random reads of every row the window holds, sent when BPA reaches its
  /// first row), the paper's λ (best-position) stop rule. Any scorer. The
  /// loss of a whole replica group degrades to NRA over the survivors.
  Result<TopKResult> ExecuteBpa(const TopKQuery& query);

  /// Distributed TPUT: the core TPUT loop — top-k prefixes; drain to τ1/m
  /// via kDrain messages whose threshold stop runs owner-side; one lookup
  /// message per list for the τ2 survivors. Summation scoring only. The loss
  /// of a whole replica group degrades to NRA over the survivors.
  Result<TopKResult> ExecuteTput(const TopKQuery& query);

  /// Wire/robustness counters of the last Execute call.
  const DistStats& stats() const { return stats_; }

  /// True while at least one replica of `list_index`'s group has not been
  /// declared dead — a list only dies with its whole replica group.
  bool ListAlive(size_t list_index) const { return !group_lost_[list_index]; }

 private:
  friend class RemoteIo;

  /// Per-replica health, reset per query: a consecutive-failure circuit
  /// breaker (closed → open after kBreakerFailures straight failures; open →
  /// half-open when a seeded jittered window elapses and a probe fires;
  /// half-open → closed on probe success, back to open on failure) plus an
  /// EWMA of observed attempt latency for healthiest-replica routing.
  struct ReplicaHealth {
    enum Breaker : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };
    Breaker breaker = kClosed;
    int consecutive_failures = 0;
    double open_until_ms = 0.0;  ///< virtual time the open window ends
    double ewma_ms = 0.0;
    bool ewma_set = false;
  };

  static constexpr size_t kNoList = static_cast<size_t>(-1);

  void BeginQuery(size_t k, bool bpa);

  /// Validates the options and the query (messages name `algorithm`), runs
  /// the core BPA or TPUT loop over RemoteIo and, when a replica group is
  /// lost, the core NRA loop over the same RemoteIo; then applies the shared
  /// result contract (FinishResult).
  Result<TopKResult> Execute(const char* algorithm, const TopKQuery& query,
                             bool tput);

  // --- RPC machinery (retry / backoff / hedging / death) ---

  /// One raw exchange with full wire accounting. Fills `reply` on success.
  Status Send(size_t owner, const Request& request, Reply* reply,
              CallResult* outcome);

  /// One attempt = primary send, hedged when its outcome (reply latency, or
  /// the full RPC deadline for a loss) outlasts the owner's hedge timeout —
  /// computed only when the outcome exceeds kHedgeFloorMs, the timeout's
  /// lower bound.
  /// The hedge goes to `hedge_owner` — the primary itself when unreplicated,
  /// the healthiest live sibling replica otherwise. On success `*latency_ms`
  /// is the attempt's effective latency.
  Status Attempt(size_t owner, size_t hedge_owner, const Request& request,
                 Reply* reply, double* latency_ms);

  /// The robust per-owner RPC: bounded attempts with jittered exponential
  /// backoff. When `allow_breaker_failover` and the owner's breaker opens
  /// mid-RPC while a breaker-closed sibling of `list` exists, it returns
  /// Unavailable WITHOUT killing the owner (a recoverable failover — the
  /// breaker's whole point); otherwise exhausting the budget kills the owner
  /// and fails Unavailable. All waits charge stats_.virtual_ms.
  Status OwnerRpc(size_t owner, size_t list, const Request& request,
                  Reply* reply, bool allow_breaker_failover);

  /// The list-level RPC the phase loops call: PickReplica → OwnerRpc,
  /// laddering across the replica group (each breaker failover or owner
  /// death re-routes to the next-healthiest survivor) until one replica
  /// answers or the whole group is dead (Unavailable → the degrade path).
  Status ListRpc(size_t list, const Request& request, Reply* reply);

  /// Checks an owner's reply before the phase loops index with its fields or
  /// step by its length: a window holds exactly min(max_entries,
  /// n - start + 1) entries, a drain 1..max_entries, a lookup reply one
  /// answer per requested item with its position in [1, n]; every item is
  /// < n and every score finite. A violation is Invalid naming the owner,
  /// list, message type and field — a protocol bug, not a fault, so the
  /// phase loops surface it instead of retrying or degrading.
  Status CheckReply(size_t list, const Request& request,
                    const Reply& reply) const;

  double HedgeTimeoutMs(size_t owner) const;
  void RecordLatency(size_t owner, double latency_ms);
  void KillOwner(size_t owner);

  // --- replica health (inert at replication_factor = 1) ---

  /// Routing decision for `list`: fires any due half-open probes for the
  /// group, then keeps the sticky primary while it is alive with a closed
  /// breaker; otherwise re-picks deterministically — prefer closed breakers,
  /// then lowest EWMA latency (unseen replicas sort first), then lowest
  /// owner index — and updates the sticky primary.
  size_t PickReplica(size_t list);

  /// The hedge target for an RPC to `owner` serving `list`: the healthiest
  /// live non-open sibling replica, or `owner` itself when there is none
  /// (self-hedging — PR 8's behavior).
  size_t HedgeTarget(size_t owner, size_t list) const;

  /// True when `list` has a live breaker-closed replica other than `owner` —
  /// the condition under which abandoning `owner` is a failover, not a death.
  bool HasClosedAlternative(size_t list, size_t owner) const;

  bool ProbeDue(size_t owner) const;
  void SendProbe(size_t owner);
  void RecordOutcome(size_t owner, bool success);
  double HealthJitter();

  Transport* transport_;
  DistOptions options_;

  // Catalog (filled by Connect).
  std::vector<std::vector<size_t>> replicas_of_;  // list -> owners, asc order
  std::vector<std::vector<size_t>> lists_of_;     // owner -> lists it serves
  std::vector<Score> max_score_;     // list index -> advertised max
  std::vector<Score> min_score_;     // list index -> advertised min
  std::vector<uint8_t> owner_alive_;  // owner -> not yet declared dead
  size_t n_ = 0;
  Score floor_ = 0.0;
  bool connected_ = false;

  // Per-query state (reset by BeginQuery; storage retained).
  DistStats stats_;
  ExecutionContext context_;     // the core loops' scratch and governor
  AlgorithmOptions core_options_;  // memoized BPA, the catalog's floor
  std::unique_ptr<RemoteReads> reads_;  // RemoteIo's buffers
  uint64_t backoff_counter_ = 0;

  // Replica health (reset by BeginQuery).
  std::vector<ReplicaHealth> health_;        // per owner
  std::vector<size_t> primary_of_;           // list -> sticky routed replica
  std::vector<uint8_t> group_lost_;  // list -> whole replica group dead
  uint64_t health_counter_ = 0;              // jitter draw counter

  // Per-owner latency rings feeding the p99 hedge timeout.
  static constexpr size_t kLatencyRing = 64;
  std::vector<double> latency_ring_;  // owner-major, kLatencyRing samples
  std::vector<uint32_t> latency_count_;

  Reply hedge_reply_;
  Request probe_request_;
  Reply probe_reply_;
  size_t reply_owner_ = 0;  // owner whose reply the last Attempt kept
  mutable std::vector<double> latency_scratch_;
};

}  // namespace topk

#endif  // TOPK_DIST_COORDINATOR_H_
