// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "dist/coordinator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/bpa_loop.h"
#include "core/candidate_pool.h"
#include "core/nra_loop.h"
#include "core/tput_loop.h"
#include "dist/remote_io.h"

namespace topk {
namespace {

// --- RPC, hedging and health settings ---

// Per-RPC deadline in virtual milliseconds: what a lost message or dead owner
// costs the caller per attempt before the next retry fires.
constexpr double kRpcDeadlineMs = 5.0;

// Retry budget: total attempts per RPC (the first try included). An RPC whose
// budget is exhausted declares the owner permanently dead.
constexpr int kRpcMaxAttempts = 4;

// Backoff before retry attempt a (1-based): kBackoffBaseMs * 2^(a-1), scaled
// by a deterministic jitter in [1, 1.5) drawn from kBackoffSeed.
constexpr double kBackoffBaseMs = 0.5;
constexpr uint64_t kBackoffSeed = 1;

// Straggler hedging: when an exchange outlasts the owner's hedge timeout —
// kHedgeMultiplier times the owner's observed p99 latency, never below
// kHedgeFloorMs — the request is re-issued and the earlier reply wins.
// Because of the floor, the timeout is only evaluated for attempts slower
// than kHedgeFloorMs; the p99 is read off the owner's last kLatencyRing (64)
// successful latencies, where it is the second-largest sample.
constexpr double kHedgeFloorMs = 1.0;
constexpr double kHedgeMultiplier = 3.0;

// Per-replica circuit breaker: this many CONSECUTIVE failed attempts open the
// breaker; a replica with an open breaker is routed around while a sibling
// is available instead of burning retry budget on it.
constexpr int kBreakerFailures = 3;

// How long (virtual ms) an open breaker stays open before a half-open probe
// is allowed, scaled by a deterministic jitter in [1, 1.5) drawn from
// kHealthSeed. A successful probe closes the breaker; a failed one re-opens
// it for another window.
constexpr double kBreakerOpenMs = 10.0;
constexpr uint64_t kHealthSeed = 1;

// EWMA smoothing for per-replica observed latency (the healthiest-replica
// routing signal): ewma <- alpha * sample + (1 - alpha) * ewma.
constexpr double kEwmaAlpha = 0.3;

constexpr uint64_t kBackoffSalt = 0xc6a4a7935bd1e995ull;

// The backoff and breaker jitter is a pure splitmix64 hash of (seed,
// counter), the fault schedules' discipline, so a faulted run's virtual
// timeline replays exactly from its seeds.
double JitterDraw(uint64_t seed, uint64_t counter) {
  const uint64_t h = Mix64(seed ^ Mix64(counter + kBackoffSalt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

const char* MessageName(MessageType type) {
  switch (type) {
    case MessageType::kHello:
      return "hello";
    case MessageType::kSortedWindow:
      return "window";
    case MessageType::kDrain:
      return "drain";
    case MessageType::kRandomLookup:
      return "lookup";
    case MessageType::kProbe:
      return "probe";
  }
  return "unknown";
}

// The engine loops, one out-of-line function each, so that each hot loop is
// compiled, register-allocated and laid out alone, as its local twin is in
// topk_algorithm.cc, and not inside Execute's frame around the other
// engine's loop and the validation and failover code. The NRA failover gets
// its own for symmetry.
[[gnu::noinline]] Status RunDistBpa(const AlgorithmOptions& options,
                                    const TopKQuery& query,
                                    ExecutionContext* context, RemoteIo io,
                                    TopKResult* result) {
  return DispatchBpa(options, query, context, io, result);
}

[[gnu::noinline]] Status RunDistTput(const AlgorithmOptions& options,
                                     const TopKQuery& query,
                                     ExecutionContext* context, RemoteIo io,
                                     TopKResult* result) {
  return RunTputLoop(options, query, context, io, result);
}

[[gnu::noinline]] Status RunDistNra(const AlgorithmOptions& options,
                                    const TopKQuery& query,
                                    ExecutionContext* context, RemoteIo io,
                                    TopKResult* result) {
  return DispatchNra(options, query, context, io, result);
}

}  // namespace

Status DistOptions::Validate(const char* algorithm, size_t num_owners) const {
  if (num_owners < 1) {
    return Status::Invalid(algorithm,
                           ": distributed execution requires at least one "
                           "list owner; got num_owners = ",
                           num_owners);
  }
  if (window_rows < 1) {
    return Status::Invalid(algorithm,
                           ": dist window_rows must be >= 1; got window_rows "
                           "= ",
                           window_rows);
  }
  if (replication_factor < 1) {
    return Status::Invalid(algorithm,
                           ": dist replication_factor must be >= 1 (1 means "
                           "unreplicated); got replication_factor = ",
                           replication_factor);
  }
  return governor.Validate(algorithm);
}

Coordinator::Coordinator(Transport* transport, const DistOptions& options)
    : transport_(transport),
      options_(options),
      reads_(std::make_unique<RemoteReads>()) {}

Coordinator::~Coordinator() = default;

Status Coordinator::Connect() {
  const size_t owners = transport_->num_owners();
  if (owners == 0) {
    return Status::Invalid("Coordinator: transport has no owners");
  }
  if (options_.replication_factor < 1) {
    return Status::Invalid(
        "Coordinator: dist replication_factor must be >= 1 (1 means "
        "unreplicated); got replication_factor = ",
        options_.replication_factor);
  }
  owner_alive_.assign(owners, 1);
  latency_ring_.assign(owners * kLatencyRing, 0.0);
  latency_count_.assign(owners, 0);
  health_.assign(owners, ReplicaHealth{});
  health_counter_ = 0;
  // Empty until the claims are grouped below, so a handshake-time owner
  // death cannot tally a group loss against a half-built catalog.
  lists_of_.assign(owners, {});
  stats_ = DistStats{};
  backoff_counter_ = 0;

  std::vector<std::vector<size_t>> claims;  // list -> claiming owners, asc
  std::vector<Score> max_score;
  std::vector<Score> min_score;
  n_ = 0;
  Request hello;
  hello.type = MessageType::kHello;
  Reply reply;
  for (size_t owner = 0; owner < owners; ++owner) {
    TOPK_RETURN_NOT_OK(OwnerRpc(owner, kNoList, hello, &reply,
                                /*allow_breaker_failover=*/false));
    if (reply.catalog.empty()) {
      return Status::Invalid("Coordinator: owner ", owner,
                             " advertises no lists");
    }
    for (const ListCatalog& entry : reply.catalog) {
      const size_t index = entry.list_index;
      if (index >= claims.size()) {
        claims.resize(index + 1);
        max_score.resize(index + 1, 0.0);
        min_score.resize(index + 1, 0.0);
      }
      std::vector<size_t>& group = claims[index];
      if (!group.empty() && group.back() == owner) {
        return Status::Invalid("Coordinator: owner ", owner, " claims list ",
                               index, " twice");
      }
      if (entry.num_items == 0) {
        return Status::Invalid("Coordinator: list ", index, " is empty");
      }
      if (n_ == 0) {
        n_ = entry.num_items;
      } else if (entry.num_items != n_) {
        return Status::Invalid("Coordinator: lists disagree on n (", n_,
                               " vs ", entry.num_items, " on list ", index,
                               ")");
      }
      if (!std::isfinite(entry.max_score) || !std::isfinite(entry.min_score) ||
          entry.min_score > entry.max_score) {
        // These values seed the core loops' cursor bounds, the score floor
        // and the summation error margin.
        return Status::Invalid(
            "Coordinator: owner ", owner, " advertises list ", index,
            " with max_score = ", entry.max_score,
            " and min_score = ", entry.min_score,
            "; both must be finite with min_score <= max_score");
      }
      if (group.empty()) {
        max_score[index] = entry.max_score;
        min_score[index] = entry.min_score;
      } else if (entry.max_score != max_score[index] ||
                 entry.min_score != min_score[index]) {
        // Failover exactness rests on replicas being mirrors of the same
        // immutable list; a catalog disagreement means they are not.
        return Status::Invalid(
            "Coordinator: replicas of list ", index,
            " advertise different catalogs (max ", max_score[index], " vs ",
            entry.max_score, ", min ", min_score[index], " vs ",
            entry.min_score, "); replicas must mirror the same list");
      }
      group.push_back(owner);
    }
  }
  for (size_t i = 0; i < claims.size(); ++i) {
    if (claims[i].size() != options_.replication_factor) {
      return Status::Invalid(
          "Coordinator: list ", i, " is claimed by ", claims[i].size(),
          " owner(s) but replication_factor = ", options_.replication_factor,
          " requires exactly that many replicas per list (lists must cover "
          "0..m-1)");
    }
  }
  replicas_of_ = std::move(claims);
  for (size_t i = 0; i < replicas_of_.size(); ++i) {
    for (size_t owner : replicas_of_[i]) {
      lists_of_[owner].push_back(i);
    }
  }
  primary_of_.resize(replicas_of_.size());
  for (size_t i = 0; i < replicas_of_.size(); ++i) {
    primary_of_[i] = replicas_of_[i][0];
  }
  group_lost_.assign(replicas_of_.size(), 0);
  max_score_ = std::move(max_score);
  min_score_ = std::move(min_score);
  // DeriveScoreFloor over the catalog: the paper's model floor (0) lowered to
  // the smallest advertised local score.
  floor_ = 0.0;
  for (Score s : min_score_) {
    floor_ = std::min(floor_, s);
  }
  // dBPA resolves each item once per query — memoized BPA's access counts.
  core_options_.memoize_seen_items = true;
  core_options_.score_floor = floor_;
  core_options_.governor = options_.governor;
  connected_ = true;
  return Status::OK();
}

void Coordinator::BeginQuery(size_t k, bool bpa) {
  const size_t m = replicas_of_.size();
  const size_t owners = transport_->num_owners();
  stats_ = DistStats{};
  backoff_counter_ = 0;
  reads_->Reset(m, n_, bpa);
  context_.Prepare(m, k);
  context_.governor().Arm(options_.governor);
  // Owners start every query alive: a query's death discoveries are its own.
  // What actually answers is the transport's FaultSchedule, which is armed
  // once per transport, not once per query as the local one is.
  owner_alive_.assign(owners, 1);
  latency_ring_.assign(owners * kLatencyRing, 0.0);
  latency_count_.assign(owners, 0);
  // Health starts every query fresh too: breakers closed, EWMA unseen,
  // every list routed to its lowest-indexed replica.
  health_.assign(owners, ReplicaHealth{});
  health_counter_ = 0;
  group_lost_.assign(m, 0);
  for (size_t i = 0; i < m; ++i) {
    primary_of_[i] = replicas_of_[i][0];
  }
}

// --- RPC machinery ---

Status Coordinator::Send(size_t owner, const Request& request, Reply* reply,
                         CallResult* outcome) {
  ++stats_.messages_sent;
  stats_.bytes_sent += request.WireBytes();
  Status status = transport_->Call(owner, request, reply, outcome);
  if (status.ok()) {
    const uint64_t copies = 1 + outcome->duplicate_replies;
    stats_.replies_received += copies;
    stats_.bytes_received += reply->WireBytes() * copies;
    stats_.duplicate_replies += outcome->duplicate_replies;
  }
  return status;
}

double Coordinator::HedgeTimeoutMs(size_t owner) const {
  const size_t count =
      std::min<size_t>(latency_count_[owner], kLatencyRing);
  if (count == 0) {
    return kHedgeFloorMs;
  }
  latency_scratch_.assign(latency_ring_.begin() + owner * kLatencyRing,
                          latency_ring_.begin() + owner * kLatencyRing + count);
  const size_t p99 = static_cast<size_t>(
      static_cast<double>(count - 1) * 0.99);
  std::nth_element(latency_scratch_.begin(), latency_scratch_.begin() + p99,
                   latency_scratch_.end());
  return std::max(kHedgeFloorMs, kHedgeMultiplier * latency_scratch_[p99]);
}

void Coordinator::RecordLatency(size_t owner, double latency_ms) {
  latency_ring_[owner * kLatencyRing + latency_count_[owner] % kLatencyRing] =
      latency_ms;
  ++latency_count_[owner];
  // The same successful samples feed the health tracker's EWMA — the
  // healthiest-replica routing signal.
  ReplicaHealth& health = health_[owner];
  health.ewma_ms = health.ewma_set ? kEwmaAlpha * latency_ms +
                                         (1.0 - kEwmaAlpha) * health.ewma_ms
                                   : latency_ms;
  health.ewma_set = true;
}

void Coordinator::KillOwner(size_t owner) {
  if (!owner_alive_[owner]) {
    return;
  }
  owner_alive_[owner] = 0;
  ++stats_.owner_deaths;
  // A list is lost when its LAST replica dies; tally each group once.
  for (size_t list : lists_of_[owner]) {
    const std::vector<size_t>& group = replicas_of_[list];
    if (!group_lost_[list] &&
        std::none_of(group.begin(), group.end(),
                     [&](size_t replica) { return owner_alive_[replica]; })) {
      group_lost_[list] = 1;
      ++stats_.groups_lost;
    }
  }
}

// --- replica health ---

double Coordinator::HealthJitter() {
  return JitterDraw(kHealthSeed, ++health_counter_);
}

void Coordinator::RecordOutcome(size_t owner, bool success) {
  ReplicaHealth& health = health_[owner];
  if (success) {
    health.consecutive_failures = 0;
    health.breaker = ReplicaHealth::kClosed;
    return;
  }
  ++health.consecutive_failures;
  const bool opens =
      health.breaker == ReplicaHealth::kHalfOpen ||
      (health.breaker == ReplicaHealth::kClosed &&
       health.consecutive_failures >= kBreakerFailures);
  if (opens) {
    health.breaker = ReplicaHealth::kOpen;
    ++stats_.breaker_opens;
    // Jittered open window, same [1, 1.5) discipline as the backoff: two
    // replicas opened together do not probe in lockstep.
    health.open_until_ms =
        stats_.virtual_ms + kBreakerOpenMs * (1.0 + 0.5 * HealthJitter());
  }
}

bool Coordinator::ProbeDue(size_t owner) const {
  return owner_alive_[owner] != 0 &&
         health_[owner].breaker == ReplicaHealth::kOpen &&
         stats_.virtual_ms >= health_[owner].open_until_ms;
}

void Coordinator::SendProbe(size_t owner) {
  // Half-open: exactly one cheap probe decides whether the replica is
  // readmitted (breaker closes) or benched for another window.
  health_[owner].breaker = ReplicaHealth::kHalfOpen;
  ++stats_.probes_sent;
  probe_request_.type = MessageType::kProbe;
  probe_request_.list_index = 0;
  probe_request_.items.clear();
  CallResult outcome;
  const Status status = Send(owner, probe_request_, &probe_reply_, &outcome);
  const double latency_ms =
      status.ok() ? outcome.latency_ms : kRpcDeadlineMs;
  stats_.virtual_ms += latency_ms;
  if (status.ok()) {
    RecordLatency(owner, latency_ms);
  } else {
    ++stats_.timeouts;
  }
  RecordOutcome(owner, status.ok());
}

bool Coordinator::HasClosedAlternative(size_t list, size_t owner) const {
  if (list == kNoList) {
    return false;
  }
  for (size_t sibling : replicas_of_[list]) {
    if (sibling != owner && owner_alive_[sibling] != 0 &&
        health_[sibling].breaker == ReplicaHealth::kClosed) {
      return true;
    }
  }
  return false;
}

size_t Coordinator::HedgeTarget(size_t owner, size_t list) const {
  // PR 8's self-hedge stays the fallback: same owner, second chance. With a
  // live non-open sibling the hedge becomes a failover probe for free — the
  // sibling serves the identical window, so whichever reply wins is correct.
  if (list == kNoList) {
    return owner;
  }
  size_t best = owner;
  double best_ewma = 0.0;
  bool found = false;
  for (size_t sibling : replicas_of_[list]) {
    if (sibling == owner || owner_alive_[sibling] == 0 ||
        health_[sibling].breaker == ReplicaHealth::kOpen) {
      continue;
    }
    const double ewma =
        health_[sibling].ewma_set ? health_[sibling].ewma_ms : 0.0;
    if (!found || ewma < best_ewma) {  // ties: lowest owner index (asc scan)
      found = true;
      best = sibling;
      best_ewma = ewma;
    }
  }
  return best;
}

size_t Coordinator::PickReplica(size_t list) {
  const std::vector<size_t>& group = replicas_of_[list];
  if (group.size() > 1) {
    // Readmission only matters when there is routing to do; at R = 1 the
    // sole replica is always "picked" and probes would just spend wire.
    for (size_t owner : group) {
      if (ProbeDue(owner)) {
        SendProbe(owner);
      }
    }
  }
  const size_t sticky = primary_of_[list];
  if (owner_alive_[sticky] != 0 &&
      health_[sticky].breaker == ReplicaHealth::kClosed) {
    return sticky;  // fault-free runs never leave replica 0 — parity holds
  }
  size_t best = sticky;
  bool best_closed = false;
  double best_ewma = 0.0;
  bool found = false;
  for (size_t owner : group) {
    if (owner_alive_[owner] == 0) {
      continue;
    }
    const bool closed = health_[owner].breaker == ReplicaHealth::kClosed;
    const double ewma = health_[owner].ewma_set ? health_[owner].ewma_ms : 0.0;
    const bool better =
        !found || (closed && !best_closed) ||
        (closed == best_closed && ewma < best_ewma);  // ties: lowest index
    if (better) {
      found = true;
      best = owner;
      best_closed = closed;
      best_ewma = ewma;
    }
  }
  if (found && best != sticky) {
    // The routing decision IS the failover — whether the old primary died,
    // tripped its breaker, or was hedged around, the moment the list's
    // traffic moves to a sibling is counted here (and a probe-driven
    // failback counts the same way).
    primary_of_[list] = best;
    ++stats_.replica_failovers;
  }
  return best;
}

Status Coordinator::Attempt(size_t owner, size_t hedge_owner,
                            const Request& request, Reply* reply,
                            double* latency_ms) {
  CallResult primary;
  Status status = Send(owner, request, reply, &primary);
  // A lost exchange costs the full per-RPC deadline: the caller only learns
  // of the loss when its timer fires.
  const double primary_ms =
      status.ok() ? primary.latency_ms : kRpcDeadlineMs;
  // The hedge timeout is never below kHedgeFloorMs, so an attempt that
  // finishes within the floor cannot hedge and the p99 is not computed for
  // it — on a healthy network that is nearly every attempt.
  const bool late = primary_ms > kHedgeFloorMs;
  const double hedge_after = late ? HedgeTimeoutMs(owner) : 0.0;
  reply_owner_ = owner;
  if (!late || primary_ms <= hedge_after) {
    RecordOutcome(owner, status.ok());
    *latency_ms = primary_ms;
    return status;
  }
  // The primary outcome outlasts the hedge timeout, so the hedge fired at
  // hedge_after and raced it; the earlier reply wins and the loser's copy is
  // deduped (its bytes were already counted by Send). With replicas the
  // hedge goes to the healthiest live sibling — owners are stateless mirrors
  // of the same immutable list, so either reply is equally correct.
  ++stats_.hedges;
  CallResult hedge;
  Status hedge_status = Send(hedge_owner, request, &hedge_reply_, &hedge);
  if (hedge_owner != owner) {
    RecordOutcome(hedge_owner, hedge_status.ok());
  }
  RecordOutcome(owner, status.ok());
  if (hedge_status.ok()) {
    const double hedge_ms = hedge_after + hedge.latency_ms;
    if (!status.ok() || hedge_ms < primary_ms) {
      ++stats_.hedge_wins;
      if (status.ok()) {
        ++stats_.duplicate_replies;  // the slower primary reply still lands
      }
      if (hedge_owner != owner) {
        RecordLatency(hedge_owner, hedge.latency_ms);
      }
      std::swap(*reply, hedge_reply_);
      reply_owner_ = hedge_owner;
      *latency_ms = hedge_ms;
      return Status::OK();
    }
    ++stats_.duplicate_replies;  // the slower hedge reply still lands
  }
  *latency_ms = primary_ms;
  return status;
}

Status Coordinator::OwnerRpc(size_t owner, size_t list, const Request& request,
                             Reply* reply, bool allow_breaker_failover) {
  if (!owner_alive_[owner]) {
    return Status::Unavailable("Coordinator: owner ", owner,
                               " was already declared dead");
  }
  const size_t hedge_owner = HedgeTarget(owner, list);
  Status last;
  for (int attempt = 0; attempt < kRpcMaxAttempts; ++attempt) {
    if (attempt > 0) {
      // Jittered exponential backoff before each retry, charged as virtual
      // wait against the query deadline.
      ++stats_.retries;
      const double jitter = JitterDraw(kBackoffSeed, ++backoff_counter_);
      stats_.virtual_ms += kBackoffBaseMs *
                           static_cast<double>(uint64_t{1} << (attempt - 1)) *
                           (1.0 + 0.5 * jitter);
    }
    double latency_ms = 0.0;
    last = Attempt(owner, hedge_owner, request, reply, &latency_ms);
    stats_.virtual_ms += latency_ms;
    if (last.ok()) {
      RecordLatency(owner, latency_ms);
      return last;
    }
    ++stats_.timeouts;
    if (allow_breaker_failover &&
        health_[owner].breaker == ReplicaHealth::kOpen &&
        HasClosedAlternative(list, owner)) {
      // The breaker opened mid-RPC and a healthy sibling can take over:
      // abandon the replica WITHOUT declaring it dead, so a half-open probe
      // can readmit it later. Death is reserved for owners that exhaust the
      // retry budget with nowhere else to go.
      return Status::Unavailable("Coordinator: breaker open on owner ", owner,
                                 " after ", attempt + 1,
                                 " attempts; failing over to a sibling "
                                 "replica of list ",
                                 list);
    }
  }
  KillOwner(owner);
  return Status::Unavailable("Coordinator: owner ", owner,
                             " declared permanently dead after ",
                             kRpcMaxAttempts,
                             " attempts; last error: ", last.message());
}

Status Coordinator::ListRpc(size_t list, const Request& request, Reply* reply) {
  // The failover ladder. Each rung: route to the healthiest replica
  // (PickReplica) and run the robust per-owner RPC there. A rung that fails
  // either opened a breaker (recoverable — the replica survives for a later
  // probe) or killed the owner; both re-route to the next survivor, whose
  // identical sorted cursor resumes at the exact window position. The
  // breaker budget (one recoverable failover per replica) bounds the walk:
  // past it every further failure is terminal, so the ladder ends in an
  // answer or a fully dead group (Unavailable -> the degrade path).
  int breaker_budget = static_cast<int>(replicas_of_[list].size());
  Status last;
  while (ListAlive(list)) {
    const size_t owner = PickReplica(list);
    last = OwnerRpc(owner, list, request, reply,
                    /*allow_breaker_failover=*/breaker_budget > 0);
    if (last.ok()) {
      return CheckReply(list, request, *reply);
    }
    if (!last.IsUnavailable()) {
      return last;
    }
    if (owner_alive_[owner]) {
      --breaker_budget;
    }
    // The re-route itself (to a survivor, or out of the dead group) is
    // what the next PickReplica / the caller's degrade path does; the
    // failover counter ticks where the routing actually changes.
  }
  if (last.ok()) {
    // The list was already dead on entry (every replica declared dead by an
    // earlier RPC) — no rung ever ran.
    return Status::Unavailable("Coordinator: list ", list,
                               " lost its whole replica group");
  }
  return last;
}

Status Coordinator::CheckReply(size_t list, const Request& request,
                               const Reply& reply) const {
  const auto malformed = [&](const auto&... detail) {
    return Status::Invalid("Coordinator: owner ", reply_owner_,
                           " sent a malformed ", MessageName(request.type),
                           " reply for list ", list, ": ", detail...);
  };
  switch (request.type) {
    case MessageType::kSortedWindow: {
      const uint64_t want = std::min<uint64_t>(request.max_entries,
                                               n_ - (request.start - 1));
      if (reply.entries.size() != want) {
        return malformed("entries holds ", reply.entries.size(),
                         " rows, expected ", want);
      }
      break;
    }
    case MessageType::kDrain:
      if (reply.entries.empty() ||
          reply.entries.size() > request.max_entries) {
        return malformed("entries holds ", reply.entries.size(),
                         " rows, expected 1..", request.max_entries);
      }
      break;
    case MessageType::kRandomLookup:
      if (reply.lookups.size() != request.items.size()) {
        return malformed("lookups holds ", reply.lookups.size(),
                         " answers for ", request.items.size(), " items");
      }
      for (size_t idx = 0; idx < reply.lookups.size(); ++idx) {
        const ItemLookup& lookup = reply.lookups[idx];
        if (lookup.position < 1 || lookup.position > n_) {
          return malformed("lookups[", idx, "].position = ", lookup.position,
                           " outside [1, ", n_, "]");
        }
        if (!std::isfinite(lookup.score)) {
          return malformed("lookups[", idx, "].score = ", lookup.score,
                           " is not finite");
        }
      }
      return Status::OK();
    case MessageType::kHello:
    case MessageType::kProbe:
      return Status::OK();
  }
  for (size_t off = 0; off < reply.entries.size(); ++off) {
    const ListEntry& entry = reply.entries[off];
    if (entry.item >= n_) {
      return malformed("entries[", off, "].item = ", entry.item,
                       " is not below n = ", n_);
    }
    if (!std::isfinite(entry.score)) {
      return malformed("entries[", off, "].score = ", entry.score,
                       " is not finite");
    }
  }
  return Status::OK();
}

// --- query execution ---

Result<TopKResult> Coordinator::ExecuteBpa(const TopKQuery& query) {
  return Execute("DistBPA", query, /*tput=*/false);
}

Result<TopKResult> Coordinator::ExecuteTput(const TopKQuery& query) {
  return Execute("DistTPUT", query, /*tput=*/true);
}

Result<TopKResult> Coordinator::Execute(const char* algorithm,
                                        const TopKQuery& query, bool tput) {
  TOPK_RETURN_NOT_OK(options_.Validate(algorithm, transport_->num_owners()));
  if (!connected_) {
    return Status::Invalid(algorithm,
                           ": Coordinator::Connect() must succeed before "
                           "queries execute");
  }
  TOPK_RETURN_NOT_OK(ValidateQuery(algorithm, query, n_));
  RemoteIo io(this, reads_.get());
  if (tput) {
    TOPK_RETURN_NOT_OK(ValidateTputQuery(algorithm, query, io, floor_));
  }
  Timer timer;
  BeginQuery(query.k, /*bpa=*/!tput);
  TopKResult result;
  Status status =
      tput ? RunDistTput(core_options_, query, &context_, io, &result)
           : RunDistBpa(core_options_, query, &context_, io, &result);
  if (status.IsUnavailable() && reads_->error.ok()) {
    // A replica group died and random access to its list is gone
    // (ExecutionContext::LoseList). Fail over to NRA over the survivors, as
    // ExecuteInto does: logical accesses stay counted, dead groups stay
    // dead, buffered windows stay valid (owners serve immutable lists) and
    // the governor keeps its deadline and budgets. Past the pool's mask
    // word NRA cannot serve, and the named loss is the answer.
    if (num_lists() > CandidatePool::kMaxLists) {
      return context_.LostListStatus(algorithm);
    }
    context_.Prepare(num_lists(), query.k);
    result.Clear();
    status = RunDistNra(core_options_, query, &context_, io, &result);
    result.failed_over = true;
  }
  // A malformed reply or a misread lookup: surface, never degrade.
  TOPK_RETURN_NOT_OK(reads_->error);
  TOPK_RETURN_NOT_OK(status);
  result.elapsed_ms = timer.ElapsedMillis();
  result.stats = reads_->access;
  result.fault_retries = stats_.retries;
  result.dead_lists = io.DeadLists();
  TOPK_RETURN_NOT_OK(
      FinishResult(algorithm, query.k, options_.governor.strict, &result));
  return result;
}

}  // namespace topk
