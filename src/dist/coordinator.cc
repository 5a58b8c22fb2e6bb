// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "common/macros.h"
#include "core/candidate_bounds.h"

namespace topk {
namespace {

// splitmix64 finalizer (same discipline as the fault schedules): the backoff
// jitter is a pure hash of (backoff_seed, retry counter), so a faulted run's
// virtual timeline replays exactly from its seeds.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr uint64_t kBackoffSalt = 0xc6a4a7935bd1e995ull;

double JitterDraw(uint64_t seed, uint64_t counter) {
  const uint64_t h = Mix(seed ^ Mix(counter + kBackoffSalt));
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

double NowMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
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
  if (!std::isfinite(rpc_deadline_ms) || rpc_deadline_ms <= 0.0) {
    return Status::Invalid(algorithm,
                           ": dist rpc_deadline_ms must be finite and > 0; "
                           "got rpc_deadline_ms = ",
                           rpc_deadline_ms);
  }
  if (rpc_max_attempts < 1) {
    return Status::Invalid(algorithm,
                           ": dist retry budget rpc_max_attempts must be >= 1 "
                           "(the first try is an attempt); got "
                           "rpc_max_attempts = ",
                           rpc_max_attempts);
  }
  if (!std::isfinite(backoff_base_ms) || backoff_base_ms < 0.0) {
    return Status::Invalid(algorithm,
                           ": dist backoff_base_ms must be finite and >= 0; "
                           "got backoff_base_ms = ",
                           backoff_base_ms);
  }
  if (!std::isfinite(hedge_floor_ms) || hedge_floor_ms <= 0.0) {
    return Status::Invalid(algorithm,
                           ": dist hedge timeout floor hedge_floor_ms must be "
                           "> 0 (a zero floor hedges every exchange); got "
                           "hedge_floor_ms = ",
                           hedge_floor_ms);
  }
  if (!std::isfinite(hedge_multiplier) || hedge_multiplier < 1.0) {
    return Status::Invalid(algorithm,
                           ": dist hedge_multiplier must be >= 1 (a hedge "
                           "below the observed p99 races every exchange); got "
                           "hedge_multiplier = ",
                           hedge_multiplier);
  }
  if (replication_factor < 1) {
    return Status::Invalid(algorithm,
                           ": dist replication_factor must be >= 1 (1 means "
                           "unreplicated); got replication_factor = ",
                           replication_factor);
  }
  if (breaker_failures < 1) {
    return Status::Invalid(algorithm,
                           ": dist breaker_failures must be >= 1 (a breaker "
                           "that opens after zero failures never routes "
                           "anywhere); got breaker_failures = ",
                           breaker_failures);
  }
  if (!std::isfinite(breaker_open_ms) || breaker_open_ms < 0.0) {
    return Status::Invalid(algorithm,
                           ": dist breaker_open_ms must be finite and >= 0; "
                           "got breaker_open_ms = ",
                           breaker_open_ms);
  }
  if (!(ewma_alpha > 0.0) || ewma_alpha > 1.0) {
    return Status::Invalid(algorithm,
                           ": dist ewma_alpha must be in (0, 1]; got "
                           "ewma_alpha = ",
                           ewma_alpha);
  }
  return governor.Validate(algorithm);
}

Coordinator::Coordinator(Transport* transport, const DistOptions& options)
    : transport_(transport), options_(options) {}

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
  for (size_t owner = 0; owner < owners; ++owner) {
    request_.type = MessageType::kHello;
    request_.list_index = 0;
    request_.items.clear();
    TOPK_RETURN_NOT_OK(OwnerRpc(owner, kNoList, request_, &reply_,
                                /*allow_breaker_failover=*/false));
    if (reply_.catalog.empty()) {
      return Status::Invalid("Coordinator: owner ", owner,
                             " advertises no lists");
    }
    for (const ListCatalog& entry : reply_.catalog) {
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
  group_lost_counted_.assign(replicas_of_.size(), 0);
  max_score_ = std::move(max_score);
  min_score_ = std::move(min_score);
  // DeriveScoreFloor over the catalog: the paper's model floor (0) lowered to
  // the smallest advertised local score.
  floor_ = 0.0;
  for (Score s : min_score_) {
    floor_ = std::min(floor_, s);
  }
  connected_ = true;
  return Status::OK();
}

Status Coordinator::ValidateQuery(const char* algorithm,
                                  const TopKQuery& query) const {
  if (!connected_) {
    return Status::Invalid(algorithm,
                           ": Coordinator::Connect() must succeed before "
                           "queries execute");
  }
  if (query.scorer == nullptr) {
    return Status::Invalid(algorithm, ": query has no scorer");
  }
  if (query.k < 1 || query.k > n_) {
    return Status::Invalid(algorithm, ": k must be in [1, ", n_, "]; got k = ",
                           query.k);
  }
  return Status::OK();
}

void Coordinator::BeginQuery() {
  const size_t m = replicas_of_.size();
  const size_t owners = transport_->num_owners();
  stats_ = DistStats{};
  access_ = AccessStats{};
  backoff_counter_ = 0;
  governor_.Arm(options_.governor);
  // Owners start every query alive: a query's death discoveries are its own
  // (the transport's schedule decides what actually answers), mirroring the
  // per-query Arm() of the access-level fault decorator.
  owner_alive_.assign(owners, 1);
  latency_ring_.assign(owners * kLatencyRing, 0.0);
  latency_count_.assign(owners, 0);
  // Health starts every query fresh too: breakers closed, EWMA unseen,
  // every list routed to its lowest-indexed replica.
  health_.assign(owners, ReplicaHealth{});
  health_counter_ = 0;
  group_lost_counted_.assign(m, 0);
  for (size_t i = 0; i < m; ++i) {
    primary_of_[i] = replicas_of_[i][0];
  }
  window_base_.assign(m, 0);
  window_.resize(m);
  last_scores_.assign(m, 0.0);
  local_.assign(m, 0.0);
  capped_.assign(m, 0.0);
  tmp_.assign(m, 0.0);
}

void Coordinator::FinishQuery(TopKResult* result) const {
  result->stats = access_;
  result->fault_retries = stats_.retries;
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
    return options_.hedge_floor_ms;
  }
  latency_scratch_.assign(latency_ring_.begin() + owner * kLatencyRing,
                          latency_ring_.begin() + owner * kLatencyRing + count);
  const size_t p99 = static_cast<size_t>(
      static_cast<double>(count - 1) * 0.99);
  std::nth_element(latency_scratch_.begin(), latency_scratch_.begin() + p99,
                   latency_scratch_.end());
  return std::max(options_.hedge_floor_ms,
                  options_.hedge_multiplier * latency_scratch_[p99]);
}

void Coordinator::RecordLatency(size_t owner, double latency_ms) {
  latency_ring_[owner * kLatencyRing + latency_count_[owner] % kLatencyRing] =
      latency_ms;
  ++latency_count_[owner];
  // The same successful samples feed the health tracker's EWMA — the
  // healthiest-replica routing signal.
  ReplicaHealth& health = health_[owner];
  health.ewma_ms = health.ewma_set
                       ? options_.ewma_alpha * latency_ms +
                             (1.0 - options_.ewma_alpha) * health.ewma_ms
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
    if (list < group_lost_counted_.size() && !group_lost_counted_[list] &&
        !ListAlive(list)) {
      group_lost_counted_[list] = 1;
      ++stats_.groups_lost;
    }
  }
}

// --- replica health ---

double Coordinator::HealthJitter() {
  return JitterDraw(options_.health_seed, ++health_counter_);
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
       health.consecutive_failures >= options_.breaker_failures);
  if (opens) {
    health.breaker = ReplicaHealth::kOpen;
    ++stats_.breaker_opens;
    // Jittered open window, same [1, 1.5) discipline as the backoff: two
    // replicas opened together do not probe in lockstep.
    health.open_until_ms =
        stats_.virtual_ms +
        options_.breaker_open_ms * (1.0 + 0.5 * HealthJitter());
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
      status.ok() ? outcome.latency_ms : options_.rpc_deadline_ms;
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
      status.ok() ? primary.latency_ms : options_.rpc_deadline_ms;
  // The hedge timeout is never below hedge_floor_ms, so an attempt that
  // finishes within the floor cannot hedge and the p99 is not computed for
  // it — on a healthy network that is nearly every attempt.
  const bool late = options_.hedging && primary_ms > options_.hedge_floor_ms;
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
  for (int attempt = 0; attempt < options_.rpc_max_attempts; ++attempt) {
    if (attempt > 0) {
      // Jittered exponential backoff before each retry, charged as virtual
      // wait against the query deadline.
      ++stats_.retries;
      const double jitter =
          JitterDraw(options_.backoff_seed, ++backoff_counter_);
      stats_.virtual_ms += options_.backoff_base_ms *
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
                             options_.rpc_max_attempts,
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

// --- sorted-access windows ---

Status Coordinator::WindowEntry(size_t list_index, Position position,
                                ListEntry* entry) {
  std::vector<ListEntry>& window = window_[list_index];
  const Position base = window_base_[list_index];
  if (base == 0 || position < base || position >= base + window.size()) {
    request_.type = MessageType::kSortedWindow;
    request_.list_index = static_cast<uint32_t>(list_index);
    request_.start = position;
    request_.max_entries = static_cast<uint32_t>(std::min<uint64_t>(
        options_.window_rows, n_ - (position - 1)));
    request_.items.clear();
    TOPK_RETURN_NOT_OK(ListRpc(list_index, request_, &reply_));
    window.assign(reply_.entries.begin(), reply_.entries.end());
    window_base_[list_index] = position;
  }
  *entry = window[position - window_base_[list_index]];
  return Status::OK();
}

// --- distributed BPA ---

Result<TopKResult> Coordinator::ExecuteBpa(const TopKQuery& query) {
  TOPK_RETURN_NOT_OK(
      options_.Validate("DistBPA", transport_->num_owners()));
  TOPK_RETURN_NOT_OK(ValidateQuery("DistBPA", query));
  const auto start = std::chrono::steady_clock::now();
  BeginQuery();

  TopKResult result;
  const size_t m = num_lists();
  const size_t n = n_;
  const Scorer& scorer = *query.scorer;

  buffer_.Reset(query.k);
  pos_seen_.resize(m);
  pos_score_.resize(m);
  for (size_t i = 0; i < m; ++i) {
    pos_seen_[i].assign(n + 1, 0);
    pos_score_[i].assign(n + 1, 0.0);
  }
  best_pos_.assign(m, 0);
  memo_state_.assign(n, 0);
  memo_score_.assign(n, 0.0);
  batch_items_.resize(m);
  batch_pending_.resize(m);

  // λ cache, as in the single-node loop: best positions only grow, so their
  // sum is an exact change signature.
  uint64_t bp_signature = ~uint64_t{0};
  Score lambda = std::numeric_limits<Score>::infinity();
  Completion reason = Completion::kExact;
  Position depth = 0;
  bool stopped = false;
  Status io_status;  // first owner-death error; triggers the degraded path

  while (!stopped && depth < n) {
    ++depth;
    ++stats_.rounds;
    pending_.clear();
    for (size_t j = 0; j < m; ++j) {
      batch_items_[j].clear();
      batch_pending_[j].clear();
    }
    // The row's m sorted accesses, each served from its list's window buffer
    // (one kSortedWindow message per window_rows rows per list).
    for (size_t i = 0; i < m && io_status.ok(); ++i) {
      ListEntry entry;
      io_status = WindowEntry(i, depth, &entry);
      if (!io_status.ok()) {
        break;
      }
      ++access_.sorted_accesses;
      pos_seen_[i][depth] = 1;
      pos_score_[i][depth] = entry.score;
      if (memo_state_[entry.item] == 2) {
        // Already resolved in an earlier row: only the buffer offer remains
        // (its positions were marked when it was resolved).
        buffer_.Offer(entry.item, memo_score_[entry.item]);
        continue;
      }
      if (memo_state_[entry.item] == 1) {
        continue;  // first seen earlier in this same row; resolution pending
      }
      memo_state_[entry.item] = 1;
      const uint32_t p = static_cast<uint32_t>(pending_.size());
      pending_.push_back(
          PendingItem{entry.item, static_cast<uint32_t>(i), entry.score});
      for (size_t j = 0; j < m; ++j) {
        if (j != i) {
          batch_items_[j].push_back(entry.item);
          batch_pending_[j].push_back(p);
        }
      }
    }
    if (!io_status.ok()) {
      break;
    }
    // Row-end batched resolution: one kRandomLookup message per list covers
    // every item first seen this row. Deferring the lookups from first-sight
    // to row end is invisible to the algorithm — λ and the best positions
    // are only read at the row boundary, and the buffer's content is a
    // function of the offered (item, score) set, not of offer order — so
    // the batched run's stop depth and answers are byte-identical to the
    // single-node per-item resolution.
    pending_rows_.assign(pending_.size() * m, 0.0);
    for (size_t j = 0; j < m && io_status.ok(); ++j) {
      if (batch_items_[j].empty()) {
        continue;
      }
      request_.type = MessageType::kRandomLookup;
      request_.list_index = static_cast<uint32_t>(j);
      request_.items = batch_items_[j];
      io_status = ListRpc(j, request_, &reply_);
      if (!io_status.ok()) {
        break;
      }
      access_.random_accesses += reply_.lookups.size();
      for (size_t idx = 0; idx < reply_.lookups.size(); ++idx) {
        const ItemLookup lookup = reply_.lookups[idx];
        pos_seen_[j][lookup.position] = 1;
        pos_score_[j][lookup.position] = lookup.score;
        pending_rows_[static_cast<size_t>(batch_pending_[j][idx]) * m + j] =
            lookup.score;
      }
    }
    if (!io_status.ok()) {
      break;
    }
    for (size_t p = 0; p < pending_.size(); ++p) {
      const PendingItem& pending = pending_[p];
      // Accumulation order j = 0..m-1 with the sorted entry's score at its
      // first-seen list — the exact arithmetic of the single-node loop.
      for (size_t j = 0; j < m; ++j) {
        local_[j] = j == pending.first_list ? pending.first_score
                                            : pending_rows_[p * m + j];
      }
      const Score overall = scorer.Combine(local_.data(), m);
      memo_state_[pending.item] = 2;
      memo_score_[pending.item] = overall;
      buffer_.Offer(pending.item, overall);
    }
    // Row end: advance best positions (largest prefix of seen positions) and
    // recompute λ only when some best position moved.
    uint64_t signature = 0;
    for (size_t i = 0; i < m; ++i) {
      Position bp = best_pos_[i];
      while (bp + 1 <= n && pos_seen_[i][bp + 1]) {
        ++bp;
      }
      best_pos_[i] = bp;
      signature += bp;
    }
    if (signature != bp_signature) {
      bp_signature = signature;
      for (size_t i = 0; i < m; ++i) {
        local_[i] = pos_score_[i][best_pos_[i]];
      }
      lambda = scorer.Combine(local_.data(), m);
    }
    if (buffer_.HasKAbove(lambda)) {
      stopped = true;
    }
    if (!stopped &&
        (reason = governor_.Charge(access_, 0, stats_.virtual_ms)) !=
            Completion::kExact) {
      break;
    }
  }

  if (!io_status.ok()) {
    if (!io_status.IsUnavailable()) {
      return io_status;  // a protocol bug, not a fault — surface it
    }
    TOPK_RETURN_NOT_OK(DegradeToNra(query, &result));
    FinishQuery(&result);
    result.elapsed_ms = NowMs(start);
    return result;
  }

  buffer_.AppendSortedItems(&result.items);
  result.stop_position = depth;
  Position min_bp = static_cast<Position>(n);
  for (size_t i = 0; i < m; ++i) {
    min_bp = std::min(min_bp, best_pos_[i]);
  }
  result.min_best_position = min_bp;
  if (reason != Completion::kExact) {
    const Score kth = result.items.empty()
                          ? -std::numeric_limits<Score>::infinity()
                          : result.items.back().score;
    CertifyAnytime(reason, kth, lambda, &result);
  }
  FinishQuery(&result);
  result.elapsed_ms = NowMs(start);
  return result;
}

// --- distributed TPUT ---

Result<TopKResult> Coordinator::ExecuteTput(const TopKQuery& query) {
  TOPK_RETURN_NOT_OK(
      options_.Validate("DistTPUT", transport_->num_owners()));
  TOPK_RETURN_NOT_OK(ValidateQuery("DistTPUT", query));
  if (query.scorer->name() != "sum") {
    return Status::NotImplemented(
        "DistTPUT thresholding (τ1/m) is defined for summation scoring; got "
        "'",
        query.scorer->name(), "'");
  }
  if (num_lists() > CandidatePool::kMaxLists) {
    return Status::NotImplemented(
        "DistTPUT candidate bookkeeping keeps per-candidate seen masks in a "
        "single 64-bit word, capping queries at ",
        CandidatePool::kMaxLists, " lists; got ", num_lists());
  }
  const auto start = std::chrono::steady_clock::now();
  BeginQuery();

  TopKResult result;
  const size_t m = num_lists();
  const size_t n = n_;
  pool_.Reset(m, query.k, floor_, /*eager_groups=*/false);
  buffer_.Reset(query.k);
  for (size_t i = 0; i < m; ++i) {
    last_scores_[i] = max_score_[i];
  }
  Position depth = std::min<Position>(static_cast<Position>(query.k),
                                      static_cast<Position>(n));

  // Identical to the single-node record(): the first sighting publishes the
  // full-row sum (floor cells included, index order) as the lower bound.
  const auto record = [&](size_t list_index, ItemId item, Score score) {
    const uint32_t slot = pool_.FindOrInsert(item);
    if (pool_.SetSeen(slot, list_index, score)) {
      Score sum = 0.0;
      const Score* row = pool_.row(slot);
      for (size_t j = 0; j < m; ++j) {
        sum += row[j];
      }
      pool_.OfferLower(slot, sum);
    }
  };
  const auto anytime = [&](Completion why) {
    winners_.clear();
    pool_.AppendHeapItems(&winners_);
    Score kth = std::numeric_limits<Score>::infinity();
    result.items.reserve(winners_.size());
    for (ItemId item : winners_) {
      const Score lower = pool_.lower(pool_.FindSlot(item));
      kth = std::min(kth, lower);
      result.items.push_back(ResultItem{item, lower});
    }
    if (result.items.empty()) {
      kth = -std::numeric_limits<Score>::infinity();
    }
    Score upper = 0.0;
    for (size_t i = 0; i < m; ++i) {
      upper += last_scores_[i];
    }
    for (uint32_t slot = 0; slot < pool_.size(); ++slot) {
      if (!pool_.InHeap(slot)) {
        upper = std::max(upper, SumUpperBound(pool_, slot, last_scores_));
      }
    }
    CertifyAnytime(why, kth, upper, &result);
    result.stop_position = depth;
  };

  Completion reason = Completion::kExact;
  Status io_status;

  // ---- Phase 1: top-k prefix of every list, window-batched. ----
  ++stats_.rounds;
  for (size_t i = 0; i < m && io_status.ok(); ++i) {
    Position p = 1;
    while (p <= depth) {
      request_.type = MessageType::kSortedWindow;
      request_.list_index = static_cast<uint32_t>(i);
      request_.start = p;
      request_.max_entries = static_cast<uint32_t>(std::min<uint64_t>(
          options_.window_rows, depth - p + 1));
      request_.items.clear();
      io_status = ListRpc(i, request_, &reply_);
      if (!io_status.ok()) {
        break;
      }
      for (const ListEntry& entry : reply_.entries) {
        ++access_.sorted_accesses;
        last_scores_[i] = entry.score;
        record(i, entry.item, entry.score);
      }
      p += static_cast<Position>(reply_.entries.size());
      if ((reason = governor_.Charge(access_, pool_.LiveCandidateBytes(),
                                     stats_.virtual_ms)) !=
          Completion::kExact) {
        anytime(reason);
        FinishQuery(&result);
        result.elapsed_ms = NowMs(start);
        return result;
      }
    }
  }
  Score threshold = 0.0;
  if (io_status.ok()) {
    // Phase 1 saw >= k distinct items (k rows of one list are distinct), so
    // the heap is full and its weakest entry is τ1.
    const Score tau1 = pool_.KthLower();

    // ---- Phase 2: drain every list down to local score >= τ1/m. The
    // threshold stop runs owner-side (kDrain), so a drain costs one message
    // per window_rows rows instead of one per row. ----
    ++stats_.rounds;
    threshold = tau1 / static_cast<Score>(m);
    list_depths_.assign(m, depth);
    // last_scores_[i] already holds the phase-1 cursor score (the entry at
    // the shared phase-1 depth), exactly the single-node re-seed.
    for (size_t i = 0; i < m && io_status.ok(); ++i) {
      while (list_depths_[i] < n && last_scores_[i] >= threshold) {
        const Position drain_start = list_depths_[i] + 1;
        request_.type = MessageType::kDrain;
        request_.list_index = static_cast<uint32_t>(i);
        request_.start = drain_start;
        request_.max_entries = static_cast<uint32_t>(std::min<uint64_t>(
            options_.window_rows, n - list_depths_[i]));
        request_.threshold = threshold;
        request_.items.clear();
        io_status = ListRpc(i, request_, &reply_);
        if (!io_status.ok()) {
          break;
        }
        for (size_t off = 0; off < reply_.entries.size(); ++off) {
          const ListEntry& entry = reply_.entries[off];
          ++list_depths_[i];
          ++access_.sorted_accesses;
          record(i, entry.item, entry.score);
          last_scores_[i] = entry.score;
          depth = std::max(depth,
                           static_cast<Position>(drain_start + off));
        }
        if ((reason = governor_.Charge(access_, pool_.LiveCandidateBytes(),
                                       stats_.virtual_ms)) !=
            Completion::kExact) {
          anytime(reason);
          FinishQuery(&result);
          result.elapsed_ms = NowMs(start);
          return result;
        }
      }
    }
  }
  if (io_status.ok()) {
    const Score tau2 = pool_.KthLower();

    // ---- Phase 3: resolve the τ2 survivors exactly, lookups batched per
    // list. Upper bound: unknown lists contribute min(last seen score,
    // threshold ceiling) — after phase 2 any unseen score in list i is
    // < max(last_scores[i], threshold). The survivor set comes from the
    // plain exact sweep over every slot: identical to the single-node
    // heap-scan plus margined group walk, whose margin only skips members
    // that provably fail the same exact SumUpperBound test. ----
    ++stats_.rounds;
    for (size_t i = 0; i < m; ++i) {
      capped_[i] = std::min(last_scores_[i], threshold);
    }
    survivors_.clear();
    for (uint32_t slot = 0; slot < pool_.size(); ++slot) {
      if (SumUpperBound(pool_, slot, capped_) >= tau2) {
        survivors_.push_back(slot);
      }
    }
    batch_items_.resize(m);
    batch_pending_.resize(m);
    for (size_t j = 0; j < m; ++j) {
      batch_items_[j].clear();
      batch_pending_[j].clear();
    }
    for (uint32_t s = 0; s < survivors_.size(); ++s) {
      const uint32_t slot = survivors_[s];
      const uint64_t mask = pool_.mask(slot);
      for (size_t j = 0; j < m; ++j) {
        if (!(mask >> j & 1)) {
          batch_items_[j].push_back(pool_.item_at(slot));
          batch_pending_[j].push_back(s);
        }
      }
    }
    pending_rows_.assign(survivors_.size() * m, 0.0);
    for (size_t j = 0; j < m && io_status.ok(); ++j) {
      if (batch_items_[j].empty()) {
        continue;
      }
      request_.type = MessageType::kRandomLookup;
      request_.list_index = static_cast<uint32_t>(j);
      request_.items = batch_items_[j];
      io_status = ListRpc(j, request_, &reply_);
      if (!io_status.ok()) {
        break;
      }
      access_.random_accesses += reply_.lookups.size();
      for (size_t idx = 0; idx < reply_.lookups.size(); ++idx) {
        pending_rows_[static_cast<size_t>(batch_pending_[j][idx]) * m + j] =
            reply_.lookups[idx].score;
      }
      if ((reason = governor_.Charge(access_, pool_.LiveCandidateBytes(),
                                     stats_.virtual_ms)) !=
          Completion::kExact) {
        anytime(reason);
        FinishQuery(&result);
        result.elapsed_ms = NowMs(start);
        return result;
      }
    }
    if (io_status.ok()) {
      for (uint32_t s = 0; s < survivors_.size(); ++s) {
        const uint32_t slot = survivors_[s];
        const Score* row = pool_.row(slot);
        const uint64_t mask = pool_.mask(slot);
        // Index-order interleaved sum, exactly the single-node resolution
        // arithmetic (known cells from the row, the rest from lookups).
        Score sum = 0.0;
        for (size_t j = 0; j < m; ++j) {
          sum += (mask >> j & 1) ? row[j] : pending_rows_[s * m + j];
        }
        buffer_.Offer(pool_.item_at(slot), sum);
      }
    }
  }

  if (!io_status.ok()) {
    if (!io_status.IsUnavailable()) {
      return io_status;  // a protocol bug, not a fault — surface it
    }
    TOPK_RETURN_NOT_OK(DegradeToNra(query, &result));
    FinishQuery(&result);
    result.elapsed_ms = NowMs(start);
    return result;
  }

  buffer_.AppendSortedItems(&result.items);
  result.stop_position = depth;
  FinishQuery(&result);
  result.elapsed_ms = NowMs(start);
  return result;
}

// --- shared degraded path ---

Status Coordinator::DegradeToNra(const TopKQuery& query, TopKResult* result) {
  const size_t m = num_lists();
  const size_t n = n_;
  const Scorer& scorer = *query.scorer;
  result->items.clear();

  if (m > CandidatePool::kMaxLists) {
    // No pool-based fallback exists beyond the mask width; surface the
    // original failure semantics instead.
    return Status::Unavailable(
        "Coordinator: degraded NRA needs candidate-pool bookkeeping, which "
        "caps queries at ",
        CandidatePool::kMaxLists, " lists; got ", m);
  }

  // Restart from scratch over the survivors (the same re-run discipline as
  // the single-node engine's failover). Dead lists are bounded at their
  // *advertised maximum*: the fresh pool has forgotten everything the failed
  // run learned, so a tighter (cursor-score) bound would be unsound — any
  // unseen item could hide anywhere in a dead list. A list that dies during
  // this loop freezes at its current cursor score instead, which is sound
  // in place: this pool has consumed that prefix, so unseen items of that
  // list really are bounded by the cursor.
  pool_.Reset(m, query.k, floor_, /*eager_groups=*/false);
  list_depths_.assign(m, 0);
  for (size_t i = 0; i < m; ++i) {
    last_scores_[i] = max_score_[i];
  }
  tmp_.assign(m, 0.0);
  Completion reason = Completion::kListFailure;

  bool done = false;
  while (!done) {
    ++stats_.rounds;
    for (size_t i = 0; i < m && !done; ++i) {
      if (!ListAlive(i) || list_depths_[i] >= n) {
        continue;
      }
      request_.type = MessageType::kSortedWindow;
      request_.list_index = static_cast<uint32_t>(i);
      request_.start = list_depths_[i] + 1;
      request_.max_entries = static_cast<uint32_t>(
          std::min<uint64_t>(options_.window_rows, n - list_depths_[i]));
      request_.items.clear();
      Status status = ListRpc(i, request_, &reply_);
      if (!status.ok()) {
        if (!status.IsUnavailable()) {
          return status;
        }
        // The whole replica group died; the list freezes at its cursor and
        // the scan continues over the survivors.
        continue;
      }
      for (const ListEntry& entry : reply_.entries) {
        ++list_depths_[i];
        ++access_.sorted_accesses;
        const uint32_t slot = pool_.FindOrInsert(entry.item);
        if (pool_.SetSeen(slot, i, entry.score)) {
          pool_.OfferLower(slot, scorer.Combine(pool_.row(slot), m));
        }
        last_scores_[i] = entry.score;
      }
      const Completion tripped =
          governor_.Charge(access_, pool_.LiveCandidateBytes(),
                           stats_.virtual_ms);
      if (tripped != Completion::kExact) {
        reason = tripped;  // the governor's trip outranks the failure tag
        done = true;
      }
    }
    if (done) {
      break;
    }
    bool exhausted = true;
    for (size_t i = 0; i < m; ++i) {
      if (ListAlive(i) && list_depths_[i] < n) {
        exhausted = false;
        break;
      }
    }
    if (exhausted) {
      break;
    }
    // NRA stop rule over what is still scannable: heap full, no pool
    // candidate blocks, and no never-seen item can beat the k-th lower
    // bound. With a dead list pinned at its advertised max this rarely
    // fires — the loop then drains the survivors and exits exhausted, and
    // the certification below reports exactly how tight the answer is.
    if (pool_.HeapFull() &&
        !PruneAndFindBlocker(pool_, scorer, last_scores_, tmp_) &&
        pool_.KthLower() >= scorer.Combine(last_scores_.data(), m)) {
      break;
    }
  }

  winners_.clear();
  pool_.AppendHeapItems(&winners_);
  Score kth = std::numeric_limits<Score>::infinity();
  result->items.reserve(winners_.size());
  for (ItemId item : winners_) {
    const Score lower = pool_.lower(pool_.FindSlot(item));
    kth = std::min(kth, lower);
    result->items.push_back(ResultItem{item, lower});
  }
  if (result->items.empty()) {
    kth = -std::numeric_limits<Score>::infinity();
  }
  Score upper = scorer.Combine(last_scores_.data(), m);
  for (uint32_t slot = 0; slot < pool_.size(); ++slot) {
    if (!pool_.InHeap(slot)) {
      upper = std::max(upper,
                       PoolUpperBound(pool_, slot, scorer, last_scores_, tmp_));
    }
  }
  CertifyAnytime(reason, kth, upper, result);
  result->failed_over = true;
  uint32_t dead = 0;
  for (size_t i = 0; i < m; ++i) {
    if (!ListAlive(i)) {
      ++dead;
    }
  }
  result->dead_lists = dead;
  Position stop = 0;
  for (size_t i = 0; i < m; ++i) {
    stop = std::max(stop, list_depths_[i]);
  }
  result->stop_position = stop;
  return Status::OK();
}

}  // namespace topk
