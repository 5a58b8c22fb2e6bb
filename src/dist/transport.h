// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Pluggable message transport between the Coordinator and ListOwner shards.
//
// The transport is synchronous-with-virtual-time: Call() either delivers the
// request and fills the reply, or fails (dropped message, dead owner), and in
// both cases reports how long the exchange would have taken in `latency_ms`.
// The coordinator charges that virtual time against the QueryGovernor's
// deadline, so fault/latency behaviour is fully deterministic and replayable
// from a seed — FaultInjectingTransport kills owners through the same
// FaultSchedule that kills lists locally. An eventual socket transport
// implements the same interface with real wall-clock latencies.

#ifndef TOPK_DIST_TRANSPORT_H_
#define TOPK_DIST_TRANSPORT_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "dist/messages.h"

namespace topk {

/// Per-call outcome metadata alongside the Status: the virtual latency to
/// charge against the query deadline, and how many extra (duplicate) copies
/// of the reply arrived — the coordinator counts them as received bytes and
/// dedupes them, exactly like a real at-least-once transport forces it to.
struct CallResult {
  double latency_ms = 0.0;
  uint32_t duplicate_replies = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual size_t num_owners() const = 0;

  /// Delivers `request` to `owner` and fills `reply` (cleared first by the
  /// implementation). Returns Unavailable when the message is lost or the
  /// owner is dead; `result->latency_ms` is set on success AND failure (a
  /// lost message still costs the caller its RPC deadline).
  virtual Status Call(size_t owner, const Request& request, Reply* reply,
                      CallResult* result) = 0;
};

}  // namespace topk

#endif  // TOPK_DIST_TRANSPORT_H_
