// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/ta_algorithm.h"

#include "core/bpa_loop.h"

namespace topk {

Status TaAlgorithm::Run(const Database& db, const TopKQuery& query,
                        ExecutionContext* context, TopKResult* result) const {
  const bool sum = dynamic_cast<const SumScorer*>(query.scorer) != nullptr;
  return RunOnLocalIo(db, options().audit_accesses, context, [&](auto io) {
    using IoT = decltype(io);
    return sum ? RunBpaLoop<IoT, NoTracker, SumScorer>(options(), query,
                                                       context, io, result)
               : RunBpaLoop<IoT, NoTracker, Scorer>(options(), query, context,
                                                    io, result);
  });
}

}  // namespace topk
