// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/nra_algorithm.h"

#include "core/candidate_bounds.h"
#include "core/nra_loop.h"

namespace topk {

Status NraAlgorithm::ValidateFor(const Database& db,
                                 const TopKQuery& query) const {
  (void)query;
  return ValidatePoolQuery("NRA", LocalIo(&db), options().score_floor);
}

Status NraAlgorithm::Run(const Database& db, const TopKQuery& query,
                         ExecutionContext* context, TopKResult* result) const {
  return RunOnLocalIo(db, options().audit_accesses, context, [&](auto io) {
    return DispatchNra(options(), query, context, io, result);
  });
}

}  // namespace topk
