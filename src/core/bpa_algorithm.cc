// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/bpa_algorithm.h"

#include "core/bpa_loop.h"

namespace topk {

Status BpaAlgorithm::Run(const Database& db, const TopKQuery& query,
                         ExecutionContext* context, TopKResult* result) const {
  return RunOnLocalIo(db, options().audit_accesses, context, [&](auto io) {
    return DispatchBpa(options(), query, context, io, result);
  });
}

}  // namespace topk
