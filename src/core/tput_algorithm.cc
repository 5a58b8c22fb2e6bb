// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/tput_algorithm.h"

#include "core/tput_loop.h"

namespace topk {

Status TputAlgorithm::ValidateFor(const Database& db,
                                  const TopKQuery& query) const {
  return ValidateTputQuery("TPUT", query, LocalIo(&db), options().score_floor);
}

Status TputAlgorithm::Run(const Database& db, const TopKQuery& query,
                          ExecutionContext* context,
                          TopKResult* result) const {
  return RunOnLocalIo(db, options().audit_accesses, context, [&](auto io) {
    return RunTputLoop(options(), query, context, io, result);
  });
}

}  // namespace topk
