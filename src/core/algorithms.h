// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Umbrella header: TopKAlgorithm and its factory, with the types its callers
// hold.

#ifndef TOPK_CORE_ALGORITHMS_H_
#define TOPK_CORE_ALGORITHMS_H_

#include "core/execution_context.h"
#include "core/topk_algorithm.h"
#include "core/topk_buffer.h"
#include "core/topk_result.h"

#endif  // TOPK_CORE_ALGORITHMS_H_
