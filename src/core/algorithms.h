// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Umbrella header: every top-k algorithm plus the factory.

#ifndef TOPK_CORE_ALGORITHMS_H_
#define TOPK_CORE_ALGORITHMS_H_

#include "core/bpa2_algorithm.h"
#include "core/bpa_algorithm.h"
#include "core/ca_algorithm.h"
#include "core/execution_context.h"
#include "core/fa_algorithm.h"
#include "core/naive_algorithm.h"
#include "core/nra_algorithm.h"
#include "core/ta_algorithm.h"
#include "core/topk_algorithm.h"
#include "core/topk_buffer.h"
#include "core/topk_result.h"
#include "core/tput_algorithm.h"

#endif  // TOPK_CORE_ALGORITHMS_H_
