// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "lists/access_engine.h"

#include <algorithm>

namespace topk {

void AccessEngine::Reset(size_t m, size_t n, bool audit) {
  stats_ = AccessStats{};
  audit_ = audit;
  if (audit_) {
    touch_counts_.resize(m);
    for (auto& counts : touch_counts_) {
      counts.assign(n, 0);
    }
  } else {
    touch_counts_.clear();
  }
}

uint32_t AccessEngine::MaxTouchCount(size_t list_index) const {
  if (!audit_) {
    return 0;
  }
  uint32_t max_count = 0;
  for (uint32_t count : touch_counts_[list_index]) {
    max_count = std::max(max_count, count);
  }
  return max_count;
}

}  // namespace topk
