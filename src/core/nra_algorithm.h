// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// NRA — "No Random Access" (Fagin, Lotem, Naor; the paper's reference [15]).
// Included as a comparison baseline for settings where random access is
// unavailable or prohibitively expensive. NRA performs only sorted accesses
// and maintains, for every seen item, a lower bound (unknown local scores
// replaced by the score floor) and an upper bound (unknown scores replaced by
// the current last-seen score of the respective list). It stops when the k-th
// best lower bound is at least (a) the upper bound of every other seen item
// and (b) the threshold f(last scores), which upper-bounds all unseen items.
//
// NRA certifies top-k *membership*; the exact overall scores of the winners
// may still be open when it stops. For reporting and test comparability the
// implementation resolves the winners' exact scores with uncounted reads —
// the access metrics stay faithful to the NRA model (zero random accesses).
// A run that ends with a dead list (fault injection, or the distributed
// coordinator's degraded path) cannot read the dead cells: it reports
// Completion::kListFailure with the winners' certified lower bounds instead.

#ifndef TOPK_CORE_NRA_ALGORITHM_H_
#define TOPK_CORE_NRA_ALGORITHM_H_

#include <string>

#include "core/topk_algorithm.h"

namespace topk {

class NraAlgorithm : public TopKAlgorithm {
 public:
  using TopKAlgorithm::TopKAlgorithm;

  std::string name() const override { return "NRA"; }

 protected:
  Status ValidateFor(const Database& db, const TopKQuery& query) const override;

  Status Run(const Database& db, const TopKQuery& query,
             ExecutionContext* context, TopKResult* result) const override;
};

}  // namespace topk

#endif  // TOPK_CORE_NRA_ALGORITHM_H_
