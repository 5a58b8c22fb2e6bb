// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/topk_algorithm.h"

#include <algorithm>

#include "common/macros.h"
#include "common/timer.h"
#include "core/bpa2_algorithm.h"
#include "core/bpa_algorithm.h"
#include "core/ca_algorithm.h"
#include "core/fa_algorithm.h"
#include "core/naive_algorithm.h"
#include "core/nra_algorithm.h"
#include "core/ta_algorithm.h"
#include "core/tput_algorithm.h"

namespace topk {

Status TopKAlgorithm::ValidateFor(const Database& /*db*/,
                                  const TopKQuery& /*query*/) const {
  return Status::OK();
}

Result<TopKResult> TopKAlgorithm::Execute(const Database& db,
                                          const TopKQuery& query) const {
  ExecutionContext context;
  return Execute(db, query, &context);
}

Result<TopKResult> TopKAlgorithm::Execute(const Database& db,
                                          const TopKQuery& query,
                                          ExecutionContext* context) const {
  TopKResult result;
  TOPK_RETURN_NOT_OK(ExecuteInto(db, query, context, &result));
  return result;
}

Status TopKAlgorithm::ExecuteInto(const Database& db, const TopKQuery& query,
                                  ExecutionContext* context,
                                  TopKResult* result) const {
  TOPK_RETURN_NOT_OK(ValidateQuery(name().c_str(), query, db.num_items()));
  TOPK_RETURN_NOT_OK(options_.governor.Validate(name().c_str()));
  TOPK_RETURN_NOT_OK(options_.fault_plan.Validate(name().c_str(),
                                                  db.num_lists()));
  if (options_.fault_plan.enabled() && options_.audit_accesses) {
    return Status::Invalid(
        name(),
        ": fault injection (fault_plan) cannot be combined with "
        "audit_accesses; the audited read path rolls no fault schedule");
  }
  TOPK_RETURN_NOT_OK(ValidateFor(db, query));

  context->Prepare(db, options_.audit_accesses, query.k);
  context->governor().Arm(options_.governor);
  if (options_.fault_plan.enabled()) {
    context->faults().Arm(db.num_lists(), options_.fault_plan);
  } else {
    context->faults().Disarm();
  }
  result->Clear();
  Timer timer;
  Status run_status = Run(db, query, context, result);
  if (run_status.IsUnavailable() && context->faults().armed()) {
    // A random-access algorithm lost a list permanently mid-run. Fail over
    // to NRA over the survivors: accesses already spent stay counted
    // (carried across the engine reset; the NRA run's policy counts on from
    // them), the fault schedule stays armed — dead lists stay dead and the
    // deterministic schedule continues — and the governor keeps running
    // down the same deadline and budgets.
    NraAlgorithm fallback_nra(options_);
    TopKAlgorithm& fallback = fallback_nra;  // protected Run/ValidateFor
    if (fallback.ValidateFor(db, query).ok()) {
      const AccessStats spent = context->engine().stats();
      context->Prepare(db, /*audit=*/false, query.k);
      context->engine().set_stats(spent);
      result->Clear();
      run_status = fallback.Run(db, query, context, result);
      result->failed_over = true;
    }
  }
  TOPK_RETURN_NOT_OK(run_status);
  result->elapsed_ms = timer.ElapsedMillis();

  const AccessEngine& engine = context->engine();
  result->stats = engine.stats();
  const CostModel model =
      options_.cost_model.value_or(CostModel::PaperDefault(db.num_items()));
  result->execution_cost = model.ExecutionCost(result->stats);

  if (options_.audit_accesses) {
    result->max_touches_per_list.resize(db.num_lists());
    for (size_t i = 0; i < db.num_lists(); ++i) {
      result->max_touches_per_list[i] = engine.MaxTouchCount(i);
    }
  }
  if (context->faults().armed()) {
    const FaultStats& faults = context->faults().fault_stats();
    result->dead_lists = faults.dead_lists;
    result->fault_retries = faults.transient_faults;
  }

  return FinishResult(name().c_str(), query.k, options_.governor.strict,
                      result);
}

Status ValidateQuery(const char* engine, const TopKQuery& query, size_t n) {
  if (query.scorer == nullptr) {
    return Status::Invalid(engine,
                           ": query has no scoring function (a Scorer is "
                           "required); got scorer = nullptr");
  }
  if (query.k == 0) {
    return Status::Invalid(engine, ": k must be >= 1; got k = 0");
  }
  if (query.k > n) {
    return Status::Invalid(engine, ": k = ", query.k,
                           " exceeds database size n = ", n);
  }
  return Status::OK();
}

Status FinishResult(const char* engine, size_t k, bool strict,
                    TopKResult* result) {
  if (result->completion == Completion::kExact) {
    if (result->items.size() != k) {
      return Status::Internal(engine, " produced ", result->items.size(),
                              " items for k = ", k);
    }
  } else if (result->items.size() > k) {
    return Status::Internal(engine, " produced ", result->items.size(),
                            " items for k = ", k,
                            " (anytime results must not exceed k)");
  }
  std::sort(result->items.begin(), result->items.end(),
            [](const ResultItem& a, const ResultItem& b) {
              if (a.score != b.score) {
                return a.score > b.score;
              }
              return a.item < b.item;
            });
  if (result->completion == Completion::kExact) {
    // Exact results collapse the certificate: the k-th score bounds both
    // sides and theta is exactly 1.
    const Score kth = result->items.back().score;
    result->kth_lower_bound = kth;
    result->unreturned_upper_bound = kth;
    result->theta = 1.0;
  } else if (strict) {
    // StrictMode: the caller wants exact answers only — surface the
    // degradation as an error instead of an anytime result.
    if (result->completion == Completion::kListFailure) {
      return Status::Unavailable(
          engine, ": ", result->dead_lists,
          " list(s) died permanently; StrictMode rejects the degraded ",
          "anytime answer (", result->items.size(), " of ", k,
          " items, theta = ", result->theta, ")");
    }
    return Status::ResourceExhausted(
        engine, ": stopped by ", ToString(result->completion), " after ",
        result->stats.TotalAccesses(),
        " accesses; StrictMode rejects the anytime answer (",
        result->items.size(), " of ", k,
        " items, theta = ", result->theta, ")");
  }
  return Status::OK();
}

std::string ToString(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kNaive:
      return "Naive";
    case AlgorithmKind::kFa:
      return "FA";
    case AlgorithmKind::kTa:
      return "TA";
    case AlgorithmKind::kBpa:
      return "BPA";
    case AlgorithmKind::kBpa2:
      return "BPA2";
    case AlgorithmKind::kTput:
      return "TPUT";
    case AlgorithmKind::kNra:
      return "NRA";
    case AlgorithmKind::kCa:
      return "CA";
  }
  return "unknown";
}

std::unique_ptr<TopKAlgorithm> MakeAlgorithm(AlgorithmKind kind,
                                             AlgorithmOptions options) {
  switch (kind) {
    case AlgorithmKind::kNaive:
      return std::make_unique<NaiveAlgorithm>(std::move(options));
    case AlgorithmKind::kFa:
      return std::make_unique<FaAlgorithm>(std::move(options));
    case AlgorithmKind::kTa:
      return std::make_unique<TaAlgorithm>(std::move(options));
    case AlgorithmKind::kBpa:
      return std::make_unique<BpaAlgorithm>(std::move(options));
    case AlgorithmKind::kBpa2:
      return std::make_unique<Bpa2Algorithm>(std::move(options));
    case AlgorithmKind::kTput:
      return std::make_unique<TputAlgorithm>(std::move(options));
    case AlgorithmKind::kNra:
      return std::make_unique<NraAlgorithm>(std::move(options));
    case AlgorithmKind::kCa:
      return std::make_unique<CaAlgorithm>(std::move(options));
  }
  return nullptr;
}

const std::vector<AlgorithmKind>& AllAlgorithmKinds() {
  static const std::vector<AlgorithmKind> kAll = {
      AlgorithmKind::kNaive, AlgorithmKind::kFa,   AlgorithmKind::kTa,
      AlgorithmKind::kBpa,   AlgorithmKind::kBpa2, AlgorithmKind::kTput,
      AlgorithmKind::kNra,   AlgorithmKind::kCa,
  };
  return kAll;
}

}  // namespace topk
