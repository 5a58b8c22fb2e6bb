// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/topk_algorithm.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"
#include "core/bpa2_loop.h"
#include "core/bpa_loop.h"
#include "core/ca_loop.h"
#include "core/candidate_bounds.h"
#include "core/fa_loop.h"
#include "core/list_io.h"
#include "core/naive_loop.h"
#include "core/nra_loop.h"
#include "core/tput_loop.h"

namespace topk {
namespace {

// Both costs price execution_cost, and CA casts their ratio to its resolve
// period, so each must be finite and non-negative.
Status ValidateCostModel(const char* engine, const CostModel& model) {
  const std::pair<const char*, double> costs[] = {
      {"sorted_cost", model.sorted_cost}, {"random_cost", model.random_cost}};
  for (const auto& [field, cost] : costs) {
    if (!std::isfinite(cost) || cost < 0.0) {
      return Status::Invalid(engine, ": cost_model.", field,
                             " must be finite and >= 0; got ", field, " = ",
                             cost);
    }
  }
  return Status::OK();
}

// The checks a kind adds to ValidateQuery: the pool algorithms' catalog
// checks, and TPUT's summation-only rule on top of them.
Status ValidateKind(AlgorithmKind kind, const char* engine,
                    const AlgorithmOptions& options, const Database& db,
                    const TopKQuery& query) {
  switch (kind) {
    case AlgorithmKind::kNra:
    case AlgorithmKind::kCa:
      return ValidatePoolQuery(engine, LocalIo(&db), options.score_floor);
    case AlgorithmKind::kTput:
      return ValidateTputQuery(engine, query, LocalIo(&db),
                               options.score_floor);
    default:
      return Status::OK();
  }
}

// Runs `kind`'s loop over the local policy the prepared context calls for.
// Naive, the oracle, ignores fault plans: under armed faults it scans the
// plain local read path (an audited scan still records its touches).
Status RunKind(AlgorithmKind kind, const AlgorithmOptions& options,
               const Database& db, const TopKQuery& query,
               ExecutionContext* context, TopKResult* result) {
  return RunOnLocalIo(db, context, [&](auto io) {
    using IoT = decltype(io);
    switch (kind) {
      case AlgorithmKind::kNaive:
        if constexpr (IoT::kFaultAware) {
          if (context->faults().armed()) {
            return RunNaiveScan(query, context,
                                RawListIo(&db, &context->engine()), result);
          }
        }
        return RunNaiveScan(query, context, io, result);
      case AlgorithmKind::kFa:
        return RunFaLoop(query, context, io, result);
      case AlgorithmKind::kTa:
        // TA is BPA's loop without best positions (core/bpa_loop.h).
        if (dynamic_cast<const SumScorer*>(query.scorer) != nullptr) {
          return RunBpaLoop<IoT, NoTracker, SumScorer>(options, query, context,
                                                       io, result);
        }
        return RunBpaLoop<IoT, NoTracker, Scorer>(options, query, context, io,
                                                  result);
      case AlgorithmKind::kBpa:
        return DispatchBpa(options, query, context, io, result);
      case AlgorithmKind::kBpa2:
        return DispatchBpa2(options, query, context, io, result);
      case AlgorithmKind::kTput:
        return RunTputLoop(options, query, context, io, result);
      case AlgorithmKind::kNra:
        return DispatchNra(options, query, context, io, result);
      case AlgorithmKind::kCa:
        return DispatchCa(options, query, context, io, result);
    }
    return Status::Invalid("unknown algorithm kind ", static_cast<int>(kind));
  });
}

}  // namespace

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
  const std::string name = ToString(kind_);
  TOPK_RETURN_NOT_OK(ValidateQuery(name.c_str(), query, db.num_items()));
  TOPK_RETURN_NOT_OK(options_.governor.Validate(name.c_str()));
  if (options_.cost_model.has_value()) {
    TOPK_RETURN_NOT_OK(ValidateCostModel(name.c_str(), *options_.cost_model));
  }
  TOPK_RETURN_NOT_OK(
      options_.fault_plan.Validate(name.c_str(), db.num_lists()));
  if (options_.fault_plan.enabled() && options_.audit_accesses) {
    return Status::Invalid(
        name,
        ": fault injection (fault_plan) cannot be combined with "
        "audit_accesses; the audit certifies fault-free access patterns, and "
        "a fault failover would restart its trail mid-query");
  }
  TOPK_RETURN_NOT_OK(ValidateKind(kind_, name.c_str(), options_, db, query));

  context->Prepare(db, options_.audit_accesses, query.k);
  context->governor().Arm(options_.governor);
  if (options_.fault_plan.enabled()) {
    context->faults().Arm(db.num_lists(), options_.fault_plan);
  } else {
    context->faults().Disarm();
  }
  result->Clear();
  Timer timer;
  Status run_status = RunKind(kind_, options_, db, query, context, result);
  if (run_status.IsUnavailable()) {
    // A random-access algorithm lost a list permanently mid-run
    // (ExecutionContext::LoseList). Fail over to NRA over the survivors:
    // accesses already spent stay counted (carried across the engine reset;
    // the NRA run's policy counts on from them), the fault schedule stays
    // armed — dead lists stay dead and the deterministic schedule continues
    // — and the governor keeps running down the same deadline and budgets.
    // Where NRA cannot serve the database, the named loss is the answer.
    if (!ValidatePoolQuery("NRA", LocalIo(&db), options_.score_floor).ok()) {
      return context->LostListStatus(name.c_str());
    }
    const AccessStats spent = context->engine().stats();
    context->Prepare(db, /*audit=*/false, query.k);
    context->engine().set_stats(spent);
    result->Clear();
    run_status =
        DispatchNra(options_, query, context,
                    FaultIo(&db, &context->engine(), &context->faults()),
                    result);
    result->failed_over = true;
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

  return FinishResult(name.c_str(), query.k, options_.governor.strict, result);
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
  return std::make_unique<TopKAlgorithm>(kind, std::move(options));
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
