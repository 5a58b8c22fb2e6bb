// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// TopKAlgorithm: the common driver for every top-k algorithm in the library.
// An algorithm is its AlgorithmKind plus its AlgorithmOptions; the run loops
// live in core/*_loop.h.

#ifndef TOPK_CORE_TOPK_ALGORITHM_H_
#define TOPK_CORE_TOPK_ALGORITHM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/execution_context.h"
#include "core/query_governor.h"
#include "core/topk_result.h"
#include "lists/access_engine.h"
#include "lists/database.h"
#include "lists/fault_injection.h"

namespace topk {

/// Knobs shared by all algorithms. Defaults reproduce the paper's setup.
struct AlgorithmOptions {
  /// When false (paper-faithful, Lemma 2), TA and BPA issue (m-1) random
  /// accesses for *every* sorted access, even when the item was seen before.
  /// When true, random accesses for already-resolved items are skipped; the
  /// stopping position is unchanged, only access counts drop (ablation).
  bool memoize_seen_items = false;

  /// Record a per-(list, position) touch count during execution, reported in
  /// TopKResult::max_touches_per_list. Used by tests (Theorem 5) and the
  /// access-pattern ablation; costs O(n*m) memory.
  bool audit_accesses = false;

  /// Record every stop-rule evaluation (threshold, k-th buffered score) in
  /// TopKResult::trace. Supported by TA, BPA and BPA2; used to replay the
  /// paper's threshold tables (Figure 1.b) in tests and teaching material.
  bool collect_trace = false;

  /// Cost model for TopKResult::execution_cost and CA's resolve period
  /// h = round(cr/cs). Defaults to CostModel::PaperDefault(n): cs = 1,
  /// cr = log2(n). Both costs must be finite and >= 0.
  std::optional<CostModel> cost_model;

  /// Lower bound that every local score is guaranteed to respect; used by NRA
  /// to lower-bound unknown scores and by TPUT's pruning. The paper's formal
  /// model (non-negative scores) corresponds to 0.
  double score_floor = 0.0;

  /// NRA (summation path) only: periodically erase candidates whose upper
  /// bound has dropped strictly below the k-th lower bound, keeping the pool
  /// at O(live candidates) instead of O(every item seen). Behaviorally a
  /// no-op — results, stop positions and access counts are unchanged (a
  /// re-seen erased candidate re-enters with strictly less knowledge and a
  /// provably sub-threshold bound, see nra_loop.h) — so the default is
  /// on; the off switch exists for the differential tests that certify the
  /// no-op and for memory-vs-walk-cost ablations. CA always erases (its
  /// victim selection observably depends on the erased set); TPUT's single
  /// pass has nothing to compact.
  bool nra_pool_compaction = true;

  /// Pool size below which NRA never bothers compacting (the group walks are
  /// cheap while everything fits in cache). Once the pool reaches the
  /// watermark a compaction pass runs; a productive pass (>= 1/4 erased)
  /// resets the watermark to 1.25x the surviving live size, an unproductive
  /// one backs it off 2x (4x from the second unproductive pass in a row), so
  /// total compaction work stays O(pool growth) — see the schedule comment
  /// in nra_loop.h. Tests set 1 to compact at every stop check.
  size_t nra_compaction_floor = 4096;

  /// Per-query governance limits (deadline, access budgets, pool byte
  /// budget, StrictMode). Defaults arm nothing; see core/query_governor.h.
  /// On a tripped limit the run stops at the next round boundary and returns
  /// an anytime result (TopKResult::completion/theta) — or, under
  /// GovernorLimits::strict, a ResourceExhausted/Unavailable error. Naive is
  /// the oracle and ignores governance.
  GovernorLimits governor;

  /// Seeded deterministic fault schedule injected into the access layer
  /// (lists/fault_injection.h). Defaults inject nothing. Incompatible with
  /// audit_accesses (a failover would restart the audit trail mid-query).
  /// When a list dies permanently, NRA/CA degrade to bound-widened answers
  /// over the survivors and the random-access algorithms
  /// (FA/TA/BPA/BPA2/TPUT) transparently fail over to an NRA run
  /// (TopKResult::failed_over). Naive ignores faults.
  FaultPlan fault_plan;
};

/// Every algorithm shipped with the library.
enum class AlgorithmKind {
  kNaive,
  kFa,
  kTa,
  kBpa,
  kBpa2,
  kTput,
  kNra,
  kCa,
};

/// Paper-style display name ("TA", "BPA", ...).
std::string ToString(AlgorithmKind kind);

/// One algorithm: its kind and its options. ExecuteInto validates the query,
/// runs the kind's loop (core/*_loop.h) over the local access policy the
/// options call for, times the run and applies the cost model.
///
/// Determinism contract: every algorithm returns the *exact* same top-k set
/// for the same (database, query) — the k smallest items under the total
/// order "higher overall score first, ties broken by ascending item id" —
/// and TopKResult::items is sorted by that order. Equal aggregate scores are
/// therefore never an excuse for algorithms to disagree: stop rules compare
/// strictly against their thresholds (an unseen item tying the k-th score
/// could precede a buffered item in id order), and all candidate/buffer
/// structures break score ties toward the smaller item id. Differential
/// tests compare exact item sequences, not just score multisets.
class TopKAlgorithm final {
 public:
  explicit TopKAlgorithm(AlgorithmKind kind, AlgorithmOptions options = {})
      : kind_(kind), options_(std::move(options)) {}

  /// Algorithm name as used in the paper ("TA", "BPA", "BPA2", ...).
  std::string name() const { return ToString(kind_); }

  /// Executes the query against `db`. Fails with Status::Invalid on malformed
  /// queries (k = 0, k > n, missing scorer) or options (a non-finite or
  /// negative cost_model cost), and on databases an algorithm cannot serve
  /// (e.g. TPUT with a non-sum scorer). Convenience wrapper that pays for a
  /// fresh ExecutionContext; batch callers should hold a context per thread
  /// and use the overload below.
  Result<TopKResult> Execute(const Database& db, const TopKQuery& query) const;

  /// Executes the query borrowing `context` for all scratch state. Reusing
  /// one context across queries keeps the execution path allocation-free
  /// after warm-up.
  Result<TopKResult> Execute(const Database& db, const TopKQuery& query,
                             ExecutionContext* context) const;

  /// Lowest-level entry point: like Execute, but writes into a caller-owned
  /// result whose capacity is reused. With a warmed-up context and result,
  /// a query performs zero heap allocations end to end, a fault failover to
  /// NRA included.
  Status ExecuteInto(const Database& db, const TopKQuery& query,
                     ExecutionContext* context, TopKResult* result) const;

  const AlgorithmOptions& options() const { return options_; }

 private:
  AlgorithmKind kind_;
  AlgorithmOptions options_;
};

/// The query checks every engine runs first, messages naming `engine`: a
/// scorer, and k in [1, n].
Status ValidateQuery(const char* engine, const TopKQuery& query, size_t n);

/// The result contract every engine meets before it returns an answer —
/// TopKAlgorithm::ExecuteInto and the distributed Coordinator alike: an exact
/// answer holds exactly k items and an anytime one at most k (else
/// Internal); items are sorted by (score desc, item id asc); an exact
/// answer's certificate collapses onto its k-th score with theta = 1; and
/// under StrictMode an anytime answer becomes Unavailable (list failure) or
/// ResourceExhausted (governor trip). `engine` names the engine in messages.
Status FinishResult(const char* engine, size_t k, bool strict,
                    TopKResult* result);

/// Instantiates an algorithm.
std::unique_ptr<TopKAlgorithm> MakeAlgorithm(AlgorithmKind kind,
                                             AlgorithmOptions options = {});

/// All kinds, in a stable order (useful for sweeps).
const std::vector<AlgorithmKind>& AllAlgorithmKinds();

}  // namespace topk

#endif  // TOPK_CORE_TOPK_ALGORITHM_H_
