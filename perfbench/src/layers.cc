// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Per-layer probes of the traced run, each over the workload's own database:
//
//   core    — the workload's request stream replayed closed-loop through
//             TopKAlgorithm::ExecuteInto on one benchmark-owned context;
//   lists   — SortedList::EntryAt walking every list, and the item-major
//             mirror rows (ItemScoresRow + ItemPositionsRow) of random items;
//   tracker — BitArrayTracker::MarkSeen + best_position over a random
//             permutation of the workload's n positions.
//
// Timed loops report the median over repeated passes, so one descheduled
// pass does not move the figure.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/candidate_bounds.h"
#include "core/execution_context.h"
#include "lists/scorer.h"
#include "tracker/bitarray_tracker.h"

namespace perfbench {
namespace {

volatile double g_sink = 0.0;

struct KindInfo {
  AlgorithmKind kind;
  const char* name;
  const char* span;
  bool pool;
};

constexpr KindInfo kKinds[] = {
    {AlgorithmKind::kTa, "TA", "core.TA", false},
    {AlgorithmKind::kBpa, "BPA", "core.BPA", false},
    {AlgorithmKind::kBpa2, "BPA2", "core.BPA2", false},
    {AlgorithmKind::kNra, "NRA", "core.NRA", true},
    {AlgorithmKind::kCa, "CA", "core.CA", true},
    {AlgorithmKind::kTput, "TPUT", "core.TPUT", true},
};

const KindInfo& Info(AlgorithmKind kind) {
  for (const KindInfo& info : kKinds) {
    if (info.kind == kind) return info;
  }
  return kKinds[0];
}

/// Runs `pass` (which returns the number of operations it timed) until
/// `seconds` pass, at least three times, and returns the median ns per
/// operation.
template <typename Pass>
double MedianNsPerOp(double seconds, Trace* trace, const char* span,
                     Pass&& pass) {
  std::vector<double> ns_per_op;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (ns_per_op.size() < 3 || NowNs() < end) {
    const int64_t start = NowNs();
    const double ops = pass();
    const int64_t stop = NowNs();
    ns_per_op.push_back(static_cast<double>(stop - start) / ops);
    if (trace->enabled()) trace->Add(span, 0, 0, start, stop);
  }
  return SortedPercentile(&ns_per_op, 0.5);
}

}  // namespace

void ProbeCore(const topk::Database& db, const std::vector<QueryClass>& classes,
               const std::vector<uint8_t>& stream, double seconds, Trace* trace,
               Report* report) {
  topk::AlgorithmOptions options;
  options.score_floor = topk::DeriveScoreFloor(db);
  const topk::SumScorer scorer;
  topk::ExecutionContext context;
  topk::TopKResult result;
  std::map<AlgorithmKind, std::unique_ptr<topk::TopKAlgorithm>> algorithms;
  std::map<AlgorithmKind, std::vector<double>> run_ms;
  std::map<AlgorithmKind, double> accesses, peak;
  std::map<AlgorithmKind, int> class_count;
  auto run = [&](const QueryClass& q) {
    auto& algorithm = algorithms[q.kind];
    if (algorithm == nullptr) algorithm = topk::MakeAlgorithm(q.kind, options);
    const int64_t start = NowNs();
    const topk::Status status = algorithm->ExecuteInto(
        db, topk::TopKQuery{q.k, &scorer}, &context, &result);
    const int64_t stop = NowNs();
    if (!status.ok()) {
      std::fprintf(stderr, "core replay: %s\n", status.ToString().c_str());
    }
    if (Info(q.kind).pool) {
      peak[q.kind] = std::max(
          peak[q.kind], static_cast<double>(context.pool().peak_size()));
    }
    return std::pair<int64_t, int64_t>{start, stop};
  };

  // Access counts: every distinct query once, averaged over k per algorithm
  // (deterministic for a seed).
  for (const QueryClass& q : classes) {
    run(q);
    accesses[q.kind] += static_cast<double>(result.stats.TotalAccesses());
    ++class_count[q.kind];
  }
  // Run time: the stream itself, closed loop.
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0; NowNs() < end; ++i) {
    const QueryClass& q = classes[stream[i % stream.size()]];
    const auto [start, stop] = run(q);
    run_ms[q.kind].push_back(NsToMs(stop - start));
    if (trace->enabled()) trace->Add(Info(q.kind).span, 0, i + 1, start, stop);
  }

  for (const KindInfo& info : kKinds) {
    const std::string prefix = std::string("core.") + info.name;
    auto times = run_ms.find(info.kind);
    report->Set(prefix + ".run_ms.p50",
                times == run_ms.end() ? 0.0
                                      : SortedPercentile(&times->second, 0.5),
                "ms");
    const int count = class_count[info.kind];
    report->Set(prefix + ".accesses",
                count == 0 ? 0.0 : accesses[info.kind] / count, "count");
    if (info.pool) {
      report->Set(std::string("core.pool.peak_candidates.") + info.name,
                  peak[info.kind], "count");
    }
  }
  report->Set("core.pool.arena_mb",
              static_cast<double>(context.pool().arena_bytes_reserved()) /
                  (1024.0 * 1024.0),
              "MiB");
}

void ProbeLists(const topk::Database& db, uint64_t seed, double seconds,
                Trace* trace, Report* report) {
  const size_t n = db.num_items();
  const size_t m = db.num_lists();
  report->Set("lists.sorted_ns",
              MedianNsPerOp(seconds / 2, trace, "lists.sorted", [&] {
                double acc = 0.0;
                for (size_t j = 0; j < m; ++j) {
                  const topk::SortedList& list = db.list(j);
                  for (topk::Position p = 1; p <= n; ++p) {
                    const topk::ListEntry e = list.EntryAt(p);
                    acc += e.score + e.item;
                  }
                }
                g_sink = g_sink + acc;
                return static_cast<double>(n * m);
              }),
              "ns");

  topk::Rng rng(SubSeed(seed, 5));
  std::vector<topk::ItemId> items(size_t{1} << 16);
  for (topk::ItemId& item : items) {
    item = static_cast<topk::ItemId>(rng.NextBounded(n));
  }
  report->Set("lists.row_ns",
              MedianNsPerOp(seconds / 2, trace, "lists.row", [&] {
                double acc = 0.0;
                for (topk::ItemId item : items) {
                  const topk::Score* scores = db.ItemScoresRow(item);
                  const topk::Position* positions = db.ItemPositionsRow(item);
                  for (size_t j = 0; j < m; ++j) {
                    acc += scores[j] + positions[j];
                  }
                }
                g_sink = g_sink + acc;
                return static_cast<double>(items.size());
              }),
              "ns");
}

void ProbeTracker(size_t n, uint64_t seed, double seconds, Trace* trace,
                  Report* report) {
  topk::Rng rng(SubSeed(seed, 6));
  const std::vector<uint32_t> order = rng.Permutation(static_cast<uint32_t>(n));
  topk::BitArrayTracker tracker(n);
  report->Set("tracker.mark_ns",
              MedianNsPerOp(seconds, trace, "tracker.mark", [&] {
                tracker.Reset();
                uint64_t acc = 0;
                for (uint32_t index : order) {
                  tracker.MarkSeen(index + 1);
                  acc += tracker.best_position();
                }
                g_sink = g_sink + static_cast<double>(acc);
                return static_cast<double>(n);
              }),
              "ns");
}

}  // namespace perfbench
