// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// google-benchmark micro-benchmarks for the library's building blocks: the
// bit-array best-position tracker (dense and sparse marks), sorted-list
// access primitives, the top-k buffer, workload generators, and small
// end-to-end algorithm executions.
//
// Besides the google-benchmark suite, `bench_micro --json[=path]` runs the
// batch throughput benchmark and emits the measurements as JSON (default
// path: BENCH_PR5.json) to track the perf trajectory. With no scenario flags
// it measures the full trajectory set — the historical cache-resident shape
// (uniform n=10k m=5 k=20, comparable with BENCH_PR1–PR4.json) plus the
// DRAM-resident regime (uniform and zipf at n=1M) — as one JSON document
// with a "workloads" array. Scenario flags select a single workload instead:
//
//   --n=<items> --m=<lists> --k=<answers>
//   --dist={uniform,gaussian,correlated,zipf}   score distribution
//   --quick   ~10x fewer queries and, in trajectory mode, the n=1M set
//             reduced to one BPA + one CA series (CI per-push capture of
//             the DRAM-resident regime — the random-access and dual-heap
//             hot paths — not a stable measurement)
//   --deadline-ms=MS --access-budget=N   arm the query governor for every
//             measured execution: the batch then times the *anytime* path
//             (stop at a round boundary, certify bounds) instead of the
//             run-to-exact path, and each series records its completion
//
// `bench_micro --degrade-json[=path]` (default path: DEGRADE_PR6.json) runs
// the degradation-quality sweep instead: for each algorithm it measures the
// answer quality — recall against the Naive oracle, certified theta — at
// access budgets set to fixed fractions of the algorithm's own ungoverned
// access count, plus one targeted-kill fault scenario (failover quality).
// CI uploads the artifact next to the --quick trajectory JSON.
//
// `bench_micro --serve-json[=path]` (default path: BENCH_PR7.json) runs the
// open-loop serving benchmark: a TopKServer (--threads workers, every request
// arming the --serve-deadline-ms SLA) is offered Poisson arrivals at swept
// fractions of its nominal capacity — below, near and above saturation — and
// each point reports p50/p95/p99 latency (measured from the *scheduled*
// arrival, so a backed-up server is charged its queueing delay instead of
// hiding it: no coordinated omission), the shed rate, and the achieved
// throughput next to the single-thread closed-loop baseline.
//
// `bench_micro --dist-json[=path]` (default path: BENCH_PR10.json) measures
// the distributed coordinator: per-query message and byte counts for
// distributed BPA/TPUT over in-process list-owner shards across an n/m/k
// grid (fault-free, so the counts are exact and deterministic), then a
// degradation sweep over replication factor (R=1 vs R=2) x owner-death x
// delay rates reporting recall against the exact answer, the certified
// theta of each degraded answer, SLA compliance under a 250 virtual-ms
// governor deadline, and the retry/hedge/timeout/failover counters of the
// fault machinery, plus a deterministic targeted-kill section (one replica
// of one list dies mid-query: R=1 degrades with a certificate, R=2 stays
// exact). The degradation object is also written standalone next to the
// main artifact (<path minus .json>-degradation.json). --quick trims the
// grid and the per-cell seed count for CI.
//
// A scenario's series run in 5 rotating rounds inside one process: round r
// runs every series' next fifth of its queries, starting at series r mod S,
// and each series keeps its own warmed context across the rounds. Every
// series reports its total wall time and its per-query median
// (`per_query_ms_median`); compare medians of interleaved parent/change
// pairs, not single totals.
//
// The BPA series is measured in two modes — a fresh ExecutionContext per
// query (the pre-PR1 per-query allocation path) vs one reused context — so
// the number stays comparable with BENCH_PR1.json. The two modes run as
// interleaved chunk pairs (reused chunk, fresh chunk, one pair per round),
// not as two sequential blocks: on a shared vCPU, minutes-apart blocks sit in
// different host-noise phases, which is exactly how BENCH_PR4.json recorded
// the nonsensical uniform-10k `speedup_reused_vs_fresh: 0.977` (reused
// "slower" than the allocating path); interleaving puts both modes in every
// phase so their ratio cancels the drift. The no-random-access family (NRA,
// CA, TPUT), whose candidate bookkeeping lives in the flat CandidatePool
// (PR 2) with the per-mask group index (PR 3), NRA pool compaction (PR 4),
// and the dual-heap min side + hugepage arena (PR 5), is measured in the
// reused-context (zero-allocation) mode — with n=1M query counts raised in
// PR 5 now that the deep scanners are several times cheaper there.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/flag_parse.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/algorithms.h"
#include "core/candidate_bounds.h"
#include "core/topk_server.h"
#include "dist/coordinator.h"
#include "dist/fault_injecting_transport.h"
#include "dist/in_process_transport.h"
#include "gen/database_generator.h"
#include "lists/scorer.h"
#include "tracker/bitarray_tracker.h"

namespace topk {
namespace {

// --- trackers ---

void BM_BitArrayTracker(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<Position> positions(n);
  for (auto& p : positions) {
    p = static_cast<Position>(1 + rng.NextBounded(n));
  }
  for (auto _ : state) {
    state.PauseTiming();
    BitArrayTracker tracker(n);
    state.ResumeTiming();
    for (Position p : positions) {
      tracker.MarkSeen(p);
    }
    benchmark::DoNotOptimize(tracker.best_position());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(positions.size()));
}
BENCHMARK(BM_BitArrayTracker)->Arg(1 << 12)->Arg(1 << 16);

// Sparse workload (few accesses over a huge list): the bit array's O(n/u)
// regime, where the paper's Section 5.2.2 B+tree would be O(log u).
void BM_BitArraySparse(benchmark::State& state) {
  const size_t n = 10'000'000;
  const size_t u = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<Position> positions(u);
  for (auto& p : positions) {
    p = static_cast<Position>(1 + rng.NextBounded(n));
  }
  for (auto _ : state) {
    state.PauseTiming();
    BitArrayTracker tracker(n);
    state.ResumeTiming();
    for (Position p : positions) {
      tracker.MarkSeen(p);
    }
    benchmark::DoNotOptimize(tracker.best_position());
  }
}
BENCHMARK(BM_BitArraySparse)->Arg(1000);

// --- list primitives (random access reads the Database's by-item mirror) ---

void BM_SortedListLookup(benchmark::State& state) {
  const size_t n = 100000;
  const Database db = MakeUniformDatabase(n, 1, 4);
  Rng rng(5);
  std::vector<ItemId> items(1024);
  for (auto& item : items) {
    item = static_cast<ItemId>(rng.NextBounded(n));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Lookup(0, items[i++ & 1023]));
  }
}
BENCHMARK(BM_SortedListLookup);

void BM_SortedListEntryAt(benchmark::State& state) {
  const size_t n = 100000;
  const Database db = MakeUniformDatabase(n, 1, 6);
  Position p = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.list(0).EntryAt(p));
    p = p % n + 1;
  }
}
BENCHMARK(BM_SortedListEntryAt);

// --- top-k buffer ---

void BM_TopKBufferOffer(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<Score> scores(8192);
  for (auto& s : scores) {
    s = rng.NextDouble();
  }
  for (auto _ : state) {
    TopKBuffer buffer(k);
    for (size_t i = 0; i < scores.size(); ++i) {
      buffer.Offer(static_cast<ItemId>(i), scores[i]);
    }
    benchmark::DoNotOptimize(buffer.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(scores.size()));
}
BENCHMARK(BM_TopKBufferOffer)->Arg(20)->Arg(100);

// --- generators ---

void BM_UniformGeneration(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeUniformDatabase(n, 4, ++seed));
  }
}
BENCHMARK(BM_UniformGeneration)->Arg(10000);

void BM_CorrelatedGeneration(benchmark::State& state) {
  CorrelatedConfig config;
  config.n = static_cast<size_t>(state.range(0));
  config.m = 4;
  config.alpha = 0.01;
  for (auto _ : state) {
    ++config.seed;
    benchmark::DoNotOptimize(MakeCorrelatedDatabase(config).ValueOrDie());
  }
}
BENCHMARK(BM_CorrelatedGeneration)->Arg(10000);

// --- end-to-end algorithm executions (small scale) ---

void BM_Algorithm(benchmark::State& state, AlgorithmKind kind) {
  static const Database db = MakeUniformDatabase(20000, 4, 8);
  static const SumScorer sum;
  const TopKQuery query{20, &sum};
  auto algorithm = MakeAlgorithm(kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithm->Execute(db, query).ValueOrDie());
  }
}
void BM_TaEndToEnd(benchmark::State& state) {
  BM_Algorithm(state, AlgorithmKind::kTa);
}
void BM_BpaEndToEnd(benchmark::State& state) {
  BM_Algorithm(state, AlgorithmKind::kBpa);
}
void BM_Bpa2EndToEnd(benchmark::State& state) {
  BM_Algorithm(state, AlgorithmKind::kBpa2);
}
BENCHMARK(BM_TaEndToEnd);
BENCHMARK(BM_BpaEndToEnd);
BENCHMARK(BM_Bpa2EndToEnd);

// --- batch throughput mode (--json) ---

// Runs `queries` executions on one warmed, reused context (the
// zero-allocation path) and returns wall milliseconds: the serving mode's
// single-thread closed-loop baseline.
double MeasureBatchMillis(const TopKAlgorithm& algorithm, const Database& db,
                          const TopKQuery& query, int queries,
                          Score* checksum) {
  *checksum = 0.0;
  ExecutionContext context;
  TopKResult result;
  for (int i = 0; i < 3; ++i) {  // warm-up
    algorithm.ExecuteInto(db, query, &context, &result).Abort("warm-up");
  }
  Timer timer;
  for (int i = 0; i < queries; ++i) {
    algorithm.ExecuteInto(db, query, &context, &result).Abort("bench query");
    // A governed run may return fewer than k items (anytime answer).
    *checksum += result.items.empty() ? 0.0 : result.items.front().score;
  }
  return timer.ElapsedMillis();
}

// Nearest-rank-with-interpolation percentile over a sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

// Rounds of a scenario's rotating measurement (see AppendScenarioJson); BPA's
// fresh-vs-reused comparison runs one chunk pair per round. 5 rounds spread
// every series across ~the whole measurement window; more would shrink
// chunks below timer resolution for fast workloads.
constexpr int kRounds = 5;

// One series' measurement state across the rounds: its algorithm, its
// access probe, its own warmed context, and the per-query wall times and
// checksums of each mode.
struct SeriesRun {
  std::unique_ptr<TopKAlgorithm> algorithm;
  TopKResult probe;
  ExecutionContext context;
  TopKResult result;
  std::vector<double> reused_ms;
  std::vector<double> fresh_ms;
  Score reused_checksum = 0.0;
  Score fresh_checksum = 0.0;
};

// Runs the series until `times` holds `target` per-query wall times: on its
// warmed context, or (fresh) on a new context and result per query, which
// reproduces the per-query allocation behavior of the seed implementation.
void RunChunk(const Database& db, const TopKQuery& query, int target,
              bool fresh, SeriesRun* run) {
  std::vector<double>& times = fresh ? run->fresh_ms : run->reused_ms;
  Score& checksum = fresh ? run->fresh_checksum : run->reused_checksum;
  while (times.size() < static_cast<size_t>(target)) {
    Timer timer;
    if (fresh) {
      ExecutionContext context;
      const TopKResult result =
          run->algorithm->Execute(db, query, &context).ValueOrDie();
      checksum += result.items.empty() ? 0.0 : result.items.front().score;
    } else {
      run->algorithm->ExecuteInto(db, query, &run->context, &run->result)
          .Abort("bench query");
      // A governed run may return fewer than k items (anytime answer).
      checksum +=
          run->result.items.empty() ? 0.0 : run->result.items.front().score;
    }
    times.push_back(timer.ElapsedMillis());
  }
}

double TotalMs(const std::vector<double>& times) {
  return std::accumulate(times.begin(), times.end(), 0.0);
}

// `"wall_ms": ..., "queries_per_sec": ..., "per_query_ms_median": ...` of
// one mode's per-query wall times.
std::string ModeTimesJson(std::vector<double> times) {
  const double wall_ms = TotalMs(times);
  std::sort(times.begin(), times.end());
  char line[256];
  std::snprintf(line, sizeof(line),
                "\"wall_ms\": %.3f, \"queries_per_sec\": %.1f,"
                " \"per_query_ms_median\": %.4f",
                wall_ms, 1000.0 * static_cast<double>(times.size()) / wall_ms,
                Percentile(times, 0.5));
  return line;
}

// One per-algorithm series of the throughput report.
struct ThroughputSeries {
  AlgorithmKind kind;
  int queries;        // NRA/CA scan far deeper than BPA; fewer reps suffice
  bool measure_fresh; // fresh-vs-reused only for BPA (the PR 1 trajectory)
};

// One workload of the throughput report: a database shape plus the series
// measured against it.
struct ThroughputScenario {
  std::string dist;
  size_t n;
  size_t m;
  size_t k;
  std::vector<ThroughputSeries> series;
};

// Command-line configuration of the throughput and degradation modes.
struct ThroughputConfig {
  size_t n = 10000;
  size_t m = 5;
  size_t k = 20;
  std::string dist = "uniform";
  bool explicit_workload = false;  // any of --n/--m/--k/--dist given
  bool quick = false;  // ~10x fewer queries: CI trajectory capture
  std::string json_path = "BENCH_PR5.json";
  // Governor limits applied to every measured execution (0 = unlimited).
  double deadline_ms = 0.0;
  uint64_t access_budget = 0;
  std::string degrade_path = "DEGRADE_PR6.json";
  // Open-loop serving mode (--serve-json).
  std::string serve_path = "BENCH_PR7.json";
  size_t threads = 0;  // 0 = hardware concurrency
  double serve_deadline_ms = 25.0;
  size_t serve_requests = 0;  // 0 = auto (scaled down by --quick)
  // Distributed coordinator mode (--dist-json).
  std::string dist_path = "BENCH_PR10.json";
};

// The workloads a flag-less --json run measures: the historical
// cache-resident trajectory shape first (comparable with BENCH_PR1–PR4),
// then the DRAM-resident n=1M regime under uniform and zipf scores. Query
// counts shrink with n but were raised for NRA/CA/TPUT in PR 5 (the
// dual-heap prune/compaction peels and the hugepage-backed pool cut their
// per-query cost several-fold, so more repetitions fit the same budget);
// --quick cuts counts ~10x and reduces the n=1M set to one BPA and one CA
// series — the random-access and dual-heap hot paths — so CI can afford a
// per-push capture.
// The cache-resident series set (BPA fresh-vs-reused plus the pool family),
// shared by the default trajectory's first scenario and the explicit
// --n/--m/--k/--dist workload so their query counts cannot diverge.
std::vector<ThroughputSeries> CacheResidentSeries(int scale) {
  return {{AlgorithmKind::kBpa, 1000 / scale, true},
          {AlgorithmKind::kNra, 100 / scale, false},
          {AlgorithmKind::kCa, 200 / scale, false},
          {AlgorithmKind::kTput, 200 / scale, false}};
}

std::vector<ThroughputScenario> TrajectoryScenarios(bool quick) {
  const int scale = quick ? 10 : 1;
  std::vector<ThroughputScenario> scenarios;
  scenarios.push_back({"uniform", 10000, 5, 20, CacheResidentSeries(scale)});
  if (quick) {
    scenarios.push_back({"uniform", 1000000, 5, 20,
                         {{AlgorithmKind::kBpa, 20, false},
                          {AlgorithmKind::kCa, 5, false}}});
    return scenarios;
  }
  scenarios.push_back({"uniform", 1000000, 5, 20,
                       {{AlgorithmKind::kBpa, 100, true},
                        {AlgorithmKind::kNra, 30, false},
                        {AlgorithmKind::kCa, 20, false},
                        {AlgorithmKind::kTput, 15, false}}});
  scenarios.push_back({"zipf", 1000000, 5, 20,
                       {{AlgorithmKind::kBpa, 100, true},
                        {AlgorithmKind::kNra, 30, false},
                        {AlgorithmKind::kCa, 20, false},
                        {AlgorithmKind::kTput, 15, false}}});
  return scenarios;
}

// Measures one scenario and appends its JSON object to `json`. Returns false
// on an unservable workload or checksum mismatch (already reported).
bool AppendScenarioJson(const ThroughputScenario& scenario,
                        const ThroughputConfig& config, std::string& json) {
  const bool quick = config.quick;
  DatabaseKind kind = DatabaseKind::kUniform;
  ParseDatabaseKind(scenario.dist, &kind);  // validated by the caller
  const Database db = MakeDatabaseOfKind(kind, scenario.n, scenario.m, 11);
  // Gaussian (and in principle correlated) scores go negative; the pool
  // algorithms need a floor no local score undercuts.
  AlgorithmOptions options;
  options.score_floor = DeriveScoreFloor(db);
  options.governor.deadline_ms = config.deadline_ms;
  options.governor.total_access_budget = config.access_budget;
  SumScorer sum;
  const TopKQuery query{scenario.k, &sum};

  char line[1024];
  std::snprintf(line, sizeof(line),
                "    {\"workload\": {\"distribution\": \"%s\", \"n\": %zu,"
                " \"m\": %zu, \"k\": %zu, \"quick\": %s},\n"
                "     \"series\": [\n",
                scenario.dist.c_str(), scenario.n, scenario.m, scenario.k,
                quick ? "true" : "false");
  json += line;

  // Set every series up first: its algorithm, the access probe, and a
  // warm-up of its own context, which it keeps across the rounds.
  const size_t num_series = scenario.series.size();
  std::vector<SeriesRun> runs(num_series);
  for (size_t j = 0; j < num_series; ++j) {
    const ThroughputSeries& s = scenario.series[j];
    SeriesRun& run = runs[j];
    run.algorithm = MakeAlgorithm(s.kind, options);
    // Access counts are deterministic per query; probe them once. The probe
    // also validates the scenario against the algorithm (e.g. the pool
    // family's 64-list cap) so an unservable workload reports the status
    // instead of aborting mid-measurement.
    auto probe_result = run.algorithm->Execute(db, query);
    if (!probe_result.ok()) {
      std::fprintf(stderr, "%s cannot serve this workload: %s\n",
                   ToString(s.kind).c_str(),
                   probe_result.status().ToString().c_str());
      return false;
    }
    run.probe = std::move(probe_result).ValueUnsafe();
    for (int i = 0; i < 3; ++i) {  // warm-up
      run.algorithm->ExecuteInto(db, query, &run.context, &run.result)
          .Abort("warm-up");
    }
  }

  // Round r runs every series' next fifth of its queries, starting at series
  // r mod S, so no series always runs first or last: on a shared host that
  // slows whole seconds at a time, each series meets every noise phase of
  // the window. BPA's fresh-vs-reused pair interleaves its chunks within
  // each round.
  for (int round = 0; round < kRounds; ++round) {
    for (size_t j = 0; j < num_series; ++j) {
      const size_t idx = (round + j) % num_series;
      const ThroughputSeries& s = scenario.series[idx];
      const int target = s.queries * (round + 1) / kRounds;
      RunChunk(db, query, target, /*fresh=*/false, &runs[idx]);
      if (s.measure_fresh) {
        RunChunk(db, query, target, /*fresh=*/true, &runs[idx]);
      }
    }
  }

  bool first = true;
  for (size_t j = 0; j < num_series; ++j) {
    const ThroughputSeries& s = scenario.series[j];
    const SeriesRun& run = runs[j];
    const TopKResult& probe = run.probe;
    // A wall-clock deadline trips nondeterministically, so the two modes
    // may legitimately return different anytime prefixes; access-budget
    // trips are deterministic and keep the checksums comparable.
    if (s.measure_fresh && config.deadline_ms == 0.0 &&
        run.fresh_checksum != run.reused_checksum) {
      std::fprintf(stderr, "%s checksum mismatch: %f vs %f\n",
                   ToString(s.kind).c_str(), run.fresh_checksum,
                   run.reused_checksum);
      return false;
    }

    if (!first) {
      json += ",\n";
    }
    first = false;
    std::snprintf(
        line, sizeof(line),
        "      {\"algorithm\": \"%s\", \"queries\": %d,\n"
        "       \"per_query_accesses\": {\"sorted\": %llu, \"random\": %llu,"
        " \"direct\": %llu, \"total\": %llu},\n"
        "       \"reused_context\": {%s}",
        ToString(s.kind).c_str(), s.queries,
        static_cast<unsigned long long>(probe.stats.sorted_accesses),
        static_cast<unsigned long long>(probe.stats.random_accesses),
        static_cast<unsigned long long>(probe.stats.direct_accesses),
        static_cast<unsigned long long>(probe.stats.TotalAccesses()),
        ModeTimesJson(run.reused_ms).c_str());
    json += line;

    if (options.governor.enabled()) {
      std::snprintf(line, sizeof(line),
                    ",\n       \"completion\": \"%s\", \"theta\": %.6f",
                    ToString(probe.completion),
                    std::isfinite(probe.theta) ? probe.theta : -1.0);
      json += line;
    }
    if (s.measure_fresh) {
      std::snprintf(line, sizeof(line),
                    ",\n       \"fresh_context_per_query\": {%s},\n"
                    "       \"fresh_reused_interleaved_pairs\": %d,\n"
                    "       \"speedup_reused_vs_fresh\": %.3f",
                    ModeTimesJson(run.fresh_ms).c_str(), kRounds,
                    TotalMs(run.fresh_ms) / TotalMs(run.reused_ms));
      json += line;
    }
    json += "}";
  }
  json += "\n    ]}";
  return true;
}

int RunThroughputMode(const ThroughputConfig& config) {
  std::vector<ThroughputScenario> scenarios;
  if (config.explicit_workload) {
    if (config.k == 0 || config.k > config.n || config.m == 0) {
      std::fprintf(stderr, "invalid workload: n=%zu m=%zu k=%zu\n", config.n,
                   config.m, config.k);
      return 1;
    }
    DatabaseKind kind;
    if (!ParseDatabaseKind(config.dist, &kind)) {
      std::fprintf(stderr,
                   "unknown --dist=%s (uniform|gaussian|correlated|zipf)\n",
                   config.dist.c_str());
      return 1;
    }
    const int scale = config.quick ? 10 : 1;
    scenarios.push_back({config.dist, config.n, config.m, config.k,
                         CacheResidentSeries(scale)});
  } else {
    scenarios = TrajectoryScenarios(config.quick);
  }

  std::string json;
  json += "{\n";
  json += "  \"benchmark\": \"batch_throughput\",\n";
  json += "  \"workloads\": [\n";
  bool first = true;
  for (const ThroughputScenario& scenario : scenarios) {
    if (!first) {
      json += ",\n";
    }
    first = false;
    // The database is built (and freed) inside the call: the n=1M scenarios
    // each hold ~200 MB, and only one needs to live at a time.
    if (!AppendScenarioJson(scenario, config, json)) {
      return 1;
    }
  }
  json += "\n  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  if (std::FILE* f = std::fopen(config.json_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", config.json_path.c_str());
    return 1;
  }
  return 0;
}

// --- degradation-quality mode (--degrade-json) ---

// Fraction of the returned items that belong to the oracle's exact top-k.
// Score ties are measure-zero under the generators' double scores, so the
// id-set comparison is exact in practice.
double RecallVsTruth(const TopKResult& result,
                     const std::vector<ItemId>& truth_sorted, size_t k) {
  size_t hits = 0;
  for (const ResultItem& item : result.items) {
    hits += std::binary_search(truth_sorted.begin(), truth_sorted.end(),
                               item.item);
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

// Appends the per-run quality fields shared by the budget sweep and the
// fault scenario. Theta can be +inf when nothing was certified; JSON has no
// inf, so it is reported as -1 (meaning "no certificate").
void AppendQualityJson(const TopKResult& result,
                       const std::vector<ItemId>& truth_sorted, size_t k,
                       std::string& json) {
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "\"completion\": \"%s\", \"returned\": %zu, \"recall\": %.4f,\n"
      "         \"theta\": %.6f, \"kth_lower_bound\": %.6f,"
      " \"unreturned_upper_bound\": %.6f,\n"
      "         \"accesses\": %llu",
      ToString(result.completion), result.items.size(),
      RecallVsTruth(result, truth_sorted, k),
      std::isfinite(result.theta) ? result.theta : -1.0,
      std::isfinite(result.kth_lower_bound) ? result.kth_lower_bound : -1.0,
      std::isfinite(result.unreturned_upper_bound)
          ? result.unreturned_upper_bound
          : -1.0,
      static_cast<unsigned long long>(result.stats.TotalAccesses()));
  json += line;
}

// Measures how gracefully each algorithm degrades: answer quality (recall vs
// the Naive oracle, certified theta) at access budgets set to fractions of
// the algorithm's own ungoverned access count, plus one targeted-kill fault
// scenario exercising the failover path. Quality, not time, is the point —
// every run executes once (the answers are deterministic).
int RunDegradeMode(const ThroughputConfig& config) {
  if (config.k == 0 || config.k > config.n || config.m < 2) {
    std::fprintf(stderr, "invalid workload: n=%zu m=%zu k=%zu (need m >= 2)\n",
                 config.n, config.m, config.k);
    return 1;
  }
  DatabaseKind kind;
  if (!ParseDatabaseKind(config.dist, &kind)) {
    std::fprintf(stderr,
                 "unknown --dist=%s (uniform|gaussian|correlated|zipf)\n",
                 config.dist.c_str());
    return 1;
  }
  const Database db = MakeDatabaseOfKind(kind, config.n, config.m, 11);
  AlgorithmOptions base_options;
  base_options.score_floor = DeriveScoreFloor(db);
  SumScorer sum;
  const TopKQuery query{config.k, &sum};

  const TopKResult oracle = MakeAlgorithm(AlgorithmKind::kNaive)
                                ->Execute(db, query)
                                .ValueOrDie();
  std::vector<ItemId> truth_sorted;
  truth_sorted.reserve(oracle.items.size());
  for (const ResultItem& item : oracle.items) {
    truth_sorted.push_back(item.item);
  }
  std::sort(truth_sorted.begin(), truth_sorted.end());

  constexpr double kBudgetFractions[] = {0.125, 0.25, 0.5, 0.75, 1.0};
  const AlgorithmKind kinds[] = {AlgorithmKind::kFa,   AlgorithmKind::kTa,
                                 AlgorithmKind::kBpa,  AlgorithmKind::kBpa2,
                                 AlgorithmKind::kTput, AlgorithmKind::kNra,
                                 AlgorithmKind::kCa};

  std::string json;
  json += "{\n";
  json += "  \"benchmark\": \"degradation_quality\",\n";
  char line[1024];
  std::snprintf(line, sizeof(line),
                "  \"workload\": {\"distribution\": \"%s\", \"n\": %zu,"
                " \"m\": %zu, \"k\": %zu},\n"
                "  \"series\": [\n",
                config.dist.c_str(), config.n, config.m, config.k);
  json += line;

  bool first_series = true;
  for (AlgorithmKind algo : kinds) {
    const auto ungoverned = MakeAlgorithm(algo, base_options);
    const auto probe_result = ungoverned->Execute(db, query);
    if (!probe_result.ok()) {
      std::fprintf(stderr, "%s cannot serve this workload: %s\n",
                   ToString(algo).c_str(),
                   probe_result.status().ToString().c_str());
      return 1;
    }
    const uint64_t full_accesses =
        probe_result.ValueOrDie().stats.TotalAccesses();

    if (!first_series) {
      json += ",\n";
    }
    first_series = false;
    std::snprintf(line, sizeof(line),
                  "    {\"algorithm\": \"%s\","
                  " \"ungoverned_total_accesses\": %llu,\n"
                  "     \"budget_sweep\": [\n",
                  ToString(algo).c_str(),
                  static_cast<unsigned long long>(full_accesses));
    json += line;

    bool first_point = true;
    for (double fraction : kBudgetFractions) {
      AlgorithmOptions options = base_options;
      options.governor.total_access_budget = std::max<uint64_t>(
          1, static_cast<uint64_t>(fraction * full_accesses));
      const auto run = MakeAlgorithm(algo, options)->Execute(db, query);
      if (!run.ok()) {
        std::fprintf(stderr, "%s under budget failed: %s\n",
                     ToString(algo).c_str(), run.status().ToString().c_str());
        return 1;
      }
      if (!first_point) {
        json += ",\n";
      }
      first_point = false;
      std::snprintf(
          line, sizeof(line),
          "       {\"budget_fraction\": %.3f, \"budget\": %llu, ", fraction,
          static_cast<unsigned long long>(
              options.governor.total_access_budget));
      json += line;
      AppendQualityJson(run.ValueOrDie(), truth_sorted, config.k, json);
      json += "}";
    }
    json += "\n     ],\n";

    // Targeted kill: list 1 dies after 100 accesses. The random-access
    // algorithms fail over to NRA over the survivors; NRA/CA degrade in
    // place with widened bounds.
    AlgorithmOptions fault_options = base_options;
    fault_options.fault_plan.kill_list = 1;
    fault_options.fault_plan.kill_after_accesses = 100;
    const auto faulted = MakeAlgorithm(algo, fault_options)->Execute(db, query);
    if (!faulted.ok()) {
      std::fprintf(stderr, "%s under targeted kill failed: %s\n",
                   ToString(algo).c_str(),
                   faulted.status().ToString().c_str());
      return 1;
    }
    const TopKResult& fault_result = faulted.ValueOrDie();
    std::snprintf(line, sizeof(line),
                  "     \"targeted_kill\": {\"kill_list\": 1,"
                  " \"kill_after_accesses\": 100, \"failed_over\": %s,"
                  " \"dead_lists\": %u,\n         ",
                  fault_result.failed_over ? "true" : "false",
                  fault_result.dead_lists);
    json += line;
    AppendQualityJson(fault_result, truth_sorted, config.k, json);
    json += "}}";
  }
  json += "\n  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  if (std::FILE* f = std::fopen(config.degrade_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", config.degrade_path.c_str());
    return 1;
  }
  return 0;
}

// --- open-loop serving mode (--serve-json) ---

// One offered-rate point of the open-loop sweep: Poisson arrivals at
// `offered_qps` submitted against a fresh TopKServer. Latency is measured
// from each request's *scheduled* arrival time, not from the (possibly late)
// Submit call — the standard guard against coordinated omission: when the
// server backs up, the queueing delay the client would have experienced is
// charged to the request instead of silently skipped.
struct ServePoint {
  double offered_qps = 0.0;
  size_t requests = 0;
  double wall_seconds = 0.0;
  double achieved_qps = 0.0;  // completed ok / wall
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double shed_rate = 0.0;  // rejected + expired, as a fraction of offered
  ServerStats stats;
};

ServePoint MeasureServePoint(const Database& db, AlgorithmKind algo,
                             const TopKQuery& query,
                             const AlgorithmOptions& options,
                             const ThroughputConfig& config, size_t threads,
                             double offered_qps, size_t requests,
                             uint64_t seed) {
  ServerOptions server_options;
  server_options.num_threads = threads;
  server_options.queue_capacity = 2 * threads + 16;
  server_options.shed_policy = ShedPolicy::kReject;
  server_options.algorithm_options = options;

  ServePoint point;
  point.offered_qps = offered_qps;
  point.requests = requests;

  std::mutex mu;
  std::condition_variable cv;
  size_t delivered = 0;
  std::vector<double> ok_latencies_ms;
  ok_latencies_ms.reserve(requests);

  Rng rng(seed);
  using Clock = std::chrono::steady_clock;
  {
    TopKServer server(&db, server_options);
    // A couple of warm-up requests size every worker context before the
    // measured window (not counted; the server is per-point anyway).
    for (size_t w = 0; w < 2 * threads; ++w) {
      server.Submit(ServerRequest{algo, query, 0.0}).wait();
    }

    Timer wall;
    Clock::time_point next_arrival = Clock::now();
    for (size_t i = 0; i < requests; ++i) {
      // Exponential inter-arrival at the offered rate (Poisson process).
      const double u = std::max(1e-12, 1.0 - rng.NextDouble());
      next_arrival += std::chrono::nanoseconds(static_cast<int64_t>(
          -std::log(u) / offered_qps * 1e9));
      std::this_thread::sleep_until(next_arrival);
      const Clock::time_point scheduled = next_arrival;
      ServerRequest request{algo, query, config.serve_deadline_ms};
      server.SubmitWithCallback(request, [&, scheduled](
                                             Result<TopKResult> result) {
        const double latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
                .count();
        std::lock_guard<std::mutex> lock(mu);
        if (result.ok()) {
          ok_latencies_ms.push_back(latency_ms);
        }
        ++delivered;
        cv.notify_all();
      });
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return delivered == requests; });
    }
    point.wall_seconds = wall.ElapsedSeconds();
    point.stats = server.stats();
    // Warm-up requests completed before the measured window; subtract them.
    point.stats.submitted -= 2 * threads;
    point.stats.completed -= 2 * threads;
  }

  std::sort(ok_latencies_ms.begin(), ok_latencies_ms.end());
  point.p50_ms = Percentile(ok_latencies_ms, 0.50);
  point.p95_ms = Percentile(ok_latencies_ms, 0.95);
  point.p99_ms = Percentile(ok_latencies_ms, 0.99);
  point.achieved_qps =
      static_cast<double>(ok_latencies_ms.size()) / point.wall_seconds;
  point.shed_rate =
      static_cast<double>(point.stats.shed_rejected +
                          point.stats.expired_at_dequeue) /
      static_cast<double>(requests);
  return point;
}

// Open-loop latency sweep: for each algorithm, measure the single-thread
// closed-loop throughput (the PR 1–5 trajectory number), then offer Poisson
// arrivals at fractions of the server's nominal capacity (threads x
// closed-loop qps) — below, near and above saturation — and report latency
// percentiles, shed rate and achieved throughput. Every request arms the
// --serve-deadline-ms SLA, so the overload point demonstrates the full
// governance path: queue -> watchdog cancel -> certified anytime answer, or
// shed before execution.
int RunServeMode(const ThroughputConfig& config) {
  if (config.k == 0 || config.k > config.n || config.m == 0) {
    std::fprintf(stderr, "invalid workload: n=%zu m=%zu k=%zu\n", config.n,
                 config.m, config.k);
    return 1;
  }
  DatabaseKind kind;
  if (!ParseDatabaseKind(config.dist, &kind)) {
    std::fprintf(stderr,
                 "unknown --dist=%s (uniform|gaussian|correlated|zipf)\n",
                 config.dist.c_str());
    return 1;
  }
  const size_t threads =
      config.threads != 0
          ? config.threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  const Database db = MakeDatabaseOfKind(kind, config.n, config.m, 11);
  AlgorithmOptions options;
  options.score_floor = DeriveScoreFloor(db);
  SumScorer sum;
  const TopKQuery query{config.k, &sum};

  struct ServeSeries {
    AlgorithmKind kind;
    int baseline_queries;
  };
  const int scale = config.quick ? 4 : 1;
  const ServeSeries series[] = {{AlgorithmKind::kBpa, 600 / scale},
                                {AlgorithmKind::kNra, 60 / scale},
                                {AlgorithmKind::kCa, 120 / scale},
                                {AlgorithmKind::kTput, 120 / scale}};
  const size_t requests_per_point =
      config.serve_requests != 0 ? config.serve_requests
                                 : (config.quick ? 80 : 300);
  constexpr double kLoadFractions[] = {0.4, 0.8, 1.2};

  std::string json;
  json += "{\n  \"benchmark\": \"open_loop_serving\",\n";
  char line[1024];
  std::snprintf(line, sizeof(line),
                "  \"workload\": {\"distribution\": \"%s\", \"n\": %zu,"
                " \"m\": %zu, \"k\": %zu, \"quick\": %s},\n"
                "  \"server\": {\"threads\": %zu, \"shed_policy\": \"reject\","
                " \"deadline_ms\": %.3f},\n"
                "  \"series\": [\n",
                config.dist.c_str(), config.n, config.m, config.k,
                config.quick ? "true" : "false", threads,
                config.serve_deadline_ms);
  json += line;

  bool first_series = true;
  uint64_t seed = 1007;
  for (const ServeSeries& s : series) {
    const auto algorithm = MakeAlgorithm(s.kind, options);
    const auto probe = algorithm->Execute(db, query);
    if (!probe.ok()) {
      std::fprintf(stderr, "%s cannot serve this workload: %s\n",
                   ToString(s.kind).c_str(),
                   probe.status().ToString().c_str());
      return 1;
    }
    Score checksum = 0.0;
    const double closed_ms =
        MeasureBatchMillis(*algorithm, db, query, s.baseline_queries,
                           &checksum);
    const double closed_qps = 1000.0 * s.baseline_queries / closed_ms;

    if (!first_series) {
      json += ",\n";
    }
    first_series = false;
    std::snprintf(line, sizeof(line),
                  "    {\"algorithm\": \"%s\","
                  " \"closed_loop_1thread_qps\": %.1f,\n"
                  "     \"points\": [\n",
                  ToString(s.kind).c_str(), closed_qps);
    json += line;

    bool first_point = true;
    for (double fraction : kLoadFractions) {
      const double offered = fraction * closed_qps * threads;
      const ServePoint point =
          MeasureServePoint(db, s.kind, query, options, config, threads,
                            offered, requests_per_point, ++seed);
      if (!first_point) {
        json += ",\n";
      }
      first_point = false;
      std::snprintf(
          line, sizeof(line),
          "       {\"load_fraction\": %.2f, \"offered_qps\": %.1f,"
          " \"requests\": %zu,\n"
          "        \"achieved_qps\": %.1f, \"speedup_vs_closed_loop\": %.2f,\n"
          "        \"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f,"
          " \"p99\": %.3f},\n"
          "        \"shed_rate\": %.4f, \"submitted\": %llu,"
          " \"completed\": %llu, \"failed\": %llu,"
          " \"shed_rejected\": %llu, \"shed_degraded\": %llu,"
          " \"expired_at_dequeue\": %llu,"
          " \"deadline_cancelled\": %llu}",
          fraction, point.offered_qps, point.requests, point.achieved_qps,
          point.achieved_qps / closed_qps, point.p50_ms, point.p95_ms,
          point.p99_ms, point.shed_rate,
          static_cast<unsigned long long>(point.stats.submitted),
          static_cast<unsigned long long>(point.stats.completed),
          static_cast<unsigned long long>(point.stats.failed),
          static_cast<unsigned long long>(point.stats.shed_rejected),
          static_cast<unsigned long long>(point.stats.shed_degraded),
          static_cast<unsigned long long>(point.stats.expired_at_dequeue),
          static_cast<unsigned long long>(point.stats.deadline_cancelled));
      json += line;
    }
    json += "\n     ]}";
  }
  json += "\n  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  if (std::FILE* f = std::fopen(config.serve_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", config.serve_path.c_str());
    return 1;
  }
  return 0;
}

// --- distributed coordinator mode (--dist-json) ---

// One distributed execution over `replicas` in-process ListOwners per list,
// optionally behind a FaultInjectingTransport. Returns false only on a
// non-degradable error (validation, the fault plan's included; the fault
// paths always answer).
bool RunDistQuery(const Database& db, bool bpa, size_t k, size_t replicas,
                  const TransportFaultPlan* plan, double deadline_ms,
                  TopKResult* result, DistStats* stats,
                  TransportFaultStats* fault_stats) {
  InProcessTransport inner = InProcessTransport::PerListOwners(db, replicas);
  if (plan != nullptr &&
      !plan->Validate(bpa ? "DistBPA" : "DistTPUT", inner.num_owners()).ok()) {
    return false;
  }
  FaultInjectingTransport faulty(&inner,
                                 plan != nullptr ? *plan
                                                 : TransportFaultPlan{});
  Transport* transport = plan != nullptr ? static_cast<Transport*>(&faulty)
                                         : static_cast<Transport*>(&inner);
  DistOptions options;
  options.governor.deadline_ms = deadline_ms;
  options.replication_factor = static_cast<uint32_t>(replicas);
  Coordinator coordinator(transport, options);
  if (!coordinator.Connect().ok()) {
    return false;
  }
  SumScorer sum;
  const TopKQuery query{k, &sum};
  const auto executed =
      bpa ? coordinator.ExecuteBpa(query) : coordinator.ExecuteTput(query);
  if (!executed.ok()) {
    return false;
  }
  *result = executed.ValueOrDie();
  *stats = coordinator.stats();
  if (fault_stats != nullptr) {
    *fault_stats = faulty.fault_stats();
  }
  return true;
}

// Distributed wire-cost and degradation sweep: the numbers the distributed
// top-k literature reports (messages and bytes per query vs n/m/k, TPUT's
// fixed round count vs BPA's depth-proportional one), then answer quality —
// recall against the exact top-k, certified theta, SLA compliance — as
// owner-death and delay rates rise. Everything is deterministic: the wire
// section is fault-free, and each degradation cell replays a fixed set of
// transport fault seeds, so the artifact is reproducible bit-for-bit.
int RunDistMode(const ThroughputConfig& config) {
  struct WirePoint {
    size_t n, m, k;
  };
  std::vector<WirePoint> wire_points = {{1000, 5, 20},   {10000, 5, 20},
                                        {100000, 5, 20}, {10000, 2, 20},
                                        {10000, 10, 20}, {10000, 5, 1},
                                        {10000, 5, 100}};
  if (config.quick) {
    wire_points.resize(5);  // drop n=100k and the k sweep for CI captures
  }

  std::string json;
  json += "{\n  \"benchmark\": \"distributed_bpa_tput\",\n";
  json += "  \"transport\": \"in_process_per_list_owners\",\n";
  char line[1024];

  json += "  \"wire\": [\n";
  bool first = true;
  for (const WirePoint& p : wire_points) {
    const Database db = MakeUniformDatabase(p.n, p.m, 11);
    for (const bool bpa : {true, false}) {
      TopKResult result;
      DistStats stats;
      if (!RunDistQuery(db, bpa, p.k, 1, nullptr, 0.0, &result, &stats,
                        nullptr)) {
        std::fprintf(stderr, "dist %s failed at n=%zu m=%zu k=%zu\n",
                     bpa ? "BPA" : "TPUT", p.n, p.m, p.k);
        return 1;
      }
      if (!first) {
        json += ",\n";
      }
      first = false;
      std::snprintf(
          line, sizeof(line),
          "    {\"algorithm\": \"%s\", \"n\": %zu, \"m\": %zu, \"k\": %zu,"
          " \"messages_sent\": %llu, \"replies_received\": %llu,"
          " \"bytes_sent\": %llu, \"bytes_received\": %llu,"
          " \"rounds\": %llu, \"sorted_accesses\": %llu,"
          " \"random_accesses\": %llu, \"stop_position\": %u}",
          bpa ? "dBPA" : "dTPUT", p.n, p.m, p.k,
          static_cast<unsigned long long>(stats.messages_sent),
          static_cast<unsigned long long>(stats.replies_received),
          static_cast<unsigned long long>(stats.bytes_sent),
          static_cast<unsigned long long>(stats.bytes_received),
          static_cast<unsigned long long>(stats.rounds),
          static_cast<unsigned long long>(result.stats.sorted_accesses),
          static_cast<unsigned long long>(result.stats.random_accesses),
          result.stop_position);
      json += line;
    }
  }
  json += "\n  ],\n";

  // Degradation sweep: uniform n=5000 m=5 k=20, a 250 virtual-ms governor
  // deadline per query (roomy enough that the fault-free baseline certifies
  // exact — the sweep then isolates what the *faults* cost), and a grid of
  // owner-death x delay rates. delay_ms equals the 5 ms RPC deadline, the
  // regime hedging is built for: a delayed primary outlasts the p99-derived
  // hedge timeout and the re-issued request wins. Recall is against the
  // fault-free exact answer; theta >= 1 is each degraded answer's own
  // certificate (1 = certified exact).
  const size_t kN = 5000, kM = 5, kK = 20;
  const double kDeadlineMs = 250.0;
  const Database db = MakeUniformDatabase(kN, kM, 11);
  SumScorer sum;
  const auto truth_result =
      MakeAlgorithm(AlgorithmKind::kBpa)->Execute(db, TopKQuery{kK, &sum});
  if (!truth_result.ok()) {
    std::fprintf(stderr, "cannot compute the exact reference answer\n");
    return 1;
  }
  std::vector<bool> truth(kN, false);
  for (const ResultItem& item : truth_result.ValueOrDie().items) {
    truth[item.item] = true;
  }

  // The degradation object is built standalone so it can be embedded in the
  // main artifact AND written as its own file (the R-axis grid is what the
  // release pipeline tracks release-over-release).
  std::string deg;
  std::snprintf(line, sizeof(line),
                "{\"workload\": {\"distribution\":"
                " \"uniform\", \"n\": %zu, \"m\": %zu, \"k\": %zu},"
                " \"deadline_ms\": %.1f, \"delay_ms\": 5.0,"
                " \"death_window_messages\": [1, 32], \"cells\": [\n",
                kN, kM, kK, kDeadlineMs);
  deg += line;

  const size_t replications[] = {1, 2};
  const double death_rates[] = {0.0, 0.05, 0.1, 0.2};
  const double delay_rates[] = {0.0, 0.2};
  const uint64_t kSeeds = config.quick ? 3 : 8;
  first = true;
  for (const bool bpa : {true, false}) {
    for (const size_t replication : replications) {
      for (const double death_rate : death_rates) {
        for (const double delay_rate : delay_rates) {
          size_t exact = 0, failed_over = 0, deadline_trips = 0;
          double recall_sum = 0.0, theta_sum = 0.0, virtual_ms_sum = 0.0;
          size_t theta_finite = 0;
          DistStats totals;
          TransportFaultStats fault_totals;
          for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
            TransportFaultPlan plan;
            plan.seed = seed;
            plan.owner_death_rate = death_rate;
            // Dying owners die within the first 32 messages: inside even
            // TPUT's small per-owner message budget, so the death rate bites
            // both protocols instead of only BPA's chatty rows.
            plan.death_max_messages = 32;
            plan.delay_rate = delay_rate;
            plan.delay_ms = 5.0;
            TopKResult result;
            DistStats stats;
            TransportFaultStats faults;
            if (!RunDistQuery(db, bpa, kK, replication, &plan, kDeadlineMs,
                              &result, &stats, &faults)) {
              std::fprintf(stderr, "degraded dist query failed (seed %llu)\n",
                           static_cast<unsigned long long>(seed));
              return 1;
            }
            size_t hits = 0;
            for (const ResultItem& item : result.items) {
              hits += truth[item.item] ? 1 : 0;
            }
            recall_sum += static_cast<double>(hits) / static_cast<double>(kK);
            if (std::isfinite(result.theta)) {
              theta_sum += result.theta;
              ++theta_finite;
            }
            exact += result.completion == Completion::kExact ? 1 : 0;
            deadline_trips +=
                result.completion == Completion::kDeadline ? 1 : 0;
            failed_over += result.failed_over ? 1 : 0;
            virtual_ms_sum += stats.virtual_ms;
            totals.retries += stats.retries;
            totals.hedges += stats.hedges;
            totals.hedge_wins += stats.hedge_wins;
            totals.timeouts += stats.timeouts;
            totals.duplicate_replies += stats.duplicate_replies;
            totals.owner_deaths += stats.owner_deaths;
            totals.messages_sent += stats.messages_sent;
            totals.replica_failovers += stats.replica_failovers;
            totals.breaker_opens += stats.breaker_opens;
            totals.probes_sent += stats.probes_sent;
            totals.groups_lost += stats.groups_lost;
            fault_totals.dropped_messages += faults.dropped_messages;
            fault_totals.delayed_messages += faults.delayed_messages;
          }
          if (!first) {
            deg += ",\n";
          }
          first = false;
          const double q = static_cast<double>(kSeeds);
          std::snprintf(
              line, sizeof(line),
              "    {\"algorithm\": \"%s\", \"replication\": %zu,"
              " \"owner_death_rate\": %.2f,"
              " \"delay_rate\": %.2f, \"queries\": %llu,\n"
              "     \"exact\": %zu, \"failed_over\": %zu,"
              " \"deadline_trips\": %zu, \"mean_recall\": %.4f,"
              " \"mean_theta\": %.4f, \"theta_finite\": %zu,\n"
              "     \"mean_virtual_ms\": %.3f, \"messages_sent\": %llu,"
              " \"retries\": %llu, \"hedges\": %llu, \"hedge_wins\": %llu,"
              " \"timeouts\": %llu, \"duplicate_replies\": %llu,"
              " \"owner_deaths\": %u, \"delayed_messages\": %llu,\n"
              "     \"replica_failovers\": %llu, \"breaker_opens\": %llu,"
              " \"probes_sent\": %llu, \"groups_lost\": %u}",
              bpa ? "dBPA" : "dTPUT", replication, death_rate, delay_rate,
              static_cast<unsigned long long>(kSeeds), exact, failed_over,
              deadline_trips, recall_sum / q,
              theta_finite != 0
                  ? theta_sum / static_cast<double>(theta_finite)
                  : 0.0,
              theta_finite, virtual_ms_sum / q,
              static_cast<unsigned long long>(totals.messages_sent),
              static_cast<unsigned long long>(totals.retries),
              static_cast<unsigned long long>(totals.hedges),
              static_cast<unsigned long long>(totals.hedge_wins),
              static_cast<unsigned long long>(totals.timeouts),
              static_cast<unsigned long long>(totals.duplicate_replies),
              totals.owner_deaths,
              static_cast<unsigned long long>(fault_totals.delayed_messages),
              static_cast<unsigned long long>(totals.replica_failovers),
              static_cast<unsigned long long>(totals.breaker_opens),
              static_cast<unsigned long long>(totals.probes_sent),
              totals.groups_lost);
          deg += line;
        }
      }
    }
  }
  deg += "\n  ],\n";

  // Targeted kill: replica 0 of list 0 dies after 6 served messages, no
  // other fault. The headline of the replication work, deterministic (one
  // cell per algorithm x R): at R=1 the list dies with the owner and the
  // answer degrades to a certified-theta NRA fallback; at R=2 the sibling
  // replica resumes the cursor exactly and the answer stays exact. The
  // scenario gets a roomier deadline than the grid: dBPA's fault-free run
  // already sits near the grid budget on this workload, and the point here
  // is the failover tax (probes + timeouts), not deadline pressure.
  const double kKillDeadlineMs = 2.0 * kDeadlineMs;
  char header[160];
  std::snprintf(header, sizeof(header),
                "  \"targeted_kill\": {\"killed\": \"list 0 replica 0\","
                " \"kill_after_messages\": 6, \"deadline_ms\": %.0f,"
                " \"cells\": [\n",
                kKillDeadlineMs);
  deg += header;
  first = true;
  for (const bool bpa : {true, false}) {
    for (const size_t replication : replications) {
      TransportFaultPlan plan;
      plan.kill_owners = {InProcessTransport::OwnerIndex(kM, 0, 0)};
      plan.kill_after_messages = 6;
      TopKResult result;
      DistStats stats;
      TransportFaultStats faults;
      if (!RunDistQuery(db, bpa, kK, replication, &plan, kKillDeadlineMs,
                        &result, &stats, &faults)) {
        std::fprintf(stderr, "targeted-kill dist query failed\n");
        return 1;
      }
      size_t hits = 0;
      for (const ResultItem& item : result.items) {
        hits += truth[item.item] ? 1 : 0;
      }
      if (!first) {
        deg += ",\n";
      }
      first = false;
      std::snprintf(
          line, sizeof(line),
          "    {\"algorithm\": \"%s\", \"replication\": %zu,"
          " \"recall\": %.4f, \"theta\": %.4f, \"completion\": \"%s\","
          " \"failed_over\": %s, \"replica_failovers\": %llu,"
          " \"owner_deaths\": %u, \"groups_lost\": %u}",
          bpa ? "dBPA" : "dTPUT", replication,
          static_cast<double>(hits) / static_cast<double>(kK),
          std::isfinite(result.theta) ? result.theta : -1.0,
          ToString(result.completion), result.failed_over ? "true" : "false",
          static_cast<unsigned long long>(stats.replica_failovers),
          stats.owner_deaths, stats.groups_lost);
      deg += line;
    }
  }
  deg += "\n  ]}}";

  json += "  \"degradation\": " + deg + "\n}\n";

  std::fputs(json.c_str(), stdout);
  if (std::FILE* f = std::fopen(config.dist_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", config.dist_path.c_str());
    return 1;
  }
  // The degradation grid alone, as its own artifact next to the main one.
  std::string deg_path = config.dist_path;
  const std::string suffix = ".json";
  if (deg_path.size() >= suffix.size() &&
      deg_path.compare(deg_path.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
    deg_path.resize(deg_path.size() - suffix.size());
  }
  deg_path += "-degradation.json";
  if (std::FILE* f = std::fopen(deg_path.c_str(), "w")) {
    std::fputs("{\n  \"benchmark\": \"distributed_degradation\",\n"
               "  \"degradation\": ",
               f);
    std::fputs(deg.c_str(), f);
    std::fputs("\n}\n", f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", deg_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace topk

int main(int argc, char** argv) {
  topk::ThroughputConfig config;
  bool throughput_mode = false;
  bool degrade_mode = false;
  bool serve_mode = false;
  bool dist_mode = false;
  bool scenario_flags_ok = true;
  // Shared CLI flag helpers (see common/flag_parse.h): --flag=value and
  // --flag value shapes, strict numeric parses.
  const auto value_of = [&](const std::string& arg, const char* name,
                            int* i) -> const char* {
    return topk::FlagValue(arg, name, i, argc, argv);
  };
  const auto parse_size = topk::ParseFlagSize;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      throughput_mode = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      throughput_mode = true;
      config.json_path = arg.substr(7);
    } else if (arg == "--degrade-json") {
      degrade_mode = true;
    } else if (arg.rfind("--degrade-json=", 0) == 0) {
      degrade_mode = true;
      config.degrade_path = arg.substr(15);
    } else if (arg == "--serve-json") {
      serve_mode = true;
    } else if (arg.rfind("--serve-json=", 0) == 0) {
      serve_mode = true;
      config.serve_path = arg.substr(13);
    } else if (arg == "--dist-json") {
      dist_mode = true;
    } else if (arg.rfind("--dist-json=", 0) == 0) {
      dist_mode = true;
      config.dist_path = arg.substr(12);
    } else if (const char* v = value_of(arg, "--threads", &i)) {
      scenario_flags_ok &= parse_size(v, &config.threads);
    } else if (const char* v = value_of(arg, "--serve-deadline-ms", &i)) {
      scenario_flags_ok &= topk::ParseFlagDouble(v, &config.serve_deadline_ms);
    } else if (const char* v = value_of(arg, "--serve-requests", &i)) {
      scenario_flags_ok &= parse_size(v, &config.serve_requests);
    } else if (arg == "--quick") {
      config.quick = true;
    } else if (const char* v = value_of(arg, "--n", &i)) {
      scenario_flags_ok &= parse_size(v, &config.n);
      config.explicit_workload = true;
    } else if (const char* v = value_of(arg, "--m", &i)) {
      scenario_flags_ok &= parse_size(v, &config.m);
      config.explicit_workload = true;
    } else if (const char* v = value_of(arg, "--k", &i)) {
      scenario_flags_ok &= parse_size(v, &config.k);
      config.explicit_workload = true;
    } else if (const char* v = value_of(arg, "--dist", &i)) {
      config.dist = v;
      config.explicit_workload = true;
    } else if (const char* v = value_of(arg, "--deadline-ms", &i)) {
      scenario_flags_ok &= topk::ParseFlagDouble(v, &config.deadline_ms);
    } else if (const char* v = value_of(arg, "--access-budget", &i)) {
      scenario_flags_ok &= topk::ParseFlagU64(v, &config.access_budget);
    } else {
      // Not a scenario flag. In throughput mode that is an error (a typoed
      // flag must not silently measure — and label — the default workload);
      // outside it the argument belongs to google-benchmark.
      scenario_flags_ok = false;
    }
  }
  if (throughput_mode || degrade_mode || serve_mode || dist_mode) {
    if (!scenario_flags_ok) {
      std::fprintf(stderr,
                   "unrecognized argument in --json/--degrade-json/"
                   "--serve-json/--dist-json mode; scenario flags: --n --m "
                   "--k --dist {uniform,gaussian,correlated,zipf} --quick "
                   "--deadline-ms --access-budget --threads "
                   "--serve-deadline-ms --serve-requests\n");
      return 1;
    }
    if (dist_mode) {
      return topk::RunDistMode(config);
    }
    if (serve_mode) {
      return topk::RunServeMode(config);
    }
    if (degrade_mode) {
      return topk::RunDegradeMode(config);
    }
    return topk::RunThroughputMode(config);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
