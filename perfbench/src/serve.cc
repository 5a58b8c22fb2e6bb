// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// serve-hot and serve-dram: a two-worker TopKServer over a database loaded
// through ReadBinaryFile.
//
//   1. Latency phase: open-loop Poisson arrivals at the workload's fixed
//      rate from a busy-waiting generator. Each request is timed from its
//      scheduled arrival to delivery, so a stall is charged to every request
//      it delays.
//   2. Throughput phase: a standing backlog. Every completion submits the
//      next request from its callback, so the queue never empties and no
//      client wakeup sits on the path; completions per second over the
//      window is the capacity of the mix.
//
// The traced run splits both phases into one-second blocks and records
// spans for the odd ones; comparing the two halves gives the tracing
// overhead. It then runs the per-layer probes.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/candidate_bounds.h"
#include "core/topk_server.h"
#include "lists/database_io.h"
#include "lists/scorer.h"

namespace perfbench {
namespace {

using topk::Result;
using topk::ServerRequest;
using topk::TopKResult;
using topk::TopKServer;

constexpr size_t kWorkers = 2;
constexpr size_t kBacklog = 4 * kWorkers;
constexpr int64_t kBlockNs = 1'000'000'000;

enum Outcome : uint8_t { kPending = 0, kExactMatch, kWrong, kNotExact, kError };

struct RequestRecord {
  int64_t scheduled_ns = 0;
  int64_t submitted_ns = 0;
  int64_t delivered_ns = 0;
  double run_ms = 0.0;
  uint64_t accesses = 0;
  uint8_t cls = 0;
  uint8_t outcome = kPending;
};

struct Shared {
  const Oracle* oracle = nullptr;
  const std::vector<QueryClass>* classes = nullptr;
  const topk::SumScorer* scorer = nullptr;
  TopKServer* server = nullptr;

  std::vector<RequestRecord> latency;
  std::atomic<size_t> latency_delivered{0};

  // Throughput phase.
  const std::vector<uint8_t>* stream = nullptr;
  std::atomic<size_t> next{0};
  int64_t window_start_ns = 0;
  int64_t window_end_ns = 0;
  // Completions per block of the window: one second, shorter only in the
  // benchmark's own few-second test runs.
  int64_t block_ns = kBlockNs;
  std::vector<std::atomic<uint32_t>> per_block;
  std::atomic<uint64_t> backlog_done{0};
  std::atomic<uint64_t> backlog_exact{0};
  std::atomic<size_t> outstanding{0};
};

uint8_t Classify(const Shared& shared, size_t k,
                 const Result<TopKResult>& result) {
  if (!result.ok()) return kError;
  const TopKResult& answer = result.ValueUnsafe();
  if (answer.completion != topk::Completion::kExact) return kNotExact;
  return MatchesOracle(*shared.oracle, k, answer) ? kExactMatch : kWrong;
}

ServerRequest MakeRequest(const Shared& shared, uint8_t cls,
                          double deadline_ms) {
  const QueryClass& q = (*shared.classes)[cls];
  return ServerRequest{q.kind, topk::TopKQuery{q.k, shared.scorer},
                       deadline_ms};
}

void SubmitBacklog(Shared* shared);

void DeliverBacklog(Shared* shared, uint8_t cls, Result<TopKResult> result) {
  const int64_t now = NowNs();
  if (Classify(*shared, (*shared->classes)[cls].k, result) == kExactMatch) {
    shared->backlog_exact.fetch_add(1, std::memory_order_relaxed);
  }
  shared->backlog_done.fetch_add(1, std::memory_order_relaxed);
  if (now >= shared->window_start_ns && now < shared->window_end_ns) {
    shared->per_block[(now - shared->window_start_ns) / shared->block_ns]
        .fetch_add(1, std::memory_order_relaxed);
  }
  if (now < shared->window_end_ns) {
    SubmitBacklog(shared);
  } else {
    shared->outstanding.fetch_sub(1, std::memory_order_release);
  }
}

void SubmitBacklog(Shared* shared) {
  const size_t i = shared->next.fetch_add(1, std::memory_order_relaxed);
  const uint8_t cls = (*shared->stream)[i % shared->stream->size()];
  shared->server->SubmitWithCallback(
      MakeRequest(*shared, cls, 0.0),
      [shared, cls](Result<TopKResult> result) {
        DeliverBacklog(shared, cls, std::move(result));
      });
}

// Every worker meets every query class before timing starts: a burst of
// 2 x workers requests per class, so each worker's context and algorithm
// cache are sized for the whole mix.
void WarmUp(const Shared& shared, TopKServer* server) {
  for (uint8_t cls = 0; cls < shared.classes->size(); ++cls) {
    std::vector<std::future<Result<TopKResult>>> burst;
    for (size_t i = 0; i < 2 * kWorkers; ++i) {
      burst.push_back(server->Submit(MakeRequest(shared, cls, 0.0)));
    }
    for (auto& f : burst) f.wait();
  }
}

}  // namespace

int RunServe(const RunOptions& options, Report* report) {
  const WorkloadSpec& spec = options.spec;
  Oracle oracle;
  if (!ReadOracle(options.data_dir + "/oracle.txt", &oracle)) {
    std::fprintf(stderr, "cannot read the oracle in %s\n",
                 options.data_dir.c_str());
    return 1;
  }
  const std::vector<QueryClass> classes = Classes(spec);
  const topk::SumScorer scorer;
  Shared shared;
  shared.oracle = &oracle;
  shared.classes = &classes;
  shared.scorer = &scorer;

  // --- set-up, repeated; the last one serves the measurement ---
  Trace trace;
  if (options.trace) trace.Enable();
  topk::Database db;
  std::unique_ptr<TopKServer> server;
  SetupTimes setup;
  for (int rep = 0; rep < spec.setups; ++rep) {
    server.reset();
    db = topk::Database();
    const int64_t t0 = NowNs();
    auto loaded = topk::ReadBinaryFile(options.data_dir + "/db.bin");
    if (!loaded.ok()) {
      std::fprintf(stderr, "ReadBinaryFile: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    db = std::move(loaded).ValueUnsafe();
    const int64_t t1 = NowNs();
    topk::ServerOptions server_options;
    server_options.num_threads = kWorkers;
    server_options.shed_policy = topk::ShedPolicy::kReject;
    server_options.algorithm_options.score_floor = topk::DeriveScoreFloor(db);
    server = std::make_unique<TopKServer>(&db, server_options);
    const int64_t t2 = NowNs();
    WarmUp(shared, server.get());
    const int64_t t3 = NowNs();
    setup.load_s.push_back((t1 - t0) * 1e-9);
    setup.start_s.push_back((t2 - t1) * 1e-9);
    setup.warmup_s.push_back((t3 - t2) * 1e-9);
    setup.total_s.push_back((t3 - t0) * 1e-9);
    if (trace.enabled()) {
      const uint32_t root = trace.Add("setup", 0, 0, t0, t3);
      trace.Add("setup.load", root, 0, t0, t1);
      trace.Add("setup.start", root, 0, t1, t2);
      trace.Add("setup.warmup", root, 0, t2, t3);
    }
  }
  shared.server = server.get();
  const topk::ServerStats before = server->stats();

  const double latency_s = options.seconds * (options.trace ? 0.4 : 0.6);
  const double backlog_s = options.seconds * (options.trace ? 0.2 : 0.4);
  const std::vector<int64_t> arrivals =
      MakeArrivals(spec.rate_qps, latency_s, options.seed);
  const std::vector<uint8_t> stream =
      MakeStream(spec, options.seed, arrivals.size() + (1u << 16));
  shared.stream = &stream;
  shared.latency.resize(arrivals.size());

  // --- latency phase ---
  SpinMonitor monitor;
  monitor.Start();
  const int64_t phase_start = NowNs() + 1'000'000;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    RequestRecord& record = shared.latency[i];
    record.cls = stream[i];
    record.scheduled_ns = phase_start + arrivals[i];
    record.submitted_ns = monitor.WaitUntil(record.scheduled_ns);
    Shared* s = &shared;
    server->SubmitWithCallback(
        MakeRequest(shared, record.cls, spec.deadline_ms),
        [s, i](Result<TopKResult> result) {
          RequestRecord& r = s->latency[i];
          r.delivered_ns = NowNs();
          r.outcome = Classify(*s, (*s->classes)[r.cls].k, result);
          if (result.ok()) {
            r.run_ms = result.ValueUnsafe().elapsed_ms;
            r.accesses = result.ValueUnsafe().stats.TotalAccesses();
          }
          s->latency_delivered.fetch_add(1, std::memory_order_release);
        });
  }
  const double stall_share = monitor.stall_share();
  // The main thread sleeps from here on: two busy workers are the load.
  while (shared.latency_delivered.load(std::memory_order_acquire) <
         arrivals.size()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  int64_t latency_end = phase_start;
  for (const RequestRecord& r : shared.latency) {
    latency_end = std::max(latency_end, r.delivered_ns);
  }

  // --- throughput phase: a standing backlog fed from completions ---
  shared.next.store(arrivals.size());
  shared.window_start_ns = NowNs();
  shared.window_end_ns =
      shared.window_start_ns + static_cast<int64_t>(backlog_s * 1e9);
  const size_t blocks = std::max<size_t>(4, static_cast<size_t>(backlog_s));
  shared.block_ns = static_cast<int64_t>(backlog_s * 1e9) / blocks;
  shared.per_block = std::vector<std::atomic<uint32_t>>(blocks + 1);
  shared.outstanding.store(kBacklog);
  for (size_t i = 0; i < kBacklog; ++i) SubmitBacklog(&shared);
  while (shared.outstanding.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const topk::ServerStats after = server->stats();
  server->Stop();

  // --- end-to-end metrics ---
  std::vector<double> latency_ms[2], all_latency_ms, run_ms, overhead_ms,
      late_ms;
  std::vector<std::pair<int64_t, double>> timed;  // (scheduled, latency)
  double busy_ms = 0.0;
  uint64_t accesses = 0;
  for (size_t i = 0; i < shared.latency.size(); ++i) {
    const RequestRecord& r = shared.latency[i];
    const double total = NsToMs(r.delivered_ns - r.scheduled_ns);
    const double late = NsToMs(r.submitted_ns - r.scheduled_ns);
    const size_t parity = ((r.scheduled_ns - phase_start) / kBlockNs) & 1;
    latency_ms[parity].push_back(total);
    all_latency_ms.push_back(total);
    timed.push_back({r.scheduled_ns, total});
    run_ms.push_back(r.run_ms);
    overhead_ms.push_back(total - late - r.run_ms);
    late_ms.push_back(late);
    busy_ms += r.run_ms;
    accesses += r.accesses;
    report->exact += r.outcome == kExactMatch;
    if (trace.enabled() && parity == 1) {
      const uint32_t root =
          trace.Add("request", 0, i + 1, r.scheduled_ns, r.delivered_ns);
      trace.Add("generator.late", root, i + 1, r.scheduled_ns,
                r.submitted_ns);
      trace.Add("server.run", root, i + 1,
                r.delivered_ns - static_cast<int64_t>(r.run_ms * 1e6),
                r.delivered_ns);
    }
  }
  const size_t requests = shared.latency.size();
  report->attempted = requests + shared.backlog_done.load();
  report->exact += shared.backlog_exact.load();
  report->failed = report->attempted - report->exact;
  // Completions per second in each block of the backlog window, and split
  // by block parity for the traced run.
  std::vector<double> qps_windows, qps_parity[2];
  for (size_t b = 0; b < blocks; ++b) {
    qps_windows.push_back(shared.per_block[b].load() /
                          (shared.block_ns * 1e-9));
    qps_parity[b & 1].push_back(qps_windows.back());
  }
  const double qps[2] = {SortedPercentile(&qps_parity[0], 0.5),
                         SortedPercentile(&qps_parity[1], 0.5)};
  const QuietThird quiet = MeasureQuietThird(timed, phase_start, qps_windows);
  const double accesses_per_query =
      requests == 0 ? 0.0
                    : static_cast<double>(accesses) /
                          static_cast<double>(requests);
  const double tail_rank = TailRank(all_latency_ms.size());

  report->Set("latency_p50_ms", quiet.p50_ms, "ms");
  report->Set("latency_p95_ms", quiet.p95_ms, "ms");
  report->Set("throughput_qps", quiet.qps, "1/s");
  report->Set("harness.latency_p50_all_ms",
              SortedPercentile(&all_latency_ms, 0.50), "ms");
  report->Set("harness.latency_p95_all_ms", Percentile(all_latency_ms, 0.95),
              "ms");
  report->Set("exact_share",
              static_cast<double>(report->exact) /
                  static_cast<double>(std::max<uint64_t>(1, report->attempted)),
              "ratio");
  report->Set("accesses_per_query", accesses_per_query, "count");
  report->counts["accesses_per_query"] = accesses_per_query;
  setup.Emit(report);

  report->Set("harness.gen_late_ms.p95", SortedPercentile(&late_ms, 0.95),
              "ms");
  report->Set("harness.gen_late_ms.max", late_ms.empty() ? 0.0 : late_ms.back(),
              "ms");
  report->Set("harness.stall_share", stall_share, "ratio");
  report->Set("harness.latency_tail_ms", Percentile(all_latency_ms, tail_rank),
              "ms");
  report->Set("harness.latency_tail_rank", tail_rank, "ratio");
  report->Set("server.busy_share",
              busy_ms / (kWorkers * NsToMs(latency_end - phase_start)),
              "ratio");

  // --- per-layer metrics of the traced run ---
  if (options.trace) {
    report->Set("server.overhead_ms.p50", SortedPercentile(&overhead_ms, 0.50),
                "ms");
    report->Set("server.overhead_ms.p95", Percentile(overhead_ms, 0.95), "ms");
    report->Set("server.run_ms.p50", SortedPercentile(&run_ms, 0.50), "ms");
    report->Set("server.run_ms.p95", Percentile(run_ms, 0.95), "ms");
    report->Set("server.shed",
                static_cast<double>(after.shed_rejected + after.shed_degraded -
                                    before.shed_rejected -
                                    before.shed_degraded),
                "count");
    report->Set("server.expired",
                static_cast<double>(after.expired_at_dequeue -
                                    before.expired_at_dequeue),
                "count");
    report->Set("server.deadline_cancelled",
                static_cast<double>(after.deadline_cancelled -
                                    before.deadline_cancelled),
                "count");
    const double p50_off = SortedPercentile(&latency_ms[0], 0.5);
    const double p50_on = SortedPercentile(&latency_ms[1], 0.5);
    report->Set("harness.trace_overhead_pct.p50",
                p50_off > 0 ? 100.0 * (p50_on - p50_off) / p50_off : 0.0, "%");
    report->Set("harness.trace_overhead_pct.qps",
                qps[0] > 0 ? 100.0 * (qps[0] - qps[1]) / qps[0] : 0.0, "%");
    ProbeCore(db, classes, stream, options.seconds * 0.25, &trace, report);
    ProbeLists(db, options.seed, options.seconds * 0.1, &trace, report);
    ProbeTracker(db.num_items(), options.seed, options.seconds * 0.05, &trace,
                 report);
    EmitAbsentLayers(/*serve=*/true, /*dist=*/false, report);
    if (!options.trace_path.empty() && !trace.Write(options.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
      return 1;
    }
  }
  server.reset();
  report->Set("peak_rss_mb", PeakRssMb(), "MiB");
  return 0;
}

}  // namespace perfbench
