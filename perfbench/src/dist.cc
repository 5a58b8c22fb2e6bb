// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// dist-replicated: one Coordinator with replication_factor = 2 over
// in-process per-list owners, behind a FaultInjectingTransport armed once
// per run. The fault plan drops, delays and duplicates messages and flaps
// replica 0 of lists 0 and 3, so every query walks the retry -> hedge ->
// replica-failover ladder; replica 1 never fails, so no replica group is
// lost and every answer must stay exact.
//
// A single thread runs dBPA/dTPUT back to back (closed loop). A second
// thread spins on the clock the whole time and records how late it wakes
// and how long it is descheduled, so a host stall is visible in the report.
// The traced run puts a timing Transport between the coordinator and the
// fault layer on every other query: the query span minus its transport
// calls is the coordinator's own time.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench.h"
#include "dist/coordinator.h"
#include "dist/fault_injecting_transport.h"
#include "dist/in_process_transport.h"
#include "lists/database_io.h"
#include "lists/scorer.h"

namespace perfbench {
namespace {

using topk::CallResult;
using topk::MessageType;
using topk::Reply;
using topk::Request;
using topk::Status;
using topk::Transport;

constexpr size_t kReplicas = 2;
constexpr size_t kMessageTypes = 5;
// Count metrics average this fixed prefix of the stream, so they repeat
// bit for bit across runs of one seed whatever the run length.
constexpr size_t kCountedQueries = 200;
// Traced queries whose individual transport calls are kept as spans.
constexpr size_t kSpannedQueries = 16;

constexpr const char* kCallNames[kMessageTypes] = {
    "dist.call.hello", "dist.call.window", "dist.call.drain",
    "dist.call.lookup", "dist.call.probe"};

/// Times every Call of the queries it is told to time, and counts calls by
/// message type on all of them.
class TimedTransport final : public Transport {
 public:
  TimedTransport(Transport* inner, Trace* trace)
      : inner_(inner), trace_(trace) {}

  void BeginQuery(bool timed, bool keep_spans, uint32_t parent,
                  uint64_t request) {
    timed_ = timed;
    keep_spans_ = keep_spans;
    parent_ = parent;
    request_ = request;
    call_ns_ = 0;
    std::fill(calls_, calls_ + kMessageTypes, 0);
  }

  size_t num_owners() const override { return inner_->num_owners(); }

  Status Call(size_t owner, const Request& request, Reply* reply,
              CallResult* result) override {
    const size_t type = static_cast<size_t>(request.type);
    ++calls_[type];
    if (!timed_) return inner_->Call(owner, request, reply, result);
    const int64_t start = NowNs();
    Status status = inner_->Call(owner, request, reply, result);
    const int64_t end = NowNs();
    call_ns_ += end - start;
    if (keep_spans_) trace_->Add(kCallNames[type], parent_, request_, start, end);
    return status;
  }

  int64_t call_ns() const { return call_ns_; }
  uint64_t calls(MessageType type) const {
    return calls_[static_cast<size_t>(type)];
  }

 private:
  Transport* inner_;
  Trace* trace_;
  bool timed_ = false;
  bool keep_spans_ = false;
  uint32_t parent_ = 0;
  uint64_t request_ = 0;
  int64_t call_ns_ = 0;
  uint64_t calls_[kMessageTypes] = {};
};

topk::TransportFaultPlan MakeFaultPlan(uint64_t seed, size_t m) {
  topk::TransportFaultPlan plan;
  plan.seed = SubSeed(seed, 4);
  plan.drop_rate = 0.002;
  plan.delay_rate = 0.005;
  plan.delay_ms = 5.0;
  plan.duplicate_rate = 0.01;
  // Replica 0 of lists 0 and 3 dies after 400 served messages and comes
  // back after rejecting 8 calls, again and again.
  plan.kill_owners = {topk::InProcessTransport::OwnerIndex(m, 0, 0),
                      topk::InProcessTransport::OwnerIndex(m, 3, 0)};
  plan.kill_after_messages = 400;
  plan.death_min_messages = 400;
  plan.death_max_messages = 400;
  plan.flap_revive_calls = 8;
  return plan;
}

/// Sums of the DistStats counters over the counted prefix.
struct DistTotals {
  double messages = 0, bytes = 0, virtual_ms = 0, accesses = 0;
  double retries = 0, hedges = 0, hedge_wins = 0, timeouts = 0;
  double duplicates = 0, failovers = 0, breaker_opens = 0, probes = 0;
  double calls[kMessageTypes] = {};

  void Add(const topk::DistStats& s, uint64_t accesses_run,
           const TimedTransport* timed) {
    messages += s.messages_sent;
    bytes += s.bytes_sent + s.bytes_received;
    virtual_ms += s.virtual_ms;
    accesses += accesses_run;
    retries += s.retries;
    hedges += s.hedges;
    hedge_wins += s.hedge_wins;
    timeouts += s.timeouts;
    duplicates += s.duplicate_replies;
    failovers += s.replica_failovers;
    breaker_opens += s.breaker_opens;
    probes += s.probes_sent;
    if (timed != nullptr) {
      for (size_t t = 0; t < kMessageTypes; ++t) {
        calls[t] += timed->calls(static_cast<MessageType>(t));
      }
    }
  }
};

}  // namespace

int RunDist(const RunOptions& options, Report* report) {
  const WorkloadSpec& spec = options.spec;
  Oracle oracle;
  if (!ReadOracle(options.data_dir + "/oracle.txt", &oracle)) {
    std::fprintf(stderr, "cannot read the oracle in %s\n",
                 options.data_dir.c_str());
    return 1;
  }
  const std::vector<QueryClass> classes = Classes(spec);
  const topk::SumScorer scorer;
  Trace trace;
  if (options.trace) trace.Enable();

  topk::DistOptions dist_options;
  dist_options.replication_factor = kReplicas;

  // --- set-up, repeated; the last one serves the measurement ---
  topk::Database db;
  std::unique_ptr<topk::InProcessTransport> owners;
  std::unique_ptr<topk::FaultInjectingTransport> faulty;
  std::unique_ptr<TimedTransport> timed;
  std::unique_ptr<topk::Coordinator> coordinator;
  SetupTimes setup;
  auto execute = [&](const QueryClass& q) {
    const topk::TopKQuery query{q.k, &scorer};
    return q.kind == AlgorithmKind::kBpa ? coordinator->ExecuteBpa(query)
                                         : coordinator->ExecuteTput(query);
  };
  for (int rep = 0; rep < spec.setups; ++rep) {
    coordinator.reset();
    timed.reset();
    faulty.reset();
    owners.reset();
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
    owners = std::make_unique<topk::InProcessTransport>(
        topk::InProcessTransport::PerListOwners(db, kReplicas));
    const topk::TransportFaultPlan plan =
        MakeFaultPlan(options.seed, db.num_lists());
    const Status valid = plan.Validate("perfbench", owners->num_owners());
    if (!valid.ok()) {
      std::fprintf(stderr, "fault plan: %s\n", valid.ToString().c_str());
      return 1;
    }
    faulty = std::make_unique<topk::FaultInjectingTransport>(owners.get(), plan);
    Transport* transport = faulty.get();
    if (options.trace) {
      timed = std::make_unique<TimedTransport>(faulty.get(), &trace);
      transport = timed.get();
    }
    coordinator = std::make_unique<topk::Coordinator>(transport, dist_options);
    const Status connected = coordinator->Connect();
    if (!connected.ok()) {
      std::fprintf(stderr, "Connect: %s\n", connected.ToString().c_str());
      return 1;
    }
    const int64_t t2 = NowNs();
    for (const QueryClass& q : classes) {
      if (!execute(q).ok()) {
        std::fprintf(stderr, "warm-up query failed\n");
        return 1;
      }
    }
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

  // --- measured closed loop, watched by a spinning monitor thread ---
  const double loop_s = options.seconds * (options.trace ? 0.6 : 1.0);
  const std::vector<uint8_t> stream = MakeStream(spec, options.seed, 1u << 16);
  std::atomic<bool> stop{false};
  SpinMonitor monitor;
  std::vector<double> late_ms;
  late_ms.reserve(static_cast<size_t>(loop_s * 1000) + 4096);
  std::thread watcher([&] {
    monitor.Start();
    int64_t tick = NowNs();
    while (!stop.load(std::memory_order_relaxed)) {
      tick += 1'000'000;
      late_ms.push_back(NsToMs(monitor.WaitUntil(tick) - tick));
    }
  });

  std::vector<double> wall_ms[2], engine_ms[2], owner_ms, self_ms;
  std::vector<std::pair<int64_t, double>> timed_ms;  // (start, wall) per query
  double wall_sum_ms[2] = {0, 0};
  DistTotals totals;
  uint64_t queries = 0;
  const int64_t loop_start = NowNs();
  const int64_t loop_end = loop_start + static_cast<int64_t>(loop_s * 1e9);
  size_t spanned = 0;
  for (;; ++queries) {
    if (queries >= kCountedQueries && NowNs() >= loop_end) break;
    const QueryClass& q = classes[stream[queries % stream.size()]];
    const bool traced = options.trace && queries % 2 == 1;
    const bool keep_spans = traced && spanned < kSpannedQueries;
    const int64_t start = NowNs();
    uint32_t root = 0;
    if (timed != nullptr) {
      // The root span's id is reserved before the query so that its call
      // spans can name it as their parent; its interval is set afterwards.
      root = keep_spans ? trace.Add(q.kind == AlgorithmKind::kBpa
                                        ? "dist.query.BPA"
                                        : "dist.query.TPUT",
                                    0, queries + 1, start, start)
                        : 0;
      timed->BeginQuery(traced, keep_spans, root, queries + 1);
    }
    const auto result = execute(q);
    const int64_t end = NowNs();
    const double ms = NsToMs(end - start);
    const size_t side = traced ? 1 : 0;
    wall_ms[side].push_back(ms);
    timed_ms.push_back({start, ms});
    wall_sum_ms[side] += ms;
    engine_ms[q.kind == AlgorithmKind::kBpa ? 0 : 1].push_back(ms);
    if (traced) {
      owner_ms.push_back(NsToMs(timed->call_ns()));
      self_ms.push_back(ms - owner_ms.back());
      if (keep_spans) {
        trace.SetEnd(root, end);
        ++spanned;
      }
    }
    if (result.ok() && MatchesOracle(oracle, q.k, result.ValueUnsafe())) {
      ++report->exact;
    }
    if (queries < kCountedQueries) {
      totals.Add(coordinator->stats(),
                 result.ok() ? result.ValueUnsafe().stats.TotalAccesses() : 0,
                 timed.get());
    }
  }
  const int64_t loop_stop = NowNs();
  stop.store(true);
  watcher.join();

  std::vector<double> qps_windows(
      static_cast<size_t>((loop_stop - loop_start) / 1'000'000'000));
  for (const auto& [start, ms] : timed_ms) {
    const size_t w = static_cast<size_t>(
        (start + static_cast<int64_t>(ms * 1e6) - loop_start) / 1'000'000'000);
    if (w < qps_windows.size()) ++qps_windows[w];
  }
  const QuietThird quiet = MeasureQuietThird(timed_ms, loop_start, qps_windows);
  report->attempted = queries;
  report->failed = queries - report->exact;
  std::vector<double> all_ms = wall_ms[0];
  all_ms.insert(all_ms.end(), wall_ms[1].begin(), wall_ms[1].end());
  const double tail_rank = TailRank(all_ms.size());
  const double per_query = 1.0 / static_cast<double>(kCountedQueries);

  report->Set("latency_p50_ms", quiet.p50_ms, "ms");
  report->Set("latency_p95_ms", quiet.p95_ms, "ms");
  report->Set("throughput_qps", quiet.qps, "1/s");
  report->Set("harness.latency_p50_all_ms", SortedPercentile(&all_ms, 0.50),
              "ms");
  report->Set("harness.latency_p95_all_ms", Percentile(all_ms, 0.95), "ms");
  report->Set("exact_share",
              static_cast<double>(report->exact) /
                  static_cast<double>(std::max<uint64_t>(1, queries)),
              "ratio");
  report->Set("accesses_per_query", totals.accesses * per_query, "count");
  setup.Emit(report);

  report->Set("harness.gen_late_ms.p95", SortedPercentile(&late_ms, 0.95),
              "ms");
  report->Set("harness.gen_late_ms.max", late_ms.empty() ? 0.0 : late_ms.back(),
              "ms");
  report->Set("harness.stall_share", monitor.stall_share(), "ratio");
  report->Set("harness.latency_tail_ms", Percentile(all_ms, tail_rank), "ms");
  report->Set("harness.latency_tail_rank", tail_rank, "ratio");

  report->Set("dist.messages_per_query", totals.messages * per_query, "count");
  report->Set("dist.wire_bytes_per_query", totals.bytes * per_query, "B");
  report->Set("dist.rpc_virtual_ms_per_query", totals.virtual_ms * per_query,
              "virtual_ms");
  report->counts["accesses_per_query"] = totals.accesses * per_query;
  report->counts["dist.messages_per_query"] = totals.messages * per_query;
  report->counts["dist.wire_bytes_per_query"] = totals.bytes * per_query;
  report->counts["dist.rpc_virtual_ms_per_query"] =
      totals.virtual_ms * per_query;

  if (options.trace) {
    report->Set("dist.BPA.wall_ms.p50", SortedPercentile(&engine_ms[0], 0.5),
                "ms");
    report->Set("dist.TPUT.wall_ms.p50", SortedPercentile(&engine_ms[1], 0.5),
                "ms");
    report->Set("dist.coordinator_self_ms.p50",
                SortedPercentile(&self_ms, 0.5), "ms");
    report->Set("dist.owner_ms.p50", SortedPercentile(&owner_ms, 0.5), "ms");
    const std::pair<const char*, MessageType> call_metrics[] = {
        {"dist.calls.window", MessageType::kSortedWindow},
        {"dist.calls.lookup", MessageType::kRandomLookup},
        {"dist.calls.drain", MessageType::kDrain},
        {"dist.calls.probe", MessageType::kProbe}};
    for (const auto& [name, type] : call_metrics) {
      report->Set(name, totals.calls[static_cast<size_t>(type)] * per_query,
                  "count");
    }
    const std::pair<const char*, double> ladder[] = {
        {"dist.retries", totals.retries},
        {"dist.hedges", totals.hedges},
        {"dist.hedge_wins", totals.hedge_wins},
        {"dist.timeouts", totals.timeouts},
        {"dist.duplicate_replies", totals.duplicates},
        {"dist.replica_failovers", totals.failovers},
        {"dist.breaker_opens", totals.breaker_opens},
        {"dist.probes", totals.probes}};
    for (const auto& [name, total] : ladder) {
      report->Set(name, total * per_query, "count");
    }
    report->Set("dist.useful_message_share",
                totals.messages > 0
                    ? 1.0 - (totals.retries + totals.hedges + totals.probes) /
                                totals.messages
                    : 0.0,
                "ratio");
    const double p50_off = SortedPercentile(&wall_ms[0], 0.5);
    const double p50_on = SortedPercentile(&wall_ms[1], 0.5);
    report->Set("harness.trace_overhead_pct.p50",
                p50_off > 0 ? 100.0 * (p50_on - p50_off) / p50_off : 0.0, "%");
    const double qps_off = wall_ms[0].size() / wall_sum_ms[0];
    const double qps_on = wall_ms[1].size() / wall_sum_ms[1];
    report->Set("harness.trace_overhead_pct.qps",
                100.0 * (qps_off - qps_on) / qps_off, "%");
    // The core replay runs the local twins of dBPA/dTPUT on the same data.
    ProbeCore(db, classes, stream, options.seconds * 0.25, &trace, report);
    ProbeLists(db, options.seed, options.seconds * 0.1, &trace, report);
    ProbeTracker(db.num_items(), options.seed, options.seconds * 0.05, &trace,
                 report);
    EmitAbsentLayers(/*serve=*/false, /*dist=*/true, report);
    if (!options.trace_path.empty() && !trace.Write(options.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
      return 1;
    }
  }
  report->Set("peak_rss_mb", PeakRssMb(), "MiB");
  return 0;
}

}  // namespace perfbench
