// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// perfbench: the repository's end-to-end and per-layer benchmark. One binary
// runs three workloads through the public entry points of the `server`,
// `core`, `lists`, `tracker` and `dist` layers, checks every answer against
// the Naive oracle, and prints one JSON object of metrics. `run.py` next to
// this directory builds it, prepares the seeded inputs in a separate process
// and selects the metrics BENCHMARK.json names. WORKLOADS.md records why each
// workload and metric exists.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/topk_algorithm.h"
#include "core/topk_result.h"

namespace perfbench {

using topk::AlgorithmKind;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// --- workloads ---

/// One distinct query of a workload's request stream: an algorithm and a k,
/// always scored by summation. For dist-replicated, kBpa/kTput name the
/// coordinator's ExecuteBpa/ExecuteTput.
struct QueryClass {
  AlgorithmKind kind;
  size_t k;
};

/// A workload's fixed shape. The seed given on the command line fixes the
/// database, the request stream, the arrival times and the fault plan.
struct WorkloadSpec {
  std::string name;
  size_t n = 0;
  size_t m = 5;
  /// Open-loop Poisson arrival rate; 0 means a closed loop.
  double rate_qps = 0.0;
  /// Deadline armed on every open-loop request (never meant to trip).
  double deadline_ms = 0.0;
  /// Stream mix: each algorithm appears `weight` times per k in one shuffled
  /// block, so every block holds the mix in exact proportion.
  std::vector<std::pair<AlgorithmKind, int>> mix;
  /// Set-up repetitions per run; setup_s reports their median.
  int setups = 3;
};

/// The k values every workload draws from.
inline constexpr size_t kKs[] = {10, 20, 50};

/// Looks up a workload; `small` shrinks n for the benchmark's own tests.
bool FindWorkload(const std::string& name, bool small, WorkloadSpec* spec);

/// The distinct query classes of `spec`, in a stable order.
std::vector<QueryClass> Classes(const WorkloadSpec& spec);

/// The request stream: class indexes into Classes(spec), `length` long,
/// built from seeded, shuffled blocks that each hold the mix exactly.
std::vector<uint8_t> MakeStream(const WorkloadSpec& spec, uint64_t seed,
                                size_t length);

/// Poisson arrival offsets (ns from phase start) over `seconds`.
std::vector<int64_t> MakeArrivals(double rate_qps, double seconds,
                                  uint64_t seed);

/// Independent sub-seeds derived from the command-line seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

// --- oracle ---

/// Naive answers, one per k, written by `perfbench prepare`.
using Oracle = std::map<size_t, std::vector<topk::ResultItem>>;

bool WriteOracle(const std::string& path, const Oracle& oracle);
bool ReadOracle(const std::string& path, Oracle* oracle);

/// True when `result` is an exact answer whose items match the oracle in
/// order and whose scores are within 1e-9.
bool MatchesOracle(const Oracle& oracle, size_t k,
                   const topk::TopKResult& result);

// --- measurement helpers ---

/// Linear-interpolated percentile of a sorted sample; 0 when empty.
double Percentile(const std::vector<double>& sorted, double p);

/// Sorts `values` in place and returns its p-th percentile.
double SortedPercentile(std::vector<double>* values, double p);

/// The gated latency and throughput of a run, measured so that host
/// contention moves them as little as possible. On a shared guest the host
/// slows whole seconds at a time (every request of the second is slower, or
/// a descheduled vCPU delays a burst of them) and only ever makes the
/// program look slower. Requests are grouped into one-second windows by
/// their start time, windows are ranked by their own p95, and p50/p95 are
/// taken over the pooled requests of the best third. Throughput is the
/// upper quartile of the per-second completion counts. The run's plain
/// percentiles stay visible as diagnostics.
struct QuietThird {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double qps = 0.0;
  size_t windows = 0;  // windows with enough requests to rank
  size_t kept = 0;     // windows pooled
};

/// `samples` holds (start time, latency ms) per request; `per_second` the
/// completions of each whole second of the throughput measurement.
QuietThird MeasureQuietThird(
    const std::vector<std::pair<int64_t, double>>& samples, int64_t start_ns,
    std::vector<double> per_second);

/// The highest percentile that still has at least ten samples beyond it
/// (1 - 10/N); 0 when the sample has fewer than 20 values.
double TailRank(size_t samples);

/// A busy-waiting clock watcher for the arrival generator (a sleeping
/// generator on a shared guest wakes milliseconds late). Every gap of more
/// than 100 µs between two consecutive clock reads means the thread lost
/// its vCPU; the sum of those gaps over the watched span is the stall share.
class SpinMonitor {
 public:
  void Start() { first_ns_ = last_ns_ = NowNs(); }

  /// Spins until `deadline_ns`; returns the clock value that ended the wait.
  int64_t WaitUntil(int64_t deadline_ns) {
    int64_t now = Observe();
    while (now < deadline_ns) {
      now = Observe();
    }
    return now;
  }

  int64_t Observe() {
    const int64_t now = NowNs();
    if (now - last_ns_ > kStallNs) {
      stall_ns_ += now - last_ns_;
    }
    last_ns_ = now;
    return now;
  }

  double stall_share() const {
    return last_ns_ > first_ns_ ? static_cast<double>(stall_ns_) /
                                      static_cast<double>(last_ns_ - first_ns_)
                                : 0.0;
  }

 private:
  static constexpr int64_t kStallNs = 100'000;
  int64_t first_ns_ = 0;
  int64_t last_ns_ = 0;
  int64_t stall_ns_ = 0;
};

// --- trace ---

/// One span of the traced run. Spans of one request share `request`.
struct Span {
  const char* name;
  uint32_t id;
  uint32_t parent;  // 0 = root
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
};

/// Spans kept in memory during the traced run and written when it ends.
class Trace {
 public:
  bool enabled() const { return enabled_; }
  void Enable() { enabled_ = true; }

  uint32_t Add(const char* name, uint32_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns) {
    spans_.push_back(
        Span{name, static_cast<uint32_t>(spans_.size() + 1), parent, request,
             start_ns, end_ns});
    return spans_.back().id;
  }

  /// Closes a span opened with its end unknown.
  void SetEnd(uint32_t id, int64_t end_ns) { spans_[id - 1].end_ns = end_ns; }

  /// Self time of every span (duration minus the union of its children),
  /// summed and counted per span name.
  struct SelfTime {
    double total_ms = 0.0;
    uint64_t spans = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;

  /// Writes one JSON object per span, then the self-time table.
  bool Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// --- report ---

/// Everything one run measured. `metrics` maps a metric name to its value
/// and unit; `counts` holds the deterministic counts the determinism guard
/// compares across runs of one seed, at full precision.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t exact = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> counts;

  void Set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
};

/// Median set-up spans of one run (seconds).
struct SetupTimes {
  std::vector<double> load_s, start_s, warmup_s, total_s;
  void Emit(Report* report);
};

/// Run-wide options from the command line.
struct RunOptions {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string data_dir;
  std::string trace_path;
};

int RunServe(const RunOptions& options, Report* report);
int RunDist(const RunOptions& options, Report* report);

/// Per-layer probes of the traced run over the workload's own database.
void ProbeCore(const topk::Database& db, const std::vector<QueryClass>& classes,
               const std::vector<uint8_t>& stream, double seconds, Trace* trace,
               Report* report);
void ProbeLists(const topk::Database& db, uint64_t seed, double seconds,
                Trace* trace, Report* report);
void ProbeTracker(size_t n, uint64_t seed, double seconds, Trace* trace,
                  Report* report);

/// Emits every per-layer metric of a layer the workload does not run as 0,
/// so each traced run reports the same names.
void EmitAbsentLayers(bool serve, bool dist, Report* report);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
