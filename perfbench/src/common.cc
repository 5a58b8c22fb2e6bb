// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Workload table, seeded streams, oracle files, percentiles and the span
// trace shared by the serve and dist workloads.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

using topk::Rng;
using topk::SplitMix64;

bool FindWorkload(const std::string& name, bool small, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "serve-hot") {
    // ~2 MB of lists plus mirror: fits one core's L2. 800 q/s is about a
    // fifth of the two-worker capacity. 50% BPA, 20% TA, 20% BPA2 and 10%
    // NRA/CA/TPUT put p50 inside the BPA band of the light mode (TA and
    // BPA2 are faster; at 25/25/40 the median fell on the BPA2/BPA edge and
    // jumped between them) and p95 in the middle of the pool mode.
    s.n = small ? 2000 : 10000;
    s.rate_qps = 800.0;
    s.deadline_ms = 1000.0;
    s.mix = {{AlgorithmKind::kBpa, 15}, {AlgorithmKind::kTa, 6},
             {AlgorithmKind::kBpa2, 6}, {AlgorithmKind::kNra, 1},
             {AlgorithmKind::kCa, 1},   {AlgorithmKind::kTput, 1}};
    s.setups = 9;
  } else if (name == "serve-dram") {
    // ~200 MB resident, 25x the L2: time sits in random access to the
    // item-major mirror and in the trackers at n = 1M.
    s.n = small ? 20000 : 1000000;
    s.rate_qps = 30.0;
    s.deadline_ms = 2000.0;
    s.mix = {{AlgorithmKind::kTa, 1},
             {AlgorithmKind::kBpa, 1},
             {AlgorithmKind::kBpa2, 1}};
    s.setups = 3;
  } else if (name == "dist-replicated") {
    // Replicated owners behind a flapping, lossy transport: every query
    // walks the retry -> hedge -> failover ladder and stays exact.
    s.n = small ? 2000 : 20000;
    s.mix = {{AlgorithmKind::kBpa, 1}, {AlgorithmKind::kTput, 1}};
    s.setups = 9;
  } else {
    return false;
  }
  *spec = std::move(s);
  return true;
}

std::vector<QueryClass> Classes(const WorkloadSpec& spec) {
  std::vector<QueryClass> classes;
  for (const auto& [kind, weight] : spec.mix) {
    for (size_t k : kKs) {
      classes.push_back(QueryClass{kind, k});
    }
  }
  return classes;
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + salt);
  mix.Next();
  return mix.Next();
}

std::vector<uint8_t> MakeStream(const WorkloadSpec& spec, uint64_t seed,
                                size_t length) {
  std::vector<uint8_t> block;
  uint8_t index = 0;
  for (const auto& [kind, weight] : spec.mix) {
    for (size_t k_index = 0; k_index < std::size(kKs); ++k_index, ++index) {
      block.insert(block.end(), static_cast<size_t>(weight), index);
    }
  }
  Rng rng(SubSeed(seed, 2));
  std::vector<uint8_t> stream;
  stream.reserve(length + block.size());
  while (stream.size() < length) {
    rng.Shuffle(&block);
    stream.insert(stream.end(), block.begin(), block.end());
  }
  stream.resize(length);
  return stream;
}

std::vector<int64_t> MakeArrivals(double rate_qps, double seconds,
                                  uint64_t seed) {
  Rng rng(SubSeed(seed, 3));
  std::vector<int64_t> arrivals;
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    t += -std::log(std::max(1e-12, 1.0 - rng.NextDouble())) / rate_qps * 1e9;
    if (t >= horizon_ns) break;
    arrivals.push_back(static_cast<int64_t>(t));
  }
  return arrivals;
}

// Oracle file: one line per k, "k item score item score ...", scores in
// hexadecimal floating point so they round-trip exactly.
bool WriteOracle(const std::string& path, const Oracle& oracle) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [k, items] : oracle) {
    std::fprintf(f, "%zu", k);
    for (const topk::ResultItem& item : items) {
      std::fprintf(f, " %u %a", item.item, item.score);
    }
    std::fprintf(f, "\n");
  }
  return std::fclose(f) == 0;
}

bool ReadOracle(const std::string& path, Oracle* oracle) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  size_t k = 0;
  bool ok = true;
  while (ok && std::fscanf(f, "%zu", &k) == 1) {
    std::vector<topk::ResultItem>& items = (*oracle)[k];
    items.resize(k);
    for (topk::ResultItem& item : items) {
      ok = ok && std::fscanf(f, "%u %la", &item.item, &item.score) == 2;
    }
  }
  std::fclose(f);
  return ok && !oracle->empty();
}

bool MatchesOracle(const Oracle& oracle, size_t k,
                   const topk::TopKResult& result) {
  const auto it = oracle.find(k);
  if (it == oracle.end() || result.completion != topk::Completion::kExact ||
      result.items.size() != it->second.size()) {
    return false;
  }
  for (size_t i = 0; i < result.items.size(); ++i) {
    if (result.items[i].item != it->second[i].item ||
        std::abs(result.items[i].score - it->second[i].score) > 1e-9) {
      return false;
    }
  }
  return true;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double SortedPercentile(std::vector<double>* values, double p) {
  std::sort(values->begin(), values->end());
  return Percentile(*values, p);
}

QuietThird MeasureQuietThird(
    const std::vector<std::pair<int64_t, double>>& samples, int64_t start_ns,
    std::vector<double> per_second) {
  constexpr size_t kMinWindowSamples = 8;
  std::vector<std::vector<double>> windows;
  for (const auto& [t, value] : samples) {
    const size_t w = static_cast<size_t>((t - start_ns) / 1'000'000'000);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(value);
  }
  std::vector<std::pair<double, size_t>> ranked;  // (window p95, window)
  for (size_t w = 0; w < windows.size(); ++w) {
    if (windows[w].size() >= kMinWindowSamples) {
      ranked.push_back({SortedPercentile(&windows[w], 0.95), w});
    }
  }
  std::sort(ranked.begin(), ranked.end());
  QuietThird out;
  out.windows = ranked.size();
  out.kept = (ranked.size() + 2) / 3;
  std::vector<double> pooled;
  for (size_t i = 0; i < out.kept; ++i) {
    const std::vector<double>& w = windows[ranked[i].second];
    pooled.insert(pooled.end(), w.begin(), w.end());
  }
  out.p50_ms = SortedPercentile(&pooled, 0.50);
  out.p95_ms = Percentile(pooled, 0.95);
  out.qps = SortedPercentile(&per_second, 0.75);
  std::string p95s, rates;
  for (const auto& [p95, w] : ranked) p95s += " " + std::to_string(p95);
  for (double q : per_second) rates += " " + std::to_string(q);
  std::fprintf(stderr, "window p95 ms (ranked):%s\nper-second q/s:%s\n",
               p95s.c_str(), rates.c_str());
  return out;
}

double TailRank(size_t samples) {
  return samples < 20 ? 0.0 : 1.0 - 10.0 / static_cast<double>(samples);
}

std::map<std::string, Trace::SelfTime> Trace::SelfTimes() const {
  // Children of each span, as [start, end) intervals.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size() + 1);
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].push_back({span.start_ns, span.end_ns});
    }
  }
  std::map<std::string, SelfTime> table;
  for (const Span& span : spans_) {
    auto& kids = children[span.id];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, cursor);
      const int64_t hi = std::min(end, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    SelfTime& row = table[span.name];
    row.total_ms += NsToMs(span.end_ns - span.start_ns - covered);
    ++row.spans;
  }
  return table;
}

bool Trace::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %u, \"parent\": %u, "
                 "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 span.name, span.id, span.parent,
                 static_cast<unsigned long long>(span.request),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  for (const auto& [name, row] : SelfTimes()) {
    std::fprintf(f,
                 "{\"self_time\": \"%s\", \"spans\": %llu, \"total_ms\": "
                 "%.6f}\n",
                 name.c_str(), static_cast<unsigned long long>(row.spans),
                 row.total_ms);
  }
  return std::fclose(f) == 0;
}

void SetupTimes::Emit(Report* report) {
  report->Set("setup.load_s", SortedPercentile(&load_s, 0.5), "s");
  report->Set("setup.start_s", SortedPercentile(&start_s, 0.5), "s");
  report->Set("setup.warmup_s", SortedPercentile(&warmup_s, 0.5), "s");
  report->Set("setup_s", SortedPercentile(&total_s, 0.5), "s");
}

void EmitAbsentLayers(bool serve, bool dist, Report* report) {
  if (!serve) {
    for (const char* name : {"server.overhead_ms.p50", "server.overhead_ms.p95",
                             "server.run_ms.p50", "server.run_ms.p95"}) {
      report->Set(name, 0.0, "ms");
    }
    report->Set("server.busy_share", 0.0, "ratio");
    for (const char* name :
         {"server.shed", "server.expired", "server.deadline_cancelled"}) {
      report->Set(name, 0.0, "count");
    }
  }
  if (!dist) {
    for (const char* name :
         {"dist.BPA.wall_ms.p50", "dist.TPUT.wall_ms.p50",
          "dist.coordinator_self_ms.p50", "dist.owner_ms.p50"}) {
      report->Set(name, 0.0, "ms");
    }
    for (const char* name :
         {"dist.calls.window", "dist.calls.lookup", "dist.calls.drain",
          "dist.calls.probe", "dist.retries", "dist.hedges", "dist.hedge_wins",
          "dist.timeouts", "dist.duplicate_replies", "dist.replica_failovers",
          "dist.breaker_opens", "dist.probes", "dist.messages_per_query"}) {
      report->Set(name, 0.0, "count");
    }
    report->Set("dist.useful_message_share", 0.0, "ratio");
    report->Set("dist.wire_bytes_per_query", 0.0, "B");
    report->Set("dist.rpc_virtual_ms_per_query", 0.0, "virtual_ms");
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench
