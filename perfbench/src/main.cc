// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// perfbench command line.
//
//   perfbench prepare --workload W --seed N --data DIR [--small]
//       Generates the seeded uniform database, writes it with
//       WriteBinaryFile and writes one Naive answer per k. It runs in its
//       own process so that neither the generator nor Naive's n x m score
//       matrix shows in the measured process's peak RSS.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --data DIR
//                 [--small] [--trace-out PATH]
//       Runs the workload and prints one JSON object: attempted, failed,
//       exact, every metric with its unit, and the deterministic counts.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "gen/database_generator.h"
#include "lists/database_io.h"
#include "lists/scorer.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare|run --workload W --seed N --data DIR "
               "[--seconds S] [--trace 0|1] [--small] [--trace-out PATH]\n");
  return 2;
}

int Prepare(const RunOptions& options) {
  const WorkloadSpec& spec = options.spec;
  const topk::Database db = topk::MakeUniformDatabase(
      spec.n, spec.m, SubSeed(options.seed, 1));
  const topk::Status written =
      topk::WriteBinaryFile(db, options.data_dir + "/db.bin");
  if (!written.ok()) {
    std::fprintf(stderr, "WriteBinaryFile: %s\n", written.ToString().c_str());
    return 1;
  }
  const topk::SumScorer scorer;
  const auto naive = topk::MakeAlgorithm(AlgorithmKind::kNaive);
  Oracle oracle;
  for (size_t k : kKs) {
    auto answer = naive->Execute(db, topk::TopKQuery{k, &scorer});
    if (!answer.ok()) {
      std::fprintf(stderr, "Naive: %s\n", answer.status().ToString().c_str());
      return 1;
    }
    oracle[k] = std::move(answer).ValueUnsafe().items;
  }
  if (!WriteOracle(options.data_dir + "/oracle.txt", oracle)) {
    std::fprintf(stderr, "cannot write the oracle\n");
    return 1;
  }
  return 0;
}

bool PrintReport(const Report& report) {
  std::string out = "{\"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"exact\": " + std::to_string(report.exact) +
                    ", \"metrics\": {";
  char number[64];
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.first)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      return false;
    }
    std::snprintf(number, sizeof(number), "%.17g", metric.first);
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           number + ", \"unit\": \"" + metric.second + "\"}";
    first = false;
  }
  out += "}, \"counts\": {";
  first = true;
  for (const auto& [name, value] : report.counts) {
    std::snprintf(number, sizeof(number), "%.17g", value);
    out += std::string(first ? "" : ", ") + "\"" + name + "\": \"" + number +
           "\"";
    first = false;
  }
  out += "}}";
  std::puts(out.c_str());
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  RunOptions options;
  std::string workload;
  bool small = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--small") {
      small = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--data") {
      options.data_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (!FindWorkload(workload, small, &options.spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return Usage();
  }
  if (options.data_dir.empty() || !(options.seconds > 0.0)) return Usage();
  if (command == "prepare") return Prepare(options);
  if (command != "run") return Usage();

  Report report;
  const int status = options.spec.rate_qps > 0.0 ? RunServe(options, &report)
                                                 : RunDist(options, &report);
  if (status != 0) return status;
  return PrintReport(report) ? 0 : 1;
}
