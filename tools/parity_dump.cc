// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// parity_dump: prints one line per (algorithm, workload) with the stop
// position, access counts and the exact result sequence of the candidate-pool
// algorithms (NRA, CA, TPUT). The output is a behavioural fingerprint: perf
// work on the pool family must leave every line byte-identical (same stop
// rules, same access pattern, same deterministic results). Diff the output of
// two builds to certify parity:
//
//   ./build/parity_dump > before.txt
//   ... optimize ...
//   ./build/parity_dump > after.txt && diff before.txt after.txt
//
// The default workload grid covers the paper fixtures (Figures 1 and 2), the
// three generator families (uniform, gaussian, correlated) across n/m/k/seed,
// the tie-quantized variants the differential fuzz harness uses, and
// min-scoring (the non-summation code path of NRA/CA).
//
// Passing any of the scenario flags switches to a single ad-hoc workload
// instead of the grid — spot-check parity at sizes the grid cannot afford
// (e.g. the DRAM-resident regime) without editing the binary:
//
//   ./build/parity_dump --n=1000000 --dist=zipf --k=20 > big_before.txt
//
// Flags: --n=<items> (default 1000), --m=<lists> (5), --k=<answers> (20),
// --dist={uniform,gaussian,correlated,zipf} (uniform), --seed=<rng> (1).
// Ad-hoc workloads dump summation scoring only (the min-scorer fallback
// sweeps the whole pool per stop check — prohibitive at large n).
//
// --algos=<csv of nra,ca,tput,bpa,ta,dbpa,dtput,fa,bpa2,naive> restricts which
// algorithms are dumped — an ad-hoc DRAM-scale fingerprint of one algorithm
// under test need not pay for the other deep scanners (CA alone at n=1M
// costs seconds; all three cost tens). It composes with either mode and does
// not by itself select ad-hoc mode: with no flags at all the full grid over
// the default three (nra, ca, tput) is dumped byte-identically to previous
// builds.
//
// dbpa/dtput run distributed BPA/TPUT through a Coordinator over per-list
// in-process ListOwner shards; bpa is single-node BPA with seen-item
// memoization (the access-count twin of dbpa's batched lookups), and ta is
// single-node TA, which runs on BPA's loop. The distributed engines'
// fingerprints match their single-node counterparts field for field, so
// the certification diff is just a name rewrite:
//
//   ./build/parity_dump --algos=dbpa | sed s/dBPA/BPA/ |
//       diff <(./build/parity_dump --algos=bpa) -
//   ./build/parity_dump --algos=dtput | sed s/dTPUT/TPUT/ |
//       diff <(./build/parity_dump --algos=tput) -
//
// (Only min-scorer TPUT lines differ: both engines reject non-summation
// scoring with the same words, each naming itself in the message.)
//
// --replicas=<R> (default 1) serves every list from R in-process owner
// replicas with Coordinator replication to match. Fault-free replicated runs
// never leave replica 0, so the dump is byte-identical to --replicas=1 —
// diffing certifies the replication layer is invisible when healthy:
//
//   ./build/parity_dump --algos=dbpa,dtput --replicas=2 |
//       diff <(./build/parity_dump --algos=dbpa,dtput) -
//
// --window-rows=<w> (default 64) sets the distributed engines' window size:
// rows per sorted window, and with it the rows whose random reads dBPA
// sends in one lookup message per list. Answers and access counts do not
// depend on it, so the certification diffs above hold at any w; w = 1 makes
// every row its own span, and w = 7 ends spans off the default's 64-row
// boundaries:
//
//   ./build/parity_dump --algos=dbpa --window-rows=7 | sed s/dBPA/BPA/ |
//       diff <(./build/parity_dump --algos=bpa) -
//
// --governor=off|<spec> arms the query governor for every dumped execution.
// `off` (the default) keeps the historical byte-identical output. A <spec>
// is comma-separated key=value pairs over deadline-ms, sorted, random,
// total (access budgets) and pool-bytes, e.g.
// `--governor=total=5000,pool-bytes=65536`; governed lines append the
// completion and theta so anytime fingerprints are diffable too. Like
// --algos it composes with either mode without selecting ad-hoc mode.
//
// fa, bpa2 and naive are the single-node FA, BPA2 and Naive. Two more flags
// fingerprint the audit and fault flavours of the local read path; like
// --governor they compose with either mode and apply to the single-node
// entries only (the distributed ones have a transport fault model instead):
//
//  * --audit runs with audit_accesses and appends each list's maximum touch
//    count (`touches=a,b,...`);
//  * --faults=<spec> arms a fault plan and appends the dead lists, the
//    absorbed retries and whether the run failed over to NRA. A <spec> is
//    comma-separated key=value pairs over seed, transient and spike (rates),
//    death (rate), death-min and death-max (the death window), kill (a list)
//    and kill-after (its accesses), e.g. `--faults=kill=1,kill-after=40`.
//
// Audit and absorbed faults (transient and spike only) change no read, so
// once the appended fields are stripped their dumps equal the plain one:
//
//   ./build/parity_dump --algos=bpa2 --faults=transient=0.2,spike=0.1 |
//       sed 's/ dead=.* items=/ items=/' |
//       diff <(./build/parity_dump --algos=bpa2) -

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flag_parse.h"
#include "common/macros.h"
#include "common/rng.h"
#include "core/algorithms.h"
#include "core/candidate_bounds.h"
#include "core/query_governor.h"
#include "dist/coordinator.h"
#include "dist/in_process_transport.h"
#include "gen/database_generator.h"
#include "lists/fault_injection.h"
#include "gen/paper_fixtures.h"
#include "lists/scorer.h"

namespace topk {
namespace {

// One dumpable engine: a single-node algorithm, or a distributed one run
// through a Coordinator over per-list in-process ListOwner shards. The
// single-node bpa entry memoizes seen items so its access counts are the
// exact twin of dbpa's batched resolution.
struct DumpAlgo {
  const char* token;   // --algos flag token
  const char* label;   // printed fingerprint name (historical bytes)
  AlgorithmKind kind;  // single-node engine, or the dist entry's twin
  bool dist;
};

constexpr DumpAlgo kDumpAlgos[] = {
    {"nra", "NRA", AlgorithmKind::kNra, false},
    {"ca", "CA", AlgorithmKind::kCa, false},
    {"tput", "TPUT", AlgorithmKind::kTput, false},
    {"bpa", "BPA", AlgorithmKind::kBpa, false},
    {"ta", "TA", AlgorithmKind::kTa, false},
    {"dbpa", "dBPA", AlgorithmKind::kBpa, true},
    {"dtput", "dTPUT", AlgorithmKind::kTput, true},
    {"fa", "FA", AlgorithmKind::kFa, false},
    {"bpa2", "BPA2", AlgorithmKind::kBpa2, false},
    {"naive", "Naive", AlgorithmKind::kNaive, false},
};

// The engines in fingerprint order; --algos restricts the dump to a subset
// (defaults to the historical pool-family three, which reproduces the
// historical output byte-for-byte).
std::vector<const DumpAlgo*> g_algos = {&kDumpAlgos[0], &kDumpAlgos[1],
                                        &kDumpAlgos[2]};

// Governor limits applied to every dumped execution; default-constructed
// (everything unlimited) reproduces the historical output byte-for-byte.
GovernorLimits g_governor;

// Owner replicas per list for the distributed engines (--replicas). 1 is
// the unreplicated PR 8 topology; fault-free dumps are byte-identical at
// any value.
size_t g_replicas = 1;

// Rows per window of the distributed engines (--window-rows).
uint32_t g_window_rows = DistOptions{}.window_rows;

// Audit mode (--audit) and the fault plan (--faults) of the single-node
// entries; off by default.
bool g_audit = false;
FaultPlan g_faults;

// Splits a comma-separated key=value spec, calling parse(key, value) on each
// pair; false on a pair without '=' or one parse rejects.
template <typename ParsePair>
bool ParseSpec(const std::string& spec, const ParsePair& parse) {
  size_t begin = 0;
  while (begin <= spec.size()) {
    const size_t comma = std::min(spec.find(',', begin), spec.size());
    const std::string pair = spec.substr(begin, comma - begin);
    const size_t eq = pair.find('=');
    if (eq == std::string::npos ||
        !parse(pair.substr(0, eq), pair.c_str() + eq + 1)) {
      return false;
    }
    begin = comma + 1;
  }
  return true;
}

// Parses a --governor value: "off" or comma-separated key=value pairs
// (deadline-ms, sorted, random, total, pool-bytes).
bool ParseGovernor(const std::string& spec) {
  if (spec == "off") {
    g_governor = GovernorLimits{};
    return true;
  }
  const auto parse = [](const std::string& key, const char* value) {
    if (key == "deadline-ms") {
      return ParseFlagDouble(value, &g_governor.deadline_ms);
    }
    if (key == "sorted") {
      return ParseFlagU64(value, &g_governor.sorted_access_budget);
    }
    if (key == "random") {
      return ParseFlagU64(value, &g_governor.random_access_budget);
    }
    if (key == "total") {
      return ParseFlagU64(value, &g_governor.total_access_budget);
    }
    if (key == "pool-bytes") {
      return ParseFlagSize(value, &g_governor.pool_byte_budget);
    }
    return false;
  };
  return ParseSpec(spec, parse) && g_governor.enabled();
}

// Parses a --faults value: comma-separated key=value pairs (seed, transient,
// spike, death, death-min, death-max, kill, kill-after). The plan itself is
// validated per run, so an invalid one dumps each engine's rejection.
bool ParseFaults(const std::string& spec) {
  const auto parse = [](const std::string& key, const char* value) {
    if (key == "seed") {
      return ParseFlagU64(value, &g_faults.seed);
    }
    if (key == "transient") {
      return ParseFlagDouble(value, &g_faults.transient_rate);
    }
    if (key == "spike") {
      return ParseFlagDouble(value, &g_faults.spike_rate);
    }
    if (key == "death") {
      return ParseFlagDouble(value, &g_faults.death_rate);
    }
    if (key == "death-min") {
      return ParseFlagU64(value, &g_faults.death_min_accesses);
    }
    if (key == "death-max") {
      return ParseFlagU64(value, &g_faults.death_max_accesses);
    }
    if (key == "kill") {
      return ParseFlagSize(value, &g_faults.kill_list);
    }
    if (key == "kill-after") {
      return ParseFlagU64(value, &g_faults.kill_after_accesses);
    }
    return false;
  };
  return ParseSpec(spec, parse) && g_faults.enabled();
}

// Parses a comma-separated --algos value ("nra,ca", case-sensitive short
// names) into g_algos, keeping fingerprint order and dropping duplicates.
bool ParseAlgos(const std::string& csv) {
  std::vector<const DumpAlgo*> selected;
  size_t begin = 0;
  while (begin <= csv.size()) {
    const size_t comma = std::min(csv.find(',', begin), csv.size());
    const std::string name = csv.substr(begin, comma - begin);
    const DumpAlgo* algo = nullptr;
    for (const DumpAlgo& candidate : kDumpAlgos) {
      if (name == candidate.token) {
        algo = &candidate;
        break;
      }
    }
    if (algo == nullptr) {
      return false;
    }
    if (std::find(selected.begin(), selected.end(), algo) == selected.end()) {
      selected.push_back(algo);
    }
    begin = comma + 1;
  }
  // Fingerprint order is fixed (kDumpAlgos order) regardless of flag order
  // so two dumps of the same subset always diff cleanly.
  std::vector<const DumpAlgo*> ordered;
  for (const DumpAlgo& candidate : kDumpAlgos) {
    if (std::find(selected.begin(), selected.end(), &candidate) !=
        selected.end()) {
      ordered.push_back(&candidate);
    }
  }
  if (ordered.empty()) {
    return false;
  }
  g_algos = ordered;
  return true;
}

// Quantizes every score to multiples of 1/levels so ties are everywhere
// (mirrors the fuzz harness's ties mode, including the inexact levels = 3).
Database Quantize(const Database& db, double levels) {
  std::vector<std::vector<Score>> scores(db.num_items(),
                                         std::vector<Score>(db.num_lists()));
  for (ItemId item = 0; item < db.num_items(); ++item) {
    for (size_t i = 0; i < db.num_lists(); ++i) {
      scores[item][i] = std::round(db.ItemScoresRow(item)[i] * levels) / levels;
    }
  }
  return Database::FromScoreMatrix(scores).ValueOrDie();
}

// Runs one distributed execution: a Coordinator over one in-process
// ListOwner per list (the finest sharding, so every list's windows and
// lookups are separate messages).
Result<TopKResult> RunDist(AlgorithmKind kind, const Database& db, size_t k,
                           const Scorer& scorer) {
  InProcessTransport transport =
      InProcessTransport::PerListOwners(db, g_replicas);
  DistOptions options;
  options.governor = g_governor;
  options.replication_factor = static_cast<uint32_t>(g_replicas);
  options.window_rows = g_window_rows;
  Coordinator coordinator(&transport, options);
  TOPK_RETURN_NOT_OK(coordinator.Connect());
  const TopKQuery query{k, &scorer};
  return kind == AlgorithmKind::kBpa ? coordinator.ExecuteBpa(query)
                                     : coordinator.ExecuteTput(query);
}

void DumpOne(const char* workload, const Database& db, size_t k,
             const Scorer& scorer) {
  AlgorithmOptions options;
  options.score_floor = DeriveScoreFloor(db);
  options.governor = g_governor;
  options.audit_accesses = g_audit;
  options.fault_plan = g_faults;
  for (const DumpAlgo* algo : g_algos) {
    AlgorithmOptions run_options = options;
    // Single-node BPA's access-count twin of the distributed rows (dbpa
    // resolves each item once; so does memoized BPA).
    run_options.memoize_seen_items = algo->kind == AlgorithmKind::kBpa;
    const auto result =
        algo->dist
            ? RunDist(algo->kind, db, k, scorer)
            : MakeAlgorithm(algo->kind, run_options)
                  ->Execute(db, TopKQuery{k, &scorer});
    if (!result.ok()) {
      std::printf("%s k=%zu f=%s %s: %s\n", workload, k,
                  scorer.name().c_str(), algo->label,
                  result.status().ToString().c_str());
      continue;
    }
    const TopKResult& r = result.ValueOrDie();
    std::string items;
    char buf[96];
    for (const ResultItem& item : r.items) {
      std::snprintf(buf, sizeof(buf), " %u:%.17g", item.item, item.score);
      items += buf;
    }
    // Governed lines append the completion + certificate; with the governor
    // off the format (and so the whole dump) stays byte-identical to the
    // historical fingerprint.
    std::string appended;
    if (g_governor.enabled()) {
      std::snprintf(buf, sizeof(buf), " completion=%s theta=%.17g",
                    ToString(r.completion), r.theta);
      appended = buf;
    }
    // Audited and faulted lines append their fields the same way.
    if (g_audit && !algo->dist) {
      appended += " touches=";
      for (size_t i = 0; i < r.max_touches_per_list.size(); ++i) {
        appended += (i == 0 ? "" : ",") +
                    std::to_string(r.max_touches_per_list[i]);
      }
    }
    if (g_faults.enabled() && !algo->dist) {
      std::snprintf(buf, sizeof(buf), " dead=%u retries=%llu failed_over=%d",
                    r.dead_lists,
                    static_cast<unsigned long long>(r.fault_retries),
                    r.failed_over ? 1 : 0);
      appended += buf;
    }
    std::printf(
        "%s k=%zu f=%s %s: stop=%u as=%llu ar=%llu ad=%llu%s items=%s\n",
        workload, k, scorer.name().c_str(), algo->label, r.stop_position,
        static_cast<unsigned long long>(r.stats.sorted_accesses),
        static_cast<unsigned long long>(r.stats.random_accesses),
        static_cast<unsigned long long>(r.stats.direct_accesses),
        appended.c_str(), items.c_str());
  }
}

void DumpGrid() {
  SumScorer sum;
  MinScorer min;

  for (size_t k : {1, 2, 3, 8, 14}) {
    DumpOne("fig1", MakeFigure1Database(), k, sum);
    DumpOne("fig2", MakeFigure2Database(), k, sum);
    DumpOne("fig1", MakeFigure1Database(), k, min);
  }

  char label[128];
  for (const size_t n : {50, 200, 1000}) {
    for (const size_t m : {1, 2, 5}) {
      for (uint64_t seed = 1; seed <= 4; ++seed) {
        for (const size_t k : {size_t{1}, size_t{5}, n / 2, n}) {
          if (k == 0 || k > n) {
            continue;
          }
          {
            const Database db = MakeUniformDatabase(n, m, seed);
            std::snprintf(label, sizeof(label), "uniform n=%zu m=%zu s=%llu",
                          n, m, static_cast<unsigned long long>(seed));
            DumpOne(label, db, k, sum);
            std::snprintf(label, sizeof(label),
                          "uniform-q3 n=%zu m=%zu s=%llu", n, m,
                          static_cast<unsigned long long>(seed));
            DumpOne(label, Quantize(db, 3.0), k, sum);
            std::snprintf(label, sizeof(label),
                          "uniform-q4 n=%zu m=%zu s=%llu", n, m,
                          static_cast<unsigned long long>(seed));
            DumpOne(label, Quantize(db, 4.0), k, sum);
          }
          {
            const Database db = MakeGaussianDatabase(n, m, seed);
            std::snprintf(label, sizeof(label), "gaussian n=%zu m=%zu s=%llu",
                          n, m, static_cast<unsigned long long>(seed));
            DumpOne(label, db, k, sum);
            std::snprintf(label, sizeof(label),
                          "gaussian-q3 n=%zu m=%zu s=%llu", n, m,
                          static_cast<unsigned long long>(seed));
            DumpOne(label, Quantize(db, 3.0), k, sum);
          }
          {
            CorrelatedConfig config;
            config.n = n;
            config.m = m;
            config.alpha = 0.01;
            config.seed = seed;
            const Database db = MakeCorrelatedDatabase(config).ValueOrDie();
            std::snprintf(label, sizeof(label),
                          "correlated n=%zu m=%zu s=%llu", n, m,
                          static_cast<unsigned long long>(seed));
            DumpOne(label, db, k, sum);
          }
        }
      }
    }
  }

  // Non-summation scoring exercises the generic-scorer stop path.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Database db = MakeUniformDatabase(300, 3, seed);
    std::snprintf(label, sizeof(label), "uniform-min n=300 m=3 s=%llu",
                  static_cast<unsigned long long>(seed));
    DumpOne(label, db, 7, min);
  }

  // The bench_micro throughput workload itself.
  DumpOne("bench uniform n=10000 m=5 s=11", MakeUniformDatabase(10000, 5, 11),
          20, sum);
}

// One ad-hoc workload from the scenario flags (see the file comment).
struct AdhocConfig {
  size_t n = 1000;
  size_t m = 5;
  size_t k = 20;
  std::string dist = "uniform";
  uint64_t seed = 1;
};

int DumpAdhoc(const AdhocConfig& config) {
  if (config.n == 0 || config.m == 0 || config.k == 0 ||
      config.k > config.n) {
    std::fprintf(stderr, "invalid workload: n=%zu m=%zu k=%zu\n", config.n,
                 config.m, config.k);
    return 1;
  }
  DatabaseKind kind = DatabaseKind::kUniform;
  ParseDatabaseKind(config.dist, &kind);  // validated during flag parsing
  const Database db =
      MakeDatabaseOfKind(kind, config.n, config.m, config.seed);
  char label[128];
  std::snprintf(label, sizeof(label), "adhoc %s n=%zu m=%zu s=%llu",
                config.dist.c_str(), config.n, config.m,
                static_cast<unsigned long long>(config.seed));
  SumScorer sum;
  DumpOne(label, db, config.k, sum);
  return 0;
}

}  // namespace
}  // namespace topk

int main(int argc, char** argv) {
  topk::AdhocConfig config;
  bool adhoc = false;
  bool ok = true;
  // Shared CLI flag helpers (see common/flag_parse.h): same flag shapes and
  // strict numeric parses as bench_micro.
  const auto value_of = [&](const std::string& arg, const char* name,
                            int* i) -> const char* {
    return topk::FlagValue(arg, name, i, argc, argv);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const char* v = value_of(arg, "--algos", &i)) {
      // Restricts which algorithms are dumped; does not by itself select
      // ad-hoc mode (a filtered full-grid dump is legal).
      ok &= topk::ParseAlgos(v);
      continue;
    }
    if (const char* v = value_of(arg, "--governor", &i)) {
      // Governs every dumped execution; a governed full-grid dump is legal.
      ok &= topk::ParseGovernor(v);
      continue;
    }
    if (arg == "--audit") {
      // Audits every single-node execution; an audited full-grid dump is
      // legal.
      topk::g_audit = true;
      continue;
    }
    if (const char* v = value_of(arg, "--faults", &i)) {
      // Arms a fault plan for every single-node execution; like --governor
      // it does not select ad-hoc mode.
      ok &= topk::ParseFaults(v);
      continue;
    }
    if (const char* v = value_of(arg, "--replicas", &i)) {
      // Replicates the distributed engines' owners; a replicated full-grid
      // dump is legal (and byte-identical — that is the point).
      ok &= topk::ParseFlagSize(v, &topk::g_replicas) && topk::g_replicas >= 1;
      continue;
    }
    if (const char* v = value_of(arg, "--window-rows", &i)) {
      // Resizes the distributed engines' windows and lookup spans; like
      // --replicas it leaves every fingerprint unchanged.
      uint64_t rows = 0;
      ok &= topk::ParseFlagU64(v, &rows) && rows >= 1 && rows <= UINT32_MAX;
      topk::g_window_rows = static_cast<uint32_t>(rows);
      continue;
    }
    if (const char* v = value_of(arg, "--n", &i)) {
      ok &= topk::ParseFlagSize(v, &config.n);
    } else if (const char* v = value_of(arg, "--m", &i)) {
      ok &= topk::ParseFlagSize(v, &config.m);
    } else if (const char* v = value_of(arg, "--k", &i)) {
      ok &= topk::ParseFlagSize(v, &config.k);
    } else if (const char* v = value_of(arg, "--seed", &i)) {
      ok &= topk::ParseFlagU64(v, &config.seed);
    } else if (const char* v = value_of(arg, "--dist", &i)) {
      config.dist = v;
      topk::DatabaseKind parsed;
      ok &= topk::ParseDatabaseKind(config.dist, &parsed);
    } else {
      ok = false;
    }
    adhoc = true;  // any workload argument selects (or fails toward) ad-hoc
  }
  if (!ok) {
    // A typo must not silently fingerprint a different workload.
    std::fprintf(stderr,
                 "usage: parity_dump [--n=<items>] [--m=<lists>]"
                 " [--k=<answers>] [--seed=<rng>]"
                 " [--dist={uniform,gaussian,correlated,zipf}]"
                 " [--algos=<csv of nra,ca,tput,bpa,ta,dbpa,dtput,fa,bpa2,"
                 "naive>]"
                 " [--governor=off|<key=value,...>] [--replicas=<R>]"
                 " [--window-rows=<w>] [--audit] [--faults=<key=value,...>]\n"
                 "governor keys: deadline-ms sorted random total pool-bytes\n"
                 "fault keys: seed transient spike death death-min death-max"
                 " kill kill-after\n"
                 "with no workload flags, dumps the built-in grid\n");
    return 1;
  }
  if (adhoc) {
    return topk::DumpAdhoc(config);
  }
  topk::DumpGrid();
  return 0;
}
