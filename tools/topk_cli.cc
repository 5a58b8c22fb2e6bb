// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// topk — command-line front end for the library.
//
// Generate a database:
//   topk gen --kind uniform --n 10000 --m 4 --seed 7 --out db.csv
//   topk gen --kind correlated --alpha 0.01 --n 10000 --m 4 --out db.bin
//
// Run a query:
//   topk query --db db.csv --k 10 --algo bpa2 --scorer sum
//   topk query --db db.bin --k 5 --algo ta --scorer weighted
//              --weights 1,2,0.5,1 --verbose
//
// Compare all algorithms on a database:
//   topk compare --db db.csv --k 10
//
// Serve a batch through the multi-threaded TopKServer (smoke test of the
// serving path: admission queue, per-request SLA, watchdog cancellation):
//   topk serve --db db.csv --threads 4 --requests 200 --k 10 --algo bpa
//              [--deadline-ms MS] [--queue CAP] [--shed reject|degrade]

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flag_parse.h"
#include "common/macros.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/algorithms.h"
#include "core/topk_server.h"
#include "dist/coordinator.h"
#include "dist/fault_injecting_transport.h"
#include "dist/in_process_transport.h"
#include "gen/database_generator.h"
#include "lists/database_io.h"
#include "lists/scorer.h"

namespace topk {
namespace cli {
namespace {

int Usage() {
  std::cerr <<
      "usage:\n"
      "  topk gen     --kind uniform|gaussian|correlated --n N --m M\n"
      "               [--alpha A] [--theta T] [--seed S] --out FILE[.csv|.bin]\n"
      "  topk query   --db FILE --k K [--algo ALGO] [--scorer SCORER]\n"
      "               [--weights w1,w2,...] [--verbose]\n"
      "               [--deadline-ms MS] [--access-budget N]\n"
      "               [--fault-seed S] [--kill-list L] [--kill-after N]\n"
      "               [--replicas R [--kill-replica L:R]]\n"
      "  topk compare --db FILE --k K [--scorer SCORER] [--weights ...]\n"
      "  topk serve   --db FILE [--threads N] [--requests R] [--k K]\n"
      "               [--algo ALGO] [--scorer SCORER] [--weights ...]\n"
      "               [--deadline-ms MS] [--queue CAP] [--shed reject|degrade]\n"
      "\n"
      "algos:    naive fa ta bpa bpa2 tput nra ca   (default bpa2)\n"
      "scorers:  sum min max average weighted       (default sum)\n"
      "\n"
      "A command rejects any flag it does not list above. Numeric flags take\n"
      "plain non-negative numbers: no sign, no suffix.\n"
      "\n"
      "--deadline-ms / --access-budget govern the query: on a tripped limit\n"
      "the run stops at the next round boundary and reports an anytime\n"
      "answer with certified lower-bound scores and Fagin's theta factor.\n"
      "\n"
      "--kill-list L kills list L permanently after it serves --kill-after N\n"
      "accesses (default 1); the query fails over to NRA over the survivors\n"
      "and certifies the degraded answer. --fault-seed fixes the injection\n"
      "schedule so a degraded run replays exactly.\n"
      "\n"
      "--replicas R runs the query DISTRIBUTED: every list is served by R\n"
      "in-process owner replicas behind a coordinator (--algo bpa or tput).\n"
      "--kill-replica L:R kills replica R of list L after --kill-after N\n"
      "messages; with replication a sibling replica resumes the cursor\n"
      "exactly, without it the query degrades to a certified answer.\n";
  return 2;
}

using Flags = std::map<std::string, std::string>;

// --weights: comma-separated non-negative weights.
bool ParseWeights(const std::string& csv, std::vector<double>* weights) {
  std::stringstream ss(csv);
  std::string cell;
  double weight = 0.0;
  while (std::getline(ss, cell, ',')) {
    if (!ParseFlagDouble(cell.c_str(), &weight)) {
      return false;
    }
    weights->push_back(weight);
  }
  return true;
}

// --kill-replica: <list>:<replica>.
bool ParseListReplica(const std::string& value, size_t* list,
                      size_t* replica) {
  const size_t colon = value.find(':');
  return colon != std::string::npos &&
         ParseFlagSize(value.substr(0, colon).c_str(), list) &&
         ParseFlagSize(value.substr(colon + 1).c_str(), replica);
}

// Whether `value` is a well-formed value of `flag`, parsed strictly
// (common/flag_parse.h: no sign, no suffix, no overflow). ParseArgs checks
// every flag given, so a malformed number is a usage error naming the flag,
// never a silently different query; the commands then read checked values.
bool WellFormed(const std::string& flag, const std::string& value) {
  static const std::set<std::string> kSizes = {
      "n", "m", "k", "replicas", "kill-list", "requests", "threads", "queue"};
  static const std::set<std::string> kU64s = {"seed", "fault-seed",
                                              "kill-after", "access-budget"};
  static const std::set<std::string> kDoubles = {"alpha", "theta",
                                                 "deadline-ms"};
  size_t size = 0;
  uint64_t u64 = 0;
  double real = 0.0;
  std::vector<double> weights;
  if (kSizes.count(flag)) {
    return ParseFlagSize(value.c_str(), &size);
  }
  if (kU64s.count(flag)) {
    return ParseFlagU64(value.c_str(), &u64);
  }
  if (kDoubles.count(flag)) {
    return ParseFlagDouble(value.c_str(), &real);
  }
  if (flag == "weights") {
    return ParseWeights(value, &weights);
  }
  return flag != "kill-replica" || ParseListReplica(value, &size, &size);
}

// The flags `command` reads, or null for an unknown command.
const std::set<std::string>* CommandFlags(const std::string& command) {
  static const std::map<std::string, std::set<std::string>> kFlags = {
      {"gen", {"kind", "n", "m", "alpha", "theta", "seed", "out"}},
      {"query",
       {"db", "k", "algo", "scorer", "weights", "verbose", "deadline-ms",
        "access-budget", "fault-seed", "kill-list", "kill-after", "replicas",
        "kill-replica"}},
      {"compare", {"db", "k", "scorer", "weights"}},
      {"serve",
       {"db", "threads", "requests", "k", "algo", "scorer", "weights",
        "deadline-ms", "queue", "shed"}},
  };
  const auto it = kFlags.find(command == "--serve" ? "serve" : command);
  return it == kFlags.end() ? nullptr : &it->second;
}

// --flag value parser; returns map and positional command. A flag the command
// does not read, or a malformed numeric value, is reported here, naming the
// flag: a typo such as --dealine-ms must not run an ungoverned query.
bool ParseArgs(int argc, char** argv, std::string* command, Flags* flags) {
  if (argc < 2) {
    return false;
  }
  *command = argv[1];
  const std::set<std::string>* accepted = CommandFlags(*command);
  if (accepted == nullptr) {
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return false;
    }
    arg = arg.substr(2);
    if (accepted->count(arg) == 0) {
      std::cerr << "error: " << *command << " does not take --" << arg
                << "\n";
      return false;
    }
    if (arg == "verbose") {
      (*flags)["verbose"] = "1";
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (!WellFormed(arg, value)) {
      std::cerr << "error: malformed --" << arg << " value '" << value
                << "'\n";
      return false;
    }
    (*flags)[arg] = value;
  }
  // query reads --kill-list only on the local path and --kill-replica only
  // on the distributed one (--replicas).
  if (*command == "query") {
    const bool dist = flags->count("replicas") > 0;
    const char* unread = dist ? "kill-list" : "kill-replica";
    if (flags->count(unread) > 0) {
      std::cerr << "error: query " << (dist ? "with" : "without")
                << " --replicas does not take --" << unread << "\n";
      return false;
    }
  }
  return true;
}

std::string FlagOr(const Flags& flags, const std::string& key,
                   const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// The value of numeric flag `key`, which ParseArgs checked, or `fallback`
// when the flag is absent.
template <typename T, bool (*kParse)(const char*, T*)>
T NumberFlag(const Flags& flags, const std::string& key, T fallback) {
  const auto it = flags.find(key);
  if (it != flags.end()) {
    kParse(it->second.c_str(), &fallback);
  }
  return fallback;
}
constexpr auto SizeFlag = NumberFlag<size_t, ParseFlagSize>;
constexpr auto U64Flag = NumberFlag<uint64_t, ParseFlagU64>;
constexpr auto DoubleFlag = NumberFlag<double, ParseFlagDouble>;

Result<AlgorithmKind> ParseAlgo(const std::string& name) {
  static const std::map<std::string, AlgorithmKind> kMap = {
      {"naive", AlgorithmKind::kNaive}, {"fa", AlgorithmKind::kFa},
      {"ta", AlgorithmKind::kTa},       {"bpa", AlgorithmKind::kBpa},
      {"bpa2", AlgorithmKind::kBpa2},   {"tput", AlgorithmKind::kTput},
      {"nra", AlgorithmKind::kNra},     {"ca", AlgorithmKind::kCa}};
  auto it = kMap.find(name);
  if (it == kMap.end()) {
    return Status::Invalid("unknown algorithm '", name, "'");
  }
  return it->second;
}

Result<std::unique_ptr<Scorer>> ParseScorer(const std::string& name,
                                            const std::string& weights) {
  if (name == "sum") {
    return std::unique_ptr<Scorer>(new SumScorer());
  }
  if (name == "min") {
    return std::unique_ptr<Scorer>(new MinScorer());
  }
  if (name == "max") {
    return std::unique_ptr<Scorer>(new MaxScorer());
  }
  if (name == "average") {
    return std::unique_ptr<Scorer>(new AverageScorer());
  }
  if (name == "weighted") {
    std::vector<double> w;
    ParseWeights(weights, &w);  // checked by ParseArgs
    TOPK_ASSIGN_OR_RETURN(WeightedSumScorer scorer,
                          WeightedSumScorer::Make(std::move(w)));
    return std::unique_ptr<Scorer>(new WeightedSumScorer(std::move(scorer)));
  }
  return Status::Invalid("unknown scorer '", name, "'");
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Result<Database> LoadDb(const std::string& path) {
  if (EndsWith(path, ".bin")) {
    return ReadBinaryFile(path);
  }
  return ReadCsvFile(path);
}

Status SaveDb(const Database& db, const std::string& path) {
  if (EndsWith(path, ".bin")) {
    return WriteBinaryFile(db, path);
  }
  return WriteCsvFile(db, path);
}

Status RunGen(const Flags& flags) {
  const std::string kind = FlagOr(flags, "kind", "uniform");
  const size_t n = SizeFlag(flags, "n", 10000);
  const size_t m = SizeFlag(flags, "m", 4);
  const uint64_t seed = U64Flag(flags, "seed", 42);
  const std::string out = FlagOr(flags, "out", "");
  if (out.empty()) {
    return Status::Invalid("gen requires --out FILE");
  }
  Database db;
  if (kind == "uniform" || kind == "gaussian") {
    // Rejected as the correlated generator rejects them.
    if (n == 0 || m == 0) {
      return Status::Invalid(kind, " database needs n > 0 and m > 0");
    }
    db = kind == "uniform" ? MakeUniformDatabase(n, m, seed)
                           : MakeGaussianDatabase(n, m, seed);
  } else if (kind == "correlated") {
    CorrelatedConfig config;
    config.n = n;
    config.m = m;
    config.alpha = DoubleFlag(flags, "alpha", 0.01);
    config.zipf_theta = DoubleFlag(flags, "theta", 0.7);
    config.seed = seed;
    TOPK_ASSIGN_OR_RETURN(db, MakeCorrelatedDatabase(config));
  } else {
    return Status::Invalid("unknown database kind '", kind, "'");
  }
  TOPK_RETURN_NOT_OK(SaveDb(db, out));
  std::cout << "wrote " << kind << " database (n=" << db.num_items()
            << ", m=" << db.num_lists() << ") to " << out << "\n";
  return Status::OK();
}

// The distributed query path (--replicas): the same database served by R
// in-process owner replicas per list behind a Coordinator, optionally with a
// deterministic replica kill injected (--kill-replica L:R). The CLI twin of
// the dist_test replica suite — kill one replica of a group and watch the
// failover ladder keep the answer exact, or kill the only replica and watch
// the θ-certified degrade.
Status RunDistQuery(const Flags& flags, const Database& db,
                    const Scorer& scorer, size_t k) {
  const size_t replicas = SizeFlag(flags, "replicas", 1);
  if (replicas < 1) {
    return Status::Invalid("--replicas must be >= 1; got ", replicas);
  }
  const std::string algo = FlagOr(flags, "algo", "bpa");
  if (algo != "bpa" && algo != "tput") {
    return Status::Invalid(
        "--replicas runs the distributed engines, so --algo must be bpa or "
        "tput; got '",
        algo, "'");
  }
  InProcessTransport inner = InProcessTransport::PerListOwners(db, replicas);
  TransportFaultPlan plan;
  plan.seed = U64Flag(flags, "fault-seed", 1);
  if (flags.count("kill-replica")) {
    size_t list = 0;
    size_t replica = 0;
    ParseListReplica(flags.at("kill-replica"), &list, &replica);  // checked
    if (list >= db.num_lists()) {
      return Status::Invalid("--kill-replica list ", list,
                             " exceeds the last list index ",
                             db.num_lists() - 1);
    }
    if (replica >= replicas) {
      return Status::Invalid("--kill-replica replica ", replica,
                             " exceeds the last replica index ", replicas - 1,
                             " (--replicas = ", replicas, ")");
    }
    plan.kill_owners = {
        InProcessTransport::OwnerIndex(db.num_lists(), list, replica)};
    plan.kill_after_messages = U64Flag(flags, "kill-after", 1);
  }
  TOPK_RETURN_NOT_OK(plan.Validate(algo == "bpa" ? "DistBPA" : "DistTPUT",
                                   inner.num_owners()));
  FaultInjectingTransport faulty(&inner, plan);
  Transport* transport = plan.enabled() ? static_cast<Transport*>(&faulty)
                                        : static_cast<Transport*>(&inner);
  DistOptions options;
  options.replication_factor = static_cast<uint32_t>(replicas);
  options.governor.deadline_ms = DoubleFlag(flags, "deadline-ms", 0.0);
  options.governor.total_access_budget = U64Flag(flags, "access-budget", 0);
  Coordinator coordinator(transport, options);
  TOPK_RETURN_NOT_OK(coordinator.Connect());
  const TopKQuery query{k, &scorer};
  TOPK_ASSIGN_OR_RETURN(TopKResult result,
                        algo == "bpa" ? coordinator.ExecuteBpa(query)
                                      : coordinator.ExecuteTput(query));
  const DistStats& stats = coordinator.stats();

  TablePrinter table("top-" + std::to_string(k) + " by " + scorer.name() +
                     " (distributed " + algo + ", " +
                     std::to_string(replicas) + " replica(s)/list)");
  table.AddRow("rank", "item", "score");
  for (size_t i = 0; i < result.items.size(); ++i) {
    table.AddRow(i + 1, static_cast<uint64_t>(result.items[i].item),
                 result.items[i].score);
  }
  table.Print(std::cout);
  if (result.completion != Completion::kExact) {
    std::cout << "anytime answer (" << ToString(result.completion) << "): "
              << result.items.size() << " of " << k
              << " items, scores are certified lower bounds, theta = "
              << result.theta << " (unreturned <= "
              << result.unreturned_upper_bound << ")\n";
    if (result.failed_over) {
      std::cout << "note: " << result.dead_lists
                << " list(s) lost their whole replica group; the query "
                   "degraded to NRA over the survivors\n";
    }
  }
  std::cout << "wire: " << stats.messages_sent << " msgs sent, "
            << stats.replies_received << " replies, " << stats.bytes_sent
            << "+" << stats.bytes_received << " bytes, " << stats.rounds
            << " rounds\n"
            << "robustness: " << stats.retries << " retries, " << stats.hedges
            << " hedges (" << stats.hedge_wins << " won), " << stats.timeouts
            << " timeouts, " << stats.replica_failovers
            << " replica failovers, " << stats.breaker_opens
            << " breaker opens, " << stats.probes_sent << " probes, "
            << stats.owner_deaths << " owner death(s), " << stats.groups_lost
            << " group(s) lost, " << stats.virtual_ms << " virtual ms\n";
  if (flags.count("verbose")) {
    std::cout << "\naccesses: " << result.stats.ToString()
              << "\nstop position:  " << result.stop_position
              << "\ncompletion:     " << ToString(result.completion)
              << "\nelapsed:        " << result.elapsed_ms << " ms\n";
  }
  return Status::OK();
}

Status RunQuery(const Flags& flags) {
  const std::string path = FlagOr(flags, "db", "");
  if (path.empty()) {
    return Status::Invalid("query requires --db FILE");
  }
  TOPK_ASSIGN_OR_RETURN(Database db, LoadDb(path));
  if (flags.count("replicas")) {
    TOPK_ASSIGN_OR_RETURN(std::unique_ptr<Scorer> dist_scorer,
                          ParseScorer(FlagOr(flags, "scorer", "sum"),
                                      FlagOr(flags, "weights", "")));
    return RunDistQuery(flags, db, *dist_scorer, SizeFlag(flags, "k", 10));
  }
  TOPK_ASSIGN_OR_RETURN(AlgorithmKind algo,
                        ParseAlgo(FlagOr(flags, "algo", "bpa2")));
  TOPK_ASSIGN_OR_RETURN(
      std::unique_ptr<Scorer> scorer,
      ParseScorer(FlagOr(flags, "scorer", "sum"), FlagOr(flags, "weights", "")));
  AlgorithmOptions options;
  // A permissive floor lets NRA/CA/TPUT run on negative-score databases.
  for (size_t i = 0; i < db.num_lists(); ++i) {
    options.score_floor = std::min(options.score_floor, db.list(i).MinScore());
  }
  const size_t k = SizeFlag(flags, "k", 10);
  options.governor.deadline_ms = DoubleFlag(flags, "deadline-ms", 0.0);
  options.governor.total_access_budget = U64Flag(flags, "access-budget", 0);
  // Seeded fault injection on the single-query path: a targeted kill makes a
  // degraded run (failover to NRA, θ-certified answer) reproducible from the
  // command line.
  options.fault_plan.seed = U64Flag(flags, "fault-seed", 1);
  if (flags.count("kill-list")) {
    options.fault_plan.kill_list = SizeFlag(flags, "kill-list", 0);
    options.fault_plan.kill_after_accesses = U64Flag(flags, "kill-after", 1);
  }
  auto algorithm = MakeAlgorithm(algo, options);
  TOPK_ASSIGN_OR_RETURN(TopKResult result,
                        algorithm->Execute(db, TopKQuery{k, scorer.get()}));

  TablePrinter table("top-" + std::to_string(k) + " by " + scorer->name() +
                     " (" + algorithm->name() + ")");
  table.AddRow("rank", "item", "score");
  for (size_t i = 0; i < result.items.size(); ++i) {
    table.AddRow(i + 1, static_cast<uint64_t>(result.items[i].item),
                 result.items[i].score);
  }
  table.Print(std::cout);
  if (result.completion != Completion::kExact) {
    std::cout << "anytime answer (" << ToString(result.completion) << "): "
              << result.items.size() << " of " << k
              << " items, scores are certified lower bounds, theta = "
              << result.theta << " (unreturned <= "
              << result.unreturned_upper_bound << ")\n";
    if (result.failed_over) {
      std::cout << "note: " << result.dead_lists
                << " list(s) died; the query failed over to NRA over the "
                   "survivors\n";
    }
  }
  if (flags.count("verbose")) {
    std::cout << "\naccesses: " << result.stats.ToString()
              << "\nexecution cost: " << result.execution_cost
              << "\nstop position:  " << result.stop_position
              << "\ncompletion:     " << ToString(result.completion)
              << "\nelapsed:        " << result.elapsed_ms << " ms\n";
  }
  return Status::OK();
}

Status RunCompare(const Flags& flags) {
  const std::string path = FlagOr(flags, "db", "");
  if (path.empty()) {
    return Status::Invalid("compare requires --db FILE");
  }
  TOPK_ASSIGN_OR_RETURN(Database db, LoadDb(path));
  TOPK_ASSIGN_OR_RETURN(
      std::unique_ptr<Scorer> scorer,
      ParseScorer(FlagOr(flags, "scorer", "sum"), FlagOr(flags, "weights", "")));
  const size_t k = SizeFlag(flags, "k", 10);
  AlgorithmOptions options;
  for (size_t i = 0; i < db.num_lists(); ++i) {
    options.score_floor = std::min(options.score_floor, db.list(i).MinScore());
  }
  TablePrinter table("algorithm comparison (k=" + std::to_string(k) + ", " +
                     scorer->name() + ", n=" + std::to_string(db.num_items()) +
                     ", m=" + std::to_string(db.num_lists()) + ")");
  table.AddRow("algorithm", "stop", "sorted", "random", "direct", "cost",
               "ms");
  for (AlgorithmKind kind : AllAlgorithmKinds()) {
    auto algorithm = MakeAlgorithm(kind, options);
    const Result<TopKResult> result =
        algorithm->Execute(db, TopKQuery{k, scorer.get()});
    if (!result.ok()) {
      table.AddRow(algorithm->name(), std::string("-"), std::string("-"),
                   std::string("-"), std::string("-"),
                   result.status().ToString(), std::string("-"));
      continue;
    }
    const TopKResult& r = result.ValueUnsafe();
    table.AddRow(algorithm->name(), static_cast<uint64_t>(r.stop_position),
                 r.stats.sorted_accesses, r.stats.random_accesses,
                 r.stats.direct_accesses, r.execution_cost, r.elapsed_ms);
  }
  table.Print(std::cout);
  return Status::OK();
}

// Smoke test of the serving path: pushes a closed batch of requests through
// a multi-threaded TopKServer and reports completion/shed/deadline counts.
// The point is exercising the real admission queue, worker pool and watchdog
// from the command line, not benchmarking — bench_micro --serve-json is the
// measured open-loop sweep.
Status RunServe(const Flags& flags) {
  const std::string path = FlagOr(flags, "db", "");
  if (path.empty()) {
    return Status::Invalid("serve requires --db FILE");
  }
  TOPK_ASSIGN_OR_RETURN(Database db, LoadDb(path));
  TOPK_ASSIGN_OR_RETURN(AlgorithmKind algo,
                        ParseAlgo(FlagOr(flags, "algo", "bpa")));
  TOPK_ASSIGN_OR_RETURN(
      std::unique_ptr<Scorer> scorer,
      ParseScorer(FlagOr(flags, "scorer", "sum"), FlagOr(flags, "weights", "")));
  const size_t k = SizeFlag(flags, "k", 10);
  const size_t requests = SizeFlag(flags, "requests", 100);
  const double deadline_ms = DoubleFlag(flags, "deadline-ms", 0.0);
  const std::string shed = FlagOr(flags, "shed", "reject");

  ServerOptions options;
  options.num_threads = SizeFlag(
      flags, "threads", std::max(1u, std::thread::hardware_concurrency()));
  options.queue_capacity = SizeFlag(flags, "queue", 256);
  if (shed == "reject") {
    options.shed_policy = ShedPolicy::kReject;
  } else if (shed == "degrade") {
    options.shed_policy = ShedPolicy::kServeDegraded;
  } else {
    return Status::Invalid("unknown --shed '", shed, "' (reject|degrade)");
  }
  for (size_t i = 0; i < db.num_lists(); ++i) {
    options.algorithm_options.score_floor = std::min(
        options.algorithm_options.score_floor, db.list(i).MinScore());
  }

  TopKServer server(&db, options);
  std::vector<std::future<Result<TopKResult>>> futures;
  futures.reserve(requests);
  Timer wall;
  for (size_t i = 0; i < requests; ++i) {
    futures.push_back(server.Submit(
        ServerRequest{algo, TopKQuery{k, scorer.get()}, deadline_ms}));
  }
  size_t exact = 0;
  size_t anytime = 0;
  size_t errors = 0;
  for (auto& future : futures) {
    const Result<TopKResult> result = future.get();
    if (!result.ok()) {
      ++errors;
    } else if (result.ValueUnsafe().completion == Completion::kExact) {
      ++exact;
    } else {
      ++anytime;
    }
  }
  const double wall_ms = wall.ElapsedMillis();
  const ServerStats stats = server.stats();

  TablePrinter table("served " + std::to_string(requests) + " x " +
                     ToString(algo) + " k=" + std::to_string(k) + " on " +
                     std::to_string(options.num_threads) + " thread(s)");
  table.AddRow("metric", "value");
  table.AddRow("wall ms", wall_ms);
  table.AddRow("requests/sec", 1000.0 * static_cast<double>(requests) / wall_ms);
  table.AddRow("exact", static_cast<uint64_t>(exact));
  table.AddRow("anytime", static_cast<uint64_t>(anytime));
  table.AddRow("errors", static_cast<uint64_t>(errors));
  table.AddRow("shed (rejected)", stats.shed_rejected);
  table.AddRow("shed (degraded)", stats.shed_degraded);
  table.AddRow("expired queued", stats.expired_at_dequeue);
  table.AddRow("deadline cancels", stats.deadline_cancelled);
  table.Print(std::cout);
  return Status::OK();
}

int Main(int argc, char** argv) {
  std::string command;
  Flags flags;
  if (!ParseArgs(argc, argv, &command, &flags)) {
    return Usage();
  }
  Status status;
  try {
    if (command == "gen") {
      status = RunGen(flags);
    } else if (command == "query") {
      status = RunQuery(flags);
    } else if (command == "compare") {
      status = RunCompare(flags);
    } else if (command == "serve" || command == "--serve") {
      status = RunServe(flags);
    } else {
      return Usage();
    }
  } catch (const std::bad_alloc&) {
    // An input (a database, or sizes given as flags) asked for more memory
    // than the process can get; no flag was malformed.
    std::cerr << "error: out of memory\n";
    return 1;
  }
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cli
}  // namespace topk

int main(int argc, char** argv) { return topk::cli::Main(argc, argv); }
