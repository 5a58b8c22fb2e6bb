// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// The relational scenario from the paper's introduction: "find the top-k
// tuples in a relational table according to some scoring function over its
// attributes" — here, movies rated on several criteria, each criterion
// maintained as a sorted (indexed) list.
//
// Demonstrates: multiple scoring functions over the same database and
// per-query cost accounting.
//
//   $ ./movie_ratings

#include <iostream>
#include <vector>

#include "common/rng.h"
#include "common/table_printer.h"
#include "core/algorithms.h"
#include "lists/scorer.h"

int main() {
  using namespace topk;

  constexpr size_t kMovies = 30000;
  const std::vector<std::string> criteria = {"story", "acting", "visuals",
                                             "soundtrack", "pacing"};
  constexpr size_t kTop = 8;

  // Ratings in [0, 10]; movies have a latent quality so criteria correlate.
  Rng rng(1968);
  std::vector<std::vector<Score>> ratings(kMovies,
                                          std::vector<Score>(criteria.size()));
  for (size_t i = 0; i < kMovies; ++i) {
    const double quality = rng.NextDouble(2.0, 8.0);
    for (size_t c = 0; c < criteria.size(); ++c) {
      double r = quality + rng.NextGaussian(0.0, 1.2);
      ratings[i][c] = std::min(10.0, std::max(0.0, r));
    }
  }
  const Database db = Database::FromScoreMatrix(ratings).ValueOrDie();

  SumScorer overall;
  MinScorer weakest_aspect;  // "no weak spots" ranking
  const WeightedSumScorer cinephile =
      WeightedSumScorer::Make({2.0, 1.5, 1.0, 1.0, 0.5}).ValueOrDie();

  auto bpa = MakeAlgorithm(AlgorithmKind::kBpa);

  for (const Scorer* scorer :
       std::vector<const Scorer*>{&overall, &weakest_aspect, &cinephile}) {
    const TopKQuery query{kTop, scorer};
    const TopKResult result = bpa->Execute(db, query).ValueOrDie();
    TablePrinter table("Top movies by '" + scorer->name() + "' (" +
                       std::to_string(result.stats.TotalAccesses()) +
                       " accesses, stop position " +
                       std::to_string(result.stop_position) + ")");
    table.AddRow("rank", "movie id", "score");
    for (size_t i = 0; i < result.items.size(); ++i) {
      table.AddRow(i + 1, static_cast<uint64_t>(result.items[i].item),
                   result.items[i].score);
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  return 0;
}
