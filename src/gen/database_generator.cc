// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "gen/database_generator.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "gen/distributions.h"
#include "lists/sorted_list.h"

namespace topk {

Database MakeUniformDatabase(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<SortedList> lists;
  lists.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    // Finite by construction.
    lists.push_back(
        SortedList::FromScores(UniformScoreVector(n, &rng)).ValueOrDie());
  }
  return Database::Make(std::move(lists)).ValueOrDie();
}

Database MakeGaussianDatabase(size_t n, size_t m, uint64_t seed) {
  Rng rng(seed);
  std::vector<SortedList> lists;
  lists.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    // Finite by construction.
    lists.push_back(
        SortedList::FromScores(GaussianScoreVector(n, &rng)).ValueOrDie());
  }
  return Database::Make(std::move(lists)).ValueOrDie();
}

Database MakeZipfDatabase(size_t n, size_t m, uint64_t seed, double theta) {
  Rng rng(seed);
  const std::vector<Score> zipf = ZipfScoreVector(n, theta);
  std::vector<SortedList> lists;
  lists.reserve(m);
  for (size_t li = 0; li < m; ++li) {
    // An independent permutation per list: entry at rank p is a random item
    // with the rank's Zipf score. FromEntries validates the permutation.
    const std::vector<uint32_t> perm =
        rng.Permutation(static_cast<uint32_t>(n));
    std::vector<ListEntry> entries(n);
    for (size_t p = 0; p < n; ++p) {
      entries[p] = ListEntry{static_cast<ItemId>(perm[p]), zipf[p]};
    }
    lists.push_back(SortedList::FromEntries(std::move(entries)).ValueOrDie());
  }
  return Database::Make(std::move(lists)).ValueOrDie();
}

namespace {

// Nearest free position to `target` in the free set; ties prefer the lower
// position. Removes and returns the chosen position.
Position TakeClosestFree(std::set<Position>* free_positions, Position target) {
  auto hi = free_positions->lower_bound(target);
  Position chosen;
  if (hi == free_positions->end()) {
    chosen = *std::prev(hi);
  } else if (hi == free_positions->begin()) {
    chosen = *hi;
  } else {
    const Position above = *hi;
    const Position below = *std::prev(hi);
    const Position dist_above = above - target;
    const Position dist_below = target - below;
    chosen = (dist_below <= dist_above) ? below : above;
  }
  free_positions->erase(chosen);
  return chosen;
}

}  // namespace

Result<Database> MakeCorrelatedDatabase(const CorrelatedConfig& config) {
  const size_t n = config.n;
  const size_t m = config.m;
  if (n == 0 || m == 0) {
    return Status::Invalid("correlated database needs n > 0 and m > 0");
  }
  if (config.alpha < 0.0 || config.alpha > 1.0) {
    return Status::Invalid("alpha must be in [0, 1], got ", config.alpha);
  }
  if (config.zipf_theta < 0.0) {
    return Status::Invalid("zipf_theta must be >= 0, got ", config.zipf_theta);
  }
  Rng rng(config.seed);

  // Positions in list 1: a random permutation (position_in_l1[item] is
  // 1-based).
  std::vector<Position> position_in_l1(n);
  {
    std::vector<uint32_t> perm = rng.Permutation(static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      position_in_l1[perm[i]] = static_cast<Position>(i + 1);
    }
  }

  // Maximum offset n*alpha (at least 1 so the draw interval is non-empty).
  const uint64_t max_offset = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(static_cast<double>(n) *
                                            config.alpha)));

  const std::vector<Score> zipf = ZipfScoreVector(n, config.zipf_theta);

  std::vector<SortedList> lists;
  lists.reserve(m);

  // List 1 directly from the permutation.
  {
    std::vector<ListEntry> entries(n);
    for (ItemId item = 0; item < n; ++item) {
      const Position p = position_in_l1[item];
      entries[p - 1] = ListEntry{item, zipf[p - 1]};
    }
    TOPK_ASSIGN_OR_RETURN(SortedList list,
                          SortedList::FromEntries(std::move(entries)));
    lists.push_back(std::move(list));
  }

  // Lists 2..m: shifted placements, closest free position on collision.
  // Items are placed in order of their list-1 position (deterministic).
  std::vector<ItemId> items_by_l1_position(n);
  for (ItemId item = 0; item < n; ++item) {
    items_by_l1_position[position_in_l1[item] - 1] = item;
  }
  for (size_t li = 1; li < m; ++li) {
    std::set<Position> free_positions;
    for (size_t p = 1; p <= n; ++p) {
      free_positions.insert(free_positions.end(), static_cast<Position>(p));
    }
    std::vector<ListEntry> entries(n);
    for (ItemId item : items_by_l1_position) {
      const Position p1 = position_in_l1[item];
      const uint64_t r = 1 + rng.NextBounded(max_offset);
      const bool up = rng.NextBool();
      int64_t target = static_cast<int64_t>(p1) +
                       (up ? static_cast<int64_t>(r)
                           : -static_cast<int64_t>(r));
      target = std::clamp<int64_t>(target, 1, static_cast<int64_t>(n));
      const Position p =
          TakeClosestFree(&free_positions, static_cast<Position>(target));
      entries[p - 1] = ListEntry{item, zipf[p - 1]};
    }
    TOPK_ASSIGN_OR_RETURN(SortedList list,
                          SortedList::FromEntries(std::move(entries)));
    lists.push_back(std::move(list));
  }
  return Database::Make(std::move(lists));
}

std::string ToString(DatabaseKind kind) {
  switch (kind) {
    case DatabaseKind::kUniform:
      return "uniform";
    case DatabaseKind::kGaussian:
      return "gaussian";
    case DatabaseKind::kCorrelated:
      return "correlated";
    case DatabaseKind::kZipf:
      return "zipf";
  }
  return "unknown";
}

bool ParseDatabaseKind(const std::string& name, DatabaseKind* kind) {
  for (DatabaseKind candidate :
       {DatabaseKind::kUniform, DatabaseKind::kGaussian,
        DatabaseKind::kCorrelated, DatabaseKind::kZipf}) {
    if (name == ToString(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

Database MakeDatabaseOfKind(DatabaseKind kind, size_t n, size_t m,
                            uint64_t seed) {
  switch (kind) {
    case DatabaseKind::kUniform:
      return MakeUniformDatabase(n, m, seed);
    case DatabaseKind::kGaussian:
      return MakeGaussianDatabase(n, m, seed);
    case DatabaseKind::kCorrelated: {
      CorrelatedConfig config;
      config.n = n;
      config.m = m;
      config.alpha = 0.01;
      config.seed = seed;
      return MakeCorrelatedDatabase(config).ValueOrDie();
    }
    case DatabaseKind::kZipf:
      return MakeZipfDatabase(n, m, seed);
  }
  return Database();
}

}  // namespace topk
