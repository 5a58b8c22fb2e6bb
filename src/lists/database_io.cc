// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "lists/database_io.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace topk {

namespace {

constexpr char kMagic[8] = {'T', 'O', 'P', 'K', 'D', 'B', '\x01', '\n'};

// Binary layout: the magic, n and m as u64, then m lists of n records, each a
// 4-byte item id and an 8-byte score.
constexpr uint64_t kHeaderBytes = sizeof(kMagic) + 2 * sizeof(uint64_t);
constexpr uint64_t kRecordBytes = sizeof(ItemId) + sizeof(Score);

// Records reserved up front per list when the stream cannot tell its length.
constexpr uint64_t kUnsizedReserve = uint64_t{1} << 16;

Status CannotOpen(const std::string& path, const char* mode) {
  return Status::Invalid("cannot open '", path, "' for ", mode);
}

}  // namespace

Status WriteCsv(const Database& db, std::ostream& os) {
  const size_t n = db.num_items();
  const size_t m = db.num_lists();
  os << "item";
  for (size_t j = 0; j < m; ++j) {
    os << ",list" << j;
  }
  os << "\n";
  os.precision(std::numeric_limits<double>::max_digits10);
  for (ItemId item = 0; item < n; ++item) {
    os << item;
    for (size_t j = 0; j < m; ++j) {
      os << "," << db.ScoreOf(j, item);
    }
    os << "\n";
  }
  if (!os) {
    return Status::Internal("stream write failure");
  }
  return Status::OK();
}

Status WriteCsvFile(const Database& db, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return CannotOpen(path, "writing");
  }
  return WriteCsv(db, file);
}

Result<Database> ReadCsv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    return Status::Invalid("empty CSV input");
  }
  // Header: item,list0,...
  size_t m = 0;
  {
    std::stringstream header(line);
    std::string cell;
    if (!std::getline(header, cell, ',') || cell != "item") {
      return Status::Invalid("CSV header must start with 'item', got '", cell,
                             "'");
    }
    while (std::getline(header, cell, ',')) {
      ++m;
    }
    if (m == 0) {
      return Status::Invalid("CSV header has no list columns");
    }
  }
  // Rows are kept in file order and moved into place by item id only once
  // the row count n is known: ids must be dense 0..n-1, so an id never sizes
  // an allocation (one "4000000000,..." row must not reserve 4e9 rows).
  std::vector<std::vector<Score>> file_rows;
  std::vector<size_t> ids;       // file_rows[r] is item ids[r]'s row,
  std::vector<size_t> id_lines;  // read from line id_lines[r]
  size_t line_number = 1;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) {
      continue;
    }
    std::stringstream row(line);
    std::string cell;
    if (!std::getline(row, cell, ',')) {
      return Status::Invalid("line ", line_number, ": missing item id");
    }
    size_t item = 0;
    try {
      item = std::stoul(cell);
    } catch (...) {
      return Status::Invalid("line ", line_number, ": bad item id '", cell,
                             "'");
    }
    ids.push_back(item);
    id_lines.push_back(line_number);
    std::vector<Score>& scores = file_rows.emplace_back();
    scores.reserve(m);
    for (size_t j = 0; j < m; ++j) {
      if (!std::getline(row, cell, ',')) {
        return Status::Invalid("line ", line_number, ": expected ", m,
                               " scores");
      }
      Score score = 0.0;
      try {
        score = std::stod(cell);
      } catch (...) {
        return Status::Invalid("line ", line_number, ": bad score '", cell,
                               "'");
      }
      // std::stod accepts "nan" and "inf"; neither is a score (NaN breaks
      // the descending sort's strict weak order).
      if (!std::isfinite(score)) {
        return Status::Invalid("line ", line_number, ", column ", j + 2,
                               " (list", j, "): non-finite score '", cell,
                               "'");
      }
      scores.push_back(score);
    }
    if (std::getline(row, cell, ',')) {
      return Status::Invalid("line ", line_number, ": too many columns");
    }
  }
  if (file_rows.empty()) {
    return Status::Invalid("CSV has no data rows");
  }
  const size_t n = file_rows.size();
  std::vector<std::vector<Score>> rows(n);  // rows[item][list]
  for (size_t r = 0; r < n; ++r) {
    const size_t item = ids[r];
    if (item >= n) {
      return Status::Invalid("line ", id_lines[r], ": item ", item,
                             " outside 0..", n - 1, " (ids must be dense "
                             "0..n-1 over the ", n, " data rows)");
    }
    if (!rows[item].empty()) {
      return Status::Invalid("line ", id_lines[r], ": item ", item,
                             " appears twice");
    }
    rows[item] = std::move(file_rows[r]);
  }
  // Free the file-order scaffolding before the lists are built.
  std::vector<std::vector<Score>>().swap(file_rows);
  std::vector<size_t>().swap(ids);
  std::vector<size_t>().swap(id_lines);
  return Database::FromScoreMatrix(rows);
}

Result<Database> ReadCsvFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return CannotOpen(path, "reading");
  }
  return ReadCsv(file);
}

Status WriteBinary(const Database& db, std::ostream& os) {
  os.write(kMagic, sizeof(kMagic));
  const uint64_t n = db.num_items();
  const uint64_t m = db.num_lists();
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  os.write(reinterpret_cast<const char*>(&m), sizeof(m));
  for (size_t j = 0; j < m; ++j) {
    for (Position p = 1; p <= n; ++p) {
      const ListEntry& e = db.list(j).EntryAt(p);
      os.write(reinterpret_cast<const char*>(&e.item), sizeof(e.item));
      os.write(reinterpret_cast<const char*>(&e.score), sizeof(e.score));
    }
  }
  if (!os) {
    return Status::Internal("stream write failure");
  }
  return Status::OK();
}

Status WriteBinaryFile(const Database& db, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return CannotOpen(path, "writing");
  }
  return WriteBinary(db, file);
}

Result<Database> ReadBinary(std::istream& is) {
  char magic[sizeof(kMagic)];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Invalid("bad magic: not a topk binary database");
  }
  uint64_t n = 0;
  uint64_t m = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  is.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!is || n == 0 || m == 0) {
    return Status::Invalid("bad header (n=", n, ", m=", m, ")");
  }
  constexpr uint64_t kMaxReasonable = 1ULL << 32;
  if (n > kMaxReasonable || m > (1ULL << 16)) {
    return Status::Invalid("header out of range (n=", n, ", m=", m, ")");
  }
  // The header's counts are a claim, not a fact: before anything is sized
  // from them, the stream must hold the n*m records they promise (at most
  // 2^48 records here, so the product cannot overflow). A stream that cannot
  // tell its length (a pipe) is read with a bounded reservation instead.
  const uint64_t record_bytes = n * m * kRecordBytes;
  uint64_t available = std::numeric_limits<uint64_t>::max();
  const std::istream::pos_type records_start = is.tellg();
  if (records_start != std::istream::pos_type(-1) &&
      is.seekg(0, std::ios::end)) {
    available = static_cast<uint64_t>(is.tellg() - records_start);
    is.seekg(records_start);
  }
  is.clear();
  if (record_bytes > available) {
    return Status::Invalid("header claims n=", n, ", m=", m, " (",
                           record_bytes + kHeaderBytes,
                           " bytes) but the stream holds ",
                           available + kHeaderBytes, " bytes");
  }
  const bool sized = available != std::numeric_limits<uint64_t>::max();
  const auto reservation = [sized](uint64_t count) {
    return sized ? count : std::min(count, kUnsizedReserve);
  };
  std::vector<SortedList> lists;
  lists.reserve(reservation(m));
  for (uint64_t j = 0; j < m; ++j) {
    std::vector<ListEntry> entries;
    entries.reserve(reservation(n));
    Score prev = std::numeric_limits<Score>::infinity();
    for (uint64_t p = 0; p < n; ++p) {
      ListEntry e;
      is.read(reinterpret_cast<char*>(&e.item), sizeof(e.item));
      is.read(reinterpret_cast<char*>(&e.score), sizeof(e.score));
      if (!is) {
        return Status::Invalid("truncated list ", j, " at record ", p);
      }
      if (!std::isfinite(e.score)) {
        return Status::Invalid("list ", j, " record ", p,
                               ": non-finite score ", e.score);
      }
      if (e.score > prev) {
        return Status::Invalid("list ", j, " not in descending score order");
      }
      prev = e.score;
      entries.push_back(e);
    }
    TOPK_ASSIGN_OR_RETURN(SortedList list,
                          SortedList::FromEntries(std::move(entries)));
    lists.push_back(std::move(list));
  }
  return Database::Make(std::move(lists));
}

Result<Database> ReadBinaryFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return CannotOpen(path, "reading");
  }
  return ReadBinary(file);
}

}  // namespace topk
