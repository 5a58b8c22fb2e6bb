// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "lists/database.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#ifdef __linux__
#include <sys/mman.h>
#endif

#include "common/macros.h"

namespace topk {

namespace {

// Mirror-row stride for a payload of 12*m bytes: the smallest power-of-two
// slot (16, 32) that holds the payload, else the next multiple of the 64-byte
// cache line. Either way 64 is a multiple of the stride or vice versa, so a
// row starting on the aligned base occupies exactly ceil(payload/64) lines.
size_t ItemRowStride(size_t payload_bytes) {
  if (payload_bytes <= 16) {
    return 16;
  }
  if (payload_bytes <= 32) {
    return 32;
  }
  return (payload_bytes + 63) & ~size_t{63};
}

// Zero-filled blob for the mirror rows. On Linux: an anonymous mapping
// advised MADV_HUGEPAGE *before* the construction loop first touches it, so
// in THP "madvise" mode the kernel backs the interior 2 MiB-aligned chunks
// with hugepages at fault time (synchronously — no waiting for khugepaged).
// Falls back to operator new[] (value-initialized) if mmap is unavailable.
std::shared_ptr<unsigned char> AllocateRowBlob(size_t bytes) {
#ifdef __linux__
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (map != MAP_FAILED) {
    madvise(map, bytes, MADV_HUGEPAGE);  // best-effort hint
    return std::shared_ptr<unsigned char>(
        static_cast<unsigned char*>(map),
        [bytes](unsigned char* p) { munmap(p, bytes); });
  }
#endif
  return std::shared_ptr<unsigned char>(new unsigned char[bytes](),
                                        std::default_delete<unsigned char[]>());
}

}  // namespace

Database::Database(std::vector<SortedList> lists) : lists_(std::move(lists)) {
  const size_t m = lists_.size();
  const size_t n = num_items();
  positions_offset_ = m * sizeof(Score);
  row_stride_ = ItemRowStride(ItemRowPayloadBytes(m));
  // 63 spare bytes so the first row can sit on a 64-byte boundary (an mmap
  // base is page-aligned already; the new[] fallback is not).
  item_rows_ = AllocateRowBlob(n * row_stride_ + 63);
  const uintptr_t base = reinterpret_cast<uintptr_t>(item_rows_.get());
  unsigned char* rows = item_rows_.get() + (64 - base % 64) % 64;
  rows_base_ = rows;
  for (size_t j = 0; j < m; ++j) {
    const SortedList& list = lists_[j];
    for (Position position = 1; position <= n; ++position) {
      const ListEntry entry = list.EntryAt(position);
      unsigned char* row = rows + static_cast<size_t>(entry.item) * row_stride_;
      std::memcpy(row + j * sizeof(Score), &entry.score, sizeof(Score));
      std::memcpy(row + positions_offset_ + j * sizeof(Position), &position,
                  sizeof(Position));
    }
  }
}

Result<Database> Database::Make(std::vector<SortedList> lists) {
  if (lists.empty()) {
    return Status::Invalid("a database needs at least one list");
  }
  const size_t n = lists[0].size();
  if (n == 0) {
    return Status::Invalid("lists must be non-empty");
  }
  for (size_t i = 1; i < lists.size(); ++i) {
    if (lists[i].size() != n) {
      return Status::Invalid("list ", i, " has ", lists[i].size(),
                             " items but list 0 has ", n);
    }
  }
  return Database(std::move(lists));
}

Result<Database> Database::FromScoreMatrix(
    const std::vector<std::vector<Score>>& scores) {
  if (scores.empty()) {
    return Status::Invalid("score matrix has no rows");
  }
  const size_t m = scores[0].size();
  if (m == 0) {
    return Status::Invalid("score matrix has no columns");
  }
  for (size_t i = 0; i < scores.size(); ++i) {
    if (scores[i].size() != m) {
      return Status::Invalid("score matrix row ", i, " has ", scores[i].size(),
                             " columns, expected ", m);
    }
    for (size_t j = 0; j < m; ++j) {
      if (!std::isfinite(scores[i][j])) {
        // A NaN would break the per-list sort's strict weak ordering.
        return Status::Invalid("score matrix row ", i, " column ", j,
                               " holds non-finite score ", scores[i][j]);
      }
    }
  }
  std::vector<SortedList> lists;
  lists.reserve(m);
  std::vector<Score> column(scores.size());
  for (size_t j = 0; j < m; ++j) {
    for (size_t i = 0; i < scores.size(); ++i) {
      column[i] = scores[i][j];
    }
    TOPK_ASSIGN_OR_RETURN(SortedList list, SortedList::FromScores(column));
    lists.push_back(std::move(list));
  }
  return Make(std::move(lists));
}

bool Database::AllScoresNonNegative() const {
  for (const SortedList& list : lists_) {
    if (!list.AllScoresNonNegative()) {
      return false;
    }
  }
  return true;
}

}  // namespace topk
