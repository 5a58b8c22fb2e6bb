// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "lists/database_io.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

#include "common/rng.h"
#include "gen/database_generator.h"

namespace topk {
namespace {

void ExpectSameDatabase(const Database& a, const Database& b) {
  ASSERT_EQ(a.num_items(), b.num_items());
  ASSERT_EQ(a.num_lists(), b.num_lists());
  for (size_t li = 0; li < a.num_lists(); ++li) {
    for (Position p = 1; p <= a.num_items(); ++p) {
      ASSERT_EQ(a.list(li).EntryAt(p), b.list(li).EntryAt(p))
          << "list " << li << " position " << p;
    }
  }
}

TEST(DatabaseIoTest, CsvRoundTrip) {
  const Database db = MakeUniformDatabase(50, 3, 11);
  std::stringstream buffer;
  ASSERT_TRUE(WriteCsv(db, buffer).ok());
  Result<Database> loaded = ReadCsv(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabase(db, loaded.ValueUnsafe());
}

TEST(DatabaseIoTest, CsvRoundTripNegativeScores) {
  const Database db = MakeGaussianDatabase(30, 2, 12);
  std::stringstream buffer;
  ASSERT_TRUE(WriteCsv(db, buffer).ok());
  Result<Database> loaded = ReadCsv(buffer);
  ASSERT_TRUE(loaded.ok());
  ExpectSameDatabase(db, loaded.ValueUnsafe());
}

TEST(DatabaseIoTest, CsvAcceptsShuffledRows) {
  std::stringstream in(
      "item,list0,list1\n"
      "2,3.0,1.0\n"
      "0,1.0,3.0\n"
      "1,2.0,2.0\n");
  Result<Database> loaded = ReadCsv(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueUnsafe().num_items(), 3u);
  EXPECT_DOUBLE_EQ(loaded.ValueUnsafe().ScoreOf(0, 2), 3.0);
}

TEST(DatabaseIoTest, CsvRejectsBadHeader) {
  std::stringstream in("id,list0\n0,1.0\n");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalid());
}

TEST(DatabaseIoTest, CsvRejectsEmpty) {
  std::stringstream in("");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalid());
}

TEST(DatabaseIoTest, CsvRejectsNoColumns) {
  std::stringstream in("item\n0\n");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalid());
}

TEST(DatabaseIoTest, CsvRejectsDuplicateItem) {
  std::stringstream in("item,list0\n0,1.0\n0,2.0\n");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalid());
}

TEST(DatabaseIoTest, CsvRejectsMissingItem) {
  std::stringstream in("item,list0\n0,1.0\n2,2.0\n");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalid());
}

TEST(DatabaseIoTest, CsvRejectsHugeItemIdWithoutAllocating) {
  // Sizing the rows from the largest id would reserve 4e9 of them.
  std::stringstream in("item,list0\n0,1.0\n4000000000,0.5\n");
  const Status status = ReadCsv(in).status();
  EXPECT_TRUE(status.IsInvalid()) << status.ToString();
  EXPECT_NE(status.message().find("line 3: item 4000000000 outside 0..1"),
            std::string::npos)
      << status.message();
}

TEST(DatabaseIoTest, CsvRejectsRaggedRow) {
  std::stringstream in("item,list0,list1\n0,1.0\n");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalid());
}

TEST(DatabaseIoTest, CsvRejectsExtraColumns) {
  std::stringstream in("item,list0\n0,1.0,2.0\n");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalid());
}

TEST(DatabaseIoTest, CsvRejectsBadNumbers) {
  std::stringstream in("item,list0\nzero,1.0\n");
  EXPECT_TRUE(ReadCsv(in).status().IsInvalid());
  std::stringstream in2("item,list0\n0,one\n");
  EXPECT_TRUE(ReadCsv(in2).status().IsInvalid());
}

TEST(DatabaseIoTest, BinaryRoundTrip) {
  const Database db = MakeUniformDatabase(200, 5, 13);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(WriteBinary(db, buffer).ok());
  Result<Database> loaded = ReadBinary(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameDatabase(db, loaded.ValueUnsafe());
}

TEST(DatabaseIoTest, BinaryRejectsBadMagic) {
  std::stringstream buffer("not a database at all");
  EXPECT_TRUE(ReadBinary(buffer).status().IsInvalid());
}

TEST(DatabaseIoTest, BinaryRejectsTruncated) {
  const Database db = MakeUniformDatabase(20, 2, 14);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(WriteBinary(db, buffer).ok());
  const std::string full = buffer.str();
  std::stringstream cut(full.substr(0, full.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_TRUE(ReadBinary(cut).status().IsInvalid());
}

// A stream that can only be read forward: tellg/seekg fail, as on a pipe.
class ForwardOnlyBuf : public std::streambuf {
 public:
  explicit ForwardOnlyBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

std::string BinaryHeader(uint64_t n, uint64_t m) {
  std::string bytes("TOPKDB\x01\n", 8);
  bytes.append(reinterpret_cast<const char*>(&n), sizeof(n));
  bytes.append(reinterpret_cast<const char*>(&m), sizeof(m));
  return bytes;
}

TEST(DatabaseIoTest, BinaryRejectsOversizedHeaderBeforeAllocating) {
  // n = 2^32 records of 12 bytes each: sizing the list from the claim alone
  // would allocate ~64 GiB before the first read.
  std::stringstream claimed(BinaryHeader(uint64_t{1} << 32, 1),
                            std::ios::in | std::ios::binary);
  const Status status = ReadBinary(claimed).status();
  EXPECT_TRUE(status.IsInvalid()) << status.ToString();
  EXPECT_NE(status.message().find("header claims n=4294967296, m=1"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("the stream holds 24 bytes"),
            std::string::npos)
      << status.message();

  // Unseekable: the length cannot be checked up front, so the reservation
  // stays bounded and the short stream fails as truncated.
  std::string bytes = BinaryHeader(uint64_t{1} << 32, 2);
  for (uint32_t item = 0; item < 3; ++item) {
    const double score = 1.0 - item * 0.25;
    bytes.append(reinterpret_cast<const char*>(&item), sizeof(item));
    bytes.append(reinterpret_cast<const char*>(&score), sizeof(score));
  }
  ForwardOnlyBuf pipe(std::move(bytes));
  std::istream piped(&pipe);
  const Status truncated = ReadBinary(piped).status();
  EXPECT_TRUE(truncated.IsInvalid()) << truncated.ToString();
  EXPECT_NE(truncated.message().find("truncated list 0 at record 3"),
            std::string::npos)
      << truncated.message();
}

TEST(DatabaseIoTest, BinaryRejectsNonFiniteScores) {
  const Database db = MakeUniformDatabase(20, 2, 14);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(WriteBinary(db, buffer).ok());
  const std::string good = buffer.str();
  struct Case {
    size_t list;
    size_t record;
    double score;
  };
  // NaN passes the descending-order check (every comparison is false) and
  // +inf at the head of a list passes it too.
  const Case cases[] = {
      {1, 5, std::numeric_limits<double>::quiet_NaN()},
      {0, 0, std::numeric_limits<double>::infinity()},
      {1, 19, -std::numeric_limits<double>::infinity()}};
  for (const Case& c : cases) {
    // A 24-byte header, then n = 20 records of 12 bytes (item, score) per
    // list.
    std::string bytes = good;
    const size_t offset =
        24 + (c.list * 20 + c.record) * 12 + sizeof(ItemId);
    std::memcpy(&bytes[offset], &c.score, sizeof(c.score));
    std::stringstream in(bytes, std::ios::in | std::ios::binary);
    const Status status = ReadBinary(in).status();
    EXPECT_TRUE(status.IsInvalid()) << status.ToString();
    const std::string where = "list " + std::to_string(c.list) + " record " +
                              std::to_string(c.record) + ": non-finite score";
    EXPECT_NE(status.message().find(where), std::string::npos)
        << status.message();
  }
}

TEST(DatabaseIoTest, CsvRejectsNonFiniteScores) {
  std::stringstream nan_cell("item,list0,list1\n0,1.0,nan\n1,0.5,2.0\n");
  Status status = ReadCsv(nan_cell).status();
  EXPECT_TRUE(status.IsInvalid()) << status.ToString();
  EXPECT_NE(status.message().find("line 2, column 3 (list1)"),
            std::string::npos)
      << status.message();

  std::stringstream inf_cell("item,list0,list1\n0,1.0,3.0\n1,-inf,2.0\n");
  status = ReadCsv(inf_cell).status();
  EXPECT_TRUE(status.IsInvalid()) << status.ToString();
  EXPECT_NE(status.message().find("line 3, column 2 (list0)"),
            std::string::npos)
      << status.message();
}

// Seeded loader fuzz: mutated binary and CSV images of a small Gaussian
// database either load or fail as Invalid. Any other code, a crash or a
// sanitizer report fails the test.
TEST(DatabaseIoTest, MutatedImagesLoadOrFailAsInvalid) {
  const Database db = MakeGaussianDatabase(24, 3, 17);
  std::stringstream binary(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(WriteBinary(db, binary).ok());
  std::stringstream csv;
  ASSERT_TRUE(WriteCsv(db, csv).ok());
  const std::string images[] = {binary.str(), csv.str()};
  constexpr size_t kCountsOffset = 8;  // n, then m, after the magic

  Rng rng(20240917);
  size_t loaded = 0;
  size_t invalid = 0;
  for (int round = 0; round < 10000; ++round) {
    for (int format = 0; format < 2; ++format) {
      const bool is_binary = format == 0;
      std::string bytes = images[format];
      const uint64_t mutation = rng.NextBounded(4);
      if (mutation == 0) {  // bit flips
        for (uint64_t flips = 1 + rng.NextBounded(8); flips > 0; --flips) {
          bytes[rng.NextBounded(bytes.size())] ^=
              static_cast<char>(1u << rng.NextBounded(8));
        }
      } else if (mutation == 1) {  // truncation at a random length
        bytes.resize(rng.NextBounded(bytes.size()));
      } else if (mutation == 2) {  // random n/m header values
        // Small counts half the time, so some claims fit the stream.
        const uint64_t value = rng.NextBounded(2) == 0
                                   ? rng.NextBounded(64)
                                   : rng.NextBounded(UINT64_MAX);
        if (is_binary) {
          const size_t field = kCountsOffset + 8 * rng.NextBounded(2);
          std::memcpy(&bytes[field], &value, sizeof(value));
        } else if (rng.NextBounded(2) == 0) {
          // CSV carries m as its column count and n as the item ids.
          std::string header = "item";
          for (uint64_t j = 0; j < value % 8; ++j) {
            header += ",list" + std::to_string(j);
          }
          bytes.replace(0, bytes.find('\n'), header);
        } else {
          const size_t row = bytes.find('\n', rng.NextBounded(bytes.size()));
          if (row != std::string::npos && row + 1 < bytes.size()) {
            bytes.replace(row + 1, bytes.find(',', row + 1) - row - 1,
                          std::to_string(value));
          }
        }
      } else {  // byte overwrites
        for (uint64_t writes = 1 + rng.NextBounded(8); writes > 0; --writes) {
          bytes[rng.NextBounded(bytes.size())] =
              static_cast<char>(rng.NextBounded(256));
        }
      }
      std::stringstream in(bytes, std::ios::in | std::ios::binary);
      const Status status =
          is_binary ? ReadBinary(in).status() : ReadCsv(in).status();
      if (status.ok()) {
        ++loaded;
      } else {
        ASSERT_TRUE(status.IsInvalid())
            << (is_binary ? "binary" : "CSV") << " round " << round
            << " mutation " << mutation << ": " << status.ToString();
        ++invalid;
      }
    }
  }
  // Both outcomes occur: the mutations reach past the first check.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(invalid, 0u);
}

TEST(DatabaseIoTest, FileRoundTrip) {
  const Database db = MakeUniformDatabase(40, 2, 15);
  const std::string csv_path = ::testing::TempDir() + "/topk_io_test.csv";
  const std::string bin_path = ::testing::TempDir() + "/topk_io_test.bin";
  ASSERT_TRUE(WriteCsvFile(db, csv_path).ok());
  ASSERT_TRUE(WriteBinaryFile(db, bin_path).ok());
  Result<Database> from_csv = ReadCsvFile(csv_path);
  Result<Database> from_bin = ReadBinaryFile(bin_path);
  ASSERT_TRUE(from_csv.ok());
  ASSERT_TRUE(from_bin.ok());
  ExpectSameDatabase(db, from_csv.ValueUnsafe());
  ExpectSameDatabase(db, from_bin.ValueUnsafe());
}

TEST(DatabaseIoTest, MissingFilesFail) {
  EXPECT_FALSE(ReadCsvFile("/nonexistent/path.csv").ok());
  EXPECT_FALSE(ReadBinaryFile("/nonexistent/path.bin").ok());
  const Database db = MakeUniformDatabase(5, 2, 16);
  EXPECT_FALSE(WriteCsvFile(db, "/nonexistent/dir/out.csv").ok());
  EXPECT_FALSE(WriteBinaryFile(db, "/nonexistent/dir/out.bin").ok());
}

}  // namespace
}  // namespace topk
