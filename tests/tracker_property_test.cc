// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Property tests: the bit-array tracker must agree with a straightforward
// reference model on arbitrary access streams, and a Reset() tracker must
// behave as a fresh one.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "tracker/bitarray_tracker.h"

namespace topk {
namespace {

// Reference model: linear scan over a bool vector.
class ReferenceModel {
 public:
  explicit ReferenceModel(size_t n) : seen_(n + 1, false) {}

  void MarkSeen(Position p) { seen_[p] = true; }

  Position best_position() const {
    Position bp = 0;
    while (bp + 1 < seen_.size() && seen_[bp + 1]) {
      ++bp;
    }
    return bp;
  }

  bool IsSeen(Position p) const { return seen_[p]; }

  size_t seen_count() const {
    size_t count = 0;
    for (bool b : seen_) {
      count += b;
    }
    return count;
  }

 private:
  std::vector<bool> seen_;
};

TEST(TrackerPropertyTest, AgreesWithModelOnRandomStreams) {
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.NextBounded(300);
    BitArrayTracker tracker(n);
    ReferenceModel model(n);
    const int accesses = 1 + static_cast<int>(rng.NextBounded(3 * n));
    for (int a = 0; a < accesses; ++a) {
      const Position p = static_cast<Position>(1 + rng.NextBounded(n));
      tracker.MarkSeen(p);
      model.MarkSeen(p);
      ASSERT_EQ(tracker.best_position(), model.best_position())
          << "trial " << trial << " after marking " << p;
      ASSERT_EQ(tracker.seen_count(), model.seen_count());
    }
    for (Position p = 1; p <= n; ++p) {
      ASSERT_EQ(tracker.IsSeen(p), model.IsSeen(p)) << "position " << p;
    }
  }
}

TEST(TrackerPropertyTest, SortedScanReachesEveryPrefix) {
  const size_t n = 128;
  BitArrayTracker tracker(n);
  for (Position p = 1; p <= n; ++p) {
    tracker.MarkSeen(p);
    ASSERT_EQ(tracker.best_position(), p);
  }
}

TEST(TrackerPropertyTest, ReverseScanAdvancesOnlyAtTheEnd) {
  const size_t n = 64;
  BitArrayTracker tracker(n);
  for (Position p = n; p >= 2; --p) {
    tracker.MarkSeen(p);
    ASSERT_EQ(tracker.best_position(), 0u);
  }
  tracker.MarkSeen(1);
  EXPECT_EQ(tracker.best_position(), n);
}

TEST(TrackerPropertyTest, InterleavedRunsMergeCorrectly) {
  BitArrayTracker tracker(20);
  // Runs: {5..8}, {2..3}, then 1 bridges to 3, then 4 bridges to 8.
  for (Position p : {5, 6, 7, 8}) {
    tracker.MarkSeen(p);
  }
  EXPECT_EQ(tracker.best_position(), 0u);
  tracker.MarkSeen(2);
  tracker.MarkSeen(3);
  EXPECT_EQ(tracker.best_position(), 0u);
  tracker.MarkSeen(1);
  EXPECT_EQ(tracker.best_position(), 3u);
  tracker.MarkSeen(4);
  EXPECT_EQ(tracker.best_position(), 8u);
}

TEST(TrackerPropertyTest, ResetMakesTrackerReusable) {
  BitArrayTracker tracker(10);
  tracker.MarkSeen(1);
  tracker.MarkSeen(2);
  tracker.Reset();
  EXPECT_EQ(tracker.best_position(), 0u);
  EXPECT_EQ(tracker.seen_count(), 0u);
  tracker.MarkSeen(1);
  EXPECT_EQ(tracker.best_position(), 1u);
}

// A Reset()-then-reused tracker must be observationally identical to a
// freshly constructed one on arbitrary MarkSeen sequences — the contract the
// ExecutionContext relies on, and the property that makes the O(1)
// epoch-stamped Reset sound.
TEST(TrackerPropertyTest, ResetReuseIsObservationallyFresh) {
  Rng rng(4242);
  const size_t n = 1 + rng.NextBounded(200);
  BitArrayTracker reused(n);
  for (int cycle = 0; cycle < 12; ++cycle) {
    // Dirty the reused tracker with a random prefix, then reset it.
    const int dirt = static_cast<int>(rng.NextBounded(2 * n));
    for (int a = 0; a < dirt; ++a) {
      reused.MarkSeen(static_cast<Position>(1 + rng.NextBounded(n)));
    }
    reused.Reset();
    BitArrayTracker fresh(n);
    ASSERT_EQ(reused.best_position(), fresh.best_position());
    ASSERT_EQ(reused.seen_count(), fresh.seen_count());
    const int accesses = 1 + static_cast<int>(rng.NextBounded(2 * n));
    for (int a = 0; a < accesses; ++a) {
      const Position p = static_cast<Position>(1 + rng.NextBounded(n));
      reused.MarkSeen(p);
      fresh.MarkSeen(p);
      ASSERT_EQ(reused.best_position(), fresh.best_position())
          << "cycle " << cycle << " after marking " << p;
      ASSERT_EQ(reused.seen_count(), fresh.seen_count());
    }
    for (Position p = 1; p <= n; ++p) {
      ASSERT_EQ(reused.IsSeen(p), fresh.IsSeen(p))
          << "cycle " << cycle << " position " << p;
    }
  }
}

}  // namespace
}  // namespace topk
