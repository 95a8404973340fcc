// Tests for track/: assignment solvers and the tracker.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "track/assignment.h"
#include "track/tracker.h"

namespace mivid {
namespace {

TEST(AssignmentTest, HungarianSolvesClassicExample) {
  // Cost matrix with a unique optimal assignment (0->1, 1->0, 2->2): 1+2+2=5.
  Matrix cost = Matrix::FromRows({{4, 1, 3}, {2, 0, 5}, {3, 2, 2}});
  const Assignment a = HungarianAssign(cost, 1e9);
  ASSERT_EQ(a.size(), 3u);
  double total = 0;
  std::vector<bool> used(3, false);
  for (size_t r = 0; r < 3; ++r) {
    ASSERT_GE(a[r], 0);
    EXPECT_FALSE(used[static_cast<size_t>(a[r])]);
    used[static_cast<size_t>(a[r])] = true;
    total += cost.At(r, static_cast<size_t>(a[r]));
  }
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(AssignmentTest, HungarianIsOptimalVsGreedyAdversarialCase) {
  // Greedy grabs (0,0)=1 first, forcing (1,1)=100; optimal is 2+2=4.
  Matrix cost = Matrix::FromRows({{1, 2}, {2, 100}});
  const Assignment greedy = GreedyAssign(cost, 1e9);
  const Assignment optimal = HungarianAssign(cost, 1e9);
  double gc = 0, oc = 0;
  for (size_t r = 0; r < 2; ++r) {
    gc += cost.At(r, static_cast<size_t>(greedy[r]));
    oc += cost.At(r, static_cast<size_t>(optimal[r]));
  }
  EXPECT_DOUBLE_EQ(gc, 101.0);
  EXPECT_DOUBLE_EQ(oc, 4.0);
}

TEST(AssignmentTest, MaxCostGatesMatches) {
  Matrix cost = Matrix::FromRows({{5.0}});
  EXPECT_EQ(GreedyAssign(cost, 4.0)[0], -1);
  EXPECT_EQ(HungarianAssign(cost, 4.0)[0], -1);
  EXPECT_EQ(GreedyAssign(cost, 5.0)[0], 0);
  EXPECT_EQ(HungarianAssign(cost, 5.0)[0], 0);
}

TEST(AssignmentTest, RectangularMatrices) {
  // More tracks than detections: one track stays unmatched.
  Matrix cost = Matrix::FromRows({{1.0}, {2.0}});
  const Assignment a = HungarianAssign(cost, 1e9);
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[1], -1);
  // More detections than tracks.
  Matrix cost2 = Matrix::FromRows({{3.0, 1.0, 2.0}});
  const Assignment b = HungarianAssign(cost2, 1e9);
  EXPECT_EQ(b[0], 1);
}

TEST(AssignmentTest, EmptyInputs) {
  Matrix empty;
  EXPECT_TRUE(HungarianAssign(empty, 1.0).empty());
  EXPECT_TRUE(GreedyAssign(empty, 1.0).empty());
}

TEST(AssignmentTest, HungarianMatchesGreedyOnRandomDiagonalDominant) {
  // When each row has a clearly cheapest distinct column, both agree.
  Rng rng(13);
  const size_t n = 6;
  Matrix cost(n, n, 100.0);
  std::vector<size_t> perm{3, 1, 5, 0, 4, 2};
  for (size_t r = 0; r < n; ++r) cost.At(r, perm[r]) = rng.Uniform(0, 1);
  const Assignment g = GreedyAssign(cost, 1e9);
  const Assignment h = HungarianAssign(cost, 1e9);
  for (size_t r = 0; r < n; ++r) {
    EXPECT_EQ(g[r], static_cast<int>(perm[r]));
    EXPECT_EQ(h[r], static_cast<int>(perm[r]));
  }
}

Blob MakeBlob(double cx, double cy) {
  Blob b;
  b.centroid = {cx, cy};
  b.mbr = BBox(cx - 8, cy - 4, cx + 8, cy + 4);
  b.area = 128;
  return b;
}

TEST(TrackerTest, SingleObjectStraightLine) {
  Tracker tracker;
  for (int f = 0; f < 30; ++f) {
    tracker.Observe(f, {MakeBlob(10 + 3.0 * f, 50)});
  }
  const std::vector<Track> tracks = tracker.Finish();
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].points.size(), 30u);
  EXPECT_EQ(tracks[0].first_frame(), 0);
  EXPECT_EQ(tracks[0].last_frame(), 29);
}

TEST(TrackerTest, TwoObjectsKeepIdentity) {
  Tracker tracker;
  for (int f = 0; f < 25; ++f) {
    tracker.Observe(f, {MakeBlob(10 + 3.0 * f, 30),
                        MakeBlob(200 - 3.0 * f, 70)});
  }
  const std::vector<Track> tracks = tracker.Finish();
  ASSERT_EQ(tracks.size(), 2u);
  // Track 0 moves right, track 1 moves left; identities never swap.
  for (const auto& t : tracks) {
    const double dx = t.points.back().centroid.x - t.points[0].centroid.x;
    if (t.points[0].centroid.y < 50) {
      EXPECT_GT(dx, 0);
    } else {
      EXPECT_LT(dx, 0);
    }
    EXPECT_EQ(t.points.size(), 25u);
  }
}

TEST(TrackerTest, SurvivesDetectionDropouts) {
  Tracker tracker;
  for (int f = 0; f < 30; ++f) {
    if (f % 7 == 3) {
      tracker.Observe(f, {});  // dropout
    } else {
      tracker.Observe(f, {MakeBlob(10 + 3.0 * f, 50)});
    }
  }
  const std::vector<Track> tracks = tracker.Finish();
  ASSERT_EQ(tracks.size(), 1u) << "dropouts must not split the track";
}

TEST(TrackerTest, DropsTrackAfterMaxMisses) {
  TrackerOptions options;
  options.max_misses = 2;
  options.min_track_length = 1;
  Tracker tracker(options);
  tracker.Observe(0, {MakeBlob(50, 50)});
  for (int f = 1; f < 10; ++f) tracker.Observe(f, {});
  EXPECT_EQ(tracker.live_count(), 0u);
  const std::vector<Track> tracks = tracker.Finish();
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].points.size(), 1u);
}

TEST(TrackerTest, CrossingObjectsPreferPredictedPositions) {
  // Two objects cross paths; constant-velocity prediction keeps them apart.
  Tracker tracker;
  for (int f = 0; f < 40; ++f) {
    tracker.Observe(f, {MakeBlob(10 + 3.0 * f, 40 + 1.0 * f),
                        MakeBlob(130 - 3.0 * f, 80 - 1.0 * f)});
  }
  const std::vector<Track> tracks = tracker.Finish();
  ASSERT_EQ(tracks.size(), 2u);
  for (const auto& t : tracks) EXPECT_EQ(t.points.size(), 40u);
}

TEST(TrackerTest, SuppressesSplitBlobDuplicates) {
  TrackerOptions options;
  options.min_track_length = 1;
  Tracker tracker(options);
  tracker.Observe(0, {MakeBlob(50, 50)});
  // Split blob: two detections a few pixels apart on the same vehicle.
  tracker.Observe(1, {MakeBlob(53, 50), MakeBlob(47, 52)});
  EXPECT_EQ(tracker.live_count(), 1u);
}

TEST(TrackerTest, FiltersShortTracks) {
  TrackerOptions options;
  options.min_track_length = 5;
  Tracker tracker(options);
  for (int f = 0; f < 3; ++f) tracker.Observe(f, {MakeBlob(10.0 + f, 20)});
  EXPECT_TRUE(tracker.Finish().empty());
}

TEST(TrackerTest, GreedyModeAlsoTracks) {
  TrackerOptions options;
  options.use_hungarian = false;
  Tracker tracker(options);
  for (int f = 0; f < 20; ++f) {
    tracker.Observe(f, {MakeBlob(10 + 3.0 * f, 50)});
  }
  EXPECT_EQ(tracker.Finish().size(), 1u);
}

}  // namespace
}  // namespace mivid
