#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster_snapshot.h"
#include "core/fully_dynamic_clusterer.h"
#include "engine/shard_map.h"
#include "engine/stitch.h"
#include "engine/thread_pool.h"
#include "geom/point.h"

namespace ddc {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 30; ++i) {
    pool.Submit(i % 3, [&count] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 30);
}

TEST(ThreadPoolTest, TasksOnOneWorkerRunInSubmissionOrder) {
  // The per-shard ordering guarantee the engine relies on: FIFO per worker,
  // even under many tasks and a single thread shared by "several shards".
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    pool.Submit(0, [&order, i] { order.push_back(i); });
  }
  pool.Drain();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, DrainIsABarrierForWorkerWrites) {
  ThreadPool pool(4);
  std::vector<int64_t> sums(4, 0);
  for (int round = 0; round < 10; ++round) {
    for (int w = 0; w < 4; ++w) {
      pool.Submit(w, [&sums, w] { sums[w] += w + 1; });
    }
    pool.Drain();
    // Post-drain reads see every write of the drained tasks.
    for (int w = 0; w < 4; ++w) EXPECT_EQ(sums[w], (w + 1) * (round + 1));
  }
}

TEST(ThreadPoolTest, DestructorRunsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.Submit(i % 2, [&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 20);
}

// ---------------------------------------------------------------------------
// ShardMap

Point P2(double x, double y) { return Point{x, y}; }

TEST(ShardMapTest, PicksSpreadMaximizingDimension) {
  ShardMap map(4, 2, /*halo=*/10.0);
  // Spread 100 on dim 0, 1000 on dim 1: slabs must split dim 1.
  std::vector<Point> sample = {P2(0, 0), P2(100, 1000), P2(50, 500)};
  map.InitFromSample(sample);
  EXPECT_EQ(map.split_dim(), 1);
  EXPECT_DOUBLE_EQ(map.lo(), 0);
  EXPECT_DOUBLE_EQ(map.slab_width(), 250);
  EXPECT_EQ(map.OwnerOf(P2(0, 10)), 0);
  EXPECT_EQ(map.OwnerOf(P2(0, 260)), 1);
  EXPECT_EQ(map.OwnerOf(P2(0, 999)), 3);
}

TEST(ShardMapTest, EndSlabsAbsorbOutliers) {
  ShardMap map(4, 1, 5.0);
  std::vector<Point> sample = {Point{0}, Point{400}};
  map.InitFromSample(sample);
  EXPECT_EQ(map.OwnerOf(Point{-1e9}), 0);
  EXPECT_EQ(map.OwnerOf(Point{1e9}), 3);
  const ShardMap::Range r = map.HoldersOf(Point{-1e9});
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.last, 0);
}

TEST(ShardMapTest, HoldersCoverTheHalo) {
  ShardMap map(4, 1, 10.0);
  std::vector<Point> sample = {Point{0}, Point{400}};  // width 100
  map.InitFromSample(sample);

  // Interior point far from boundaries: owner only.
  ShardMap::Range r = map.HoldersOf(Point{150});
  EXPECT_EQ(r.first, 1);
  EXPECT_EQ(r.last, 1);
  EXPECT_FALSE(map.NearBoundary(Point{150}, 1));

  // Within halo of the 100 boundary: shards 0 and 1.
  r = map.HoldersOf(Point{95});
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.last, 1);
  EXPECT_TRUE(map.NearBoundary(Point{95}, 0));
  r = map.HoldersOf(Point{105});
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.last, 1);
  EXPECT_TRUE(map.NearBoundary(Point{105}, 1));

  // The invariant the halo exists for: every point within halo distance of
  // a point owned by shard s is held by shard s.
  for (double x = -50; x <= 450; x += 0.5) {
    const int owner = map.OwnerOf(Point{x});
    for (double dx = -10; dx <= 10; dx += 0.5) {
      const ShardMap::Range h = map.HoldersOf(Point{x + dx});
      EXPECT_LE(h.first, owner);
      EXPECT_GE(h.last, owner);
    }
  }
}

TEST(ShardMapTest, MinimumSlabWidthBoundsReplication) {
  // The sample spread asks for slabs of width 20, far below the halo; the
  // map must widen them to 2·halo so no point replicates into more than two
  // shards (an unrepresentative warmup sample degrades toward fewer
  // effective shards, never toward all-pairs replication).
  ShardMap map(8, 1, /*halo=*/100.0);
  std::vector<Point> sample = {Point{0}, Point{160}};
  map.InitFromSample(sample);
  EXPECT_DOUBLE_EQ(map.slab_width(), 200.0);
  for (double x = -300; x <= 2000; x += 7) {
    const ShardMap::Range r = map.HoldersOf(Point{x});
    EXPECT_LE(r.last - r.first + 1, 2) << "x=" << x;
    const int owner = map.OwnerOf(Point{x});
    EXPECT_LE(r.first, owner);
    EXPECT_GE(r.last, owner);
  }
}

TEST(ShardMapTest, SingleShardNeverReplicatesOrStitches) {
  ShardMap map(1, 3, 100.0);
  map.InitFromSample({Point{1, 2, 3}, Point{4, 5, 6}});
  const Point p{2, 3, 4};
  EXPECT_EQ(map.OwnerOf(p), 0);
  const ShardMap::Range r = map.HoldersOf(p);
  EXPECT_EQ(r.first, 0);
  EXPECT_EQ(r.last, 0);
  EXPECT_FALSE(map.NearBoundary(p, 0));
}

TEST(ShardMapTest, EmptySampleStillInitializes) {
  ShardMap map(4, 2, 1.0);
  map.InitFromSample({});
  EXPECT_TRUE(map.initialized());
  const Point p{3.5, 0};
  const int owner = map.OwnerOf(p);
  EXPECT_GE(owner, 0);
  EXPECT_LT(owner, 4);
  const ShardMap::Range r = map.HoldersOf(p);
  EXPECT_LE(r.first, owner);
  EXPECT_GE(r.last, owner);
}

TEST(ShardMapTest, EmptySampleStillAppliesTheWidthFloor) {
  // Degenerate initialization (Flush before any insert) must not bypass the
  // 2·halo minimum slab width: otherwise every later point would replicate
  // into all shards.
  ShardMap map(8, 2, /*halo=*/110.0);
  map.InitFromSample({});
  EXPECT_GE(map.slab_width(), 220.0);
  for (double x = -500; x <= 500; x += 11) {
    const ShardMap::Range r = map.HoldersOf(P2(x, 0));
    EXPECT_LE(r.last - r.first + 1, 2) << "x=" << x;
  }
}

TEST(ShardMapTest, SplitSlabShiftsOwnersAndKeepsHaloCoverage) {
  ShardMap map(4, 1, /*halo=*/10.0);
  map.InitFromSample({Point{0}, Point{400}});  // cuts 100, 200, 300

  ASSERT_TRUE(map.CanSplitAt(1, 150.0));
  map.SplitSlab(1, 150.0);
  EXPECT_EQ(map.shards(), 5);
  const std::vector<double> want = {100, 150, 200, 300};
  EXPECT_EQ(map.cuts(), want);

  // The split children partition the old slab; everything above shifted.
  EXPECT_EQ(map.OwnerOf(Point{120}), 1);
  EXPECT_EQ(map.OwnerOf(Point{160}), 2);
  EXPECT_EQ(map.OwnerOf(Point{250}), 3);
  EXPECT_EQ(map.OwnerOf(Point{350}), 4);
  EXPECT_EQ(map.OwnerOf(Point{50}), 0);

  // Halo coverage survives the reshape: every point within halo of an
  // owned point is held by the owner, and contiguity bounds replication.
  for (double x = -50; x <= 450; x += 0.5) {
    const int owner = map.OwnerOf(Point{x});
    for (double dx = -10; dx <= 10; dx += 0.5) {
      const ShardMap::Range h = map.HoldersOf(Point{x + dx});
      EXPECT_LE(h.first, owner);
      EXPECT_GE(h.last, owner);
      EXPECT_LE(h.last - h.first + 1, 2);
    }
  }
}

TEST(ShardMapTest, CanSplitAtEnforcesTheTwoHaloMargins) {
  ShardMap map(4, 1, /*halo=*/10.0);
  map.InitFromSample({Point{0}, Point{400}});  // cuts 100, 200, 300

  // Interior slab [100, 200): both children need >= 2*halo = 20 of width.
  EXPECT_TRUE(map.CanSplitAt(1, 120.0));
  EXPECT_TRUE(map.CanSplitAt(1, 180.0));
  EXPECT_FALSE(map.CanSplitAt(1, 119.0));  // Left child too narrow.
  EXPECT_FALSE(map.CanSplitAt(1, 181.0));  // Right child too narrow.
  EXPECT_FALSE(map.CanSplitAt(1, 90.0));   // Outside the slab entirely.

  // End slabs are unbounded on one side: only the finite edge constrains.
  EXPECT_TRUE(map.CanSplitAt(0, 80.0));
  EXPECT_TRUE(map.CanSplitAt(0, -1000.0));
  EXPECT_FALSE(map.CanSplitAt(0, 81.0));

  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(map.CanSplitAt(0, -inf));
  EXPECT_FALSE(map.CanSplitAt(3, inf));
}

TEST(ShardMapTest, MergeSlabsIsTheInverseOfSplit) {
  ShardMap map(4, 1, /*halo=*/10.0);
  map.InitFromSample({Point{0}, Point{400}});
  const std::vector<double> original = map.cuts();

  map.SplitSlab(2, 250.0);
  EXPECT_EQ(map.shards(), 5);
  map.MergeSlabs(2);
  EXPECT_EQ(map.shards(), 4);
  EXPECT_EQ(map.cuts(), original);

  // Merging the first pair erases the lowest cut; owners shift down.
  map.MergeSlabs(0);
  EXPECT_EQ(map.shards(), 3);
  EXPECT_EQ(map.OwnerOf(Point{50}), 0);
  EXPECT_EQ(map.OwnerOf(Point{150}), 0);
  EXPECT_EQ(map.OwnerOf(Point{250}), 1);
  EXPECT_EQ(map.OwnerOf(Point{350}), 2);
}

// ---------------------------------------------------------------------------
// BoundaryStitcher

using Holders = BoundaryStitcher::Holders;

/// Owned by `shard` under local id `local`, with no replica.
Holders Owned(int shard, PointId local) { return Holders{shard, local}; }

TEST(BoundaryStitcherTest, EdgesRequireCrossShardAndProximity) {
  BoundaryStitcher stitch(2, /*eps=*/10.0);
  stitch.AddCore(1, P2(0, 0), Owned(0, 0));
  stitch.AddCore(2, P2(5, 0), Owned(0, 1));    // Same shard: no edge.
  stitch.AddCore(3, P2(8, 0), Owned(1, 0));    // Cross shard: edge to 1 & 2.
  stitch.AddCore(4, P2(100, 0), Owned(1, 1));  // Too far: no edge.
  EXPECT_EQ(stitch.num_points(), 4);
  EXPECT_EQ(stitch.num_edges(), 2);
  EXPECT_EQ(stitch.boundary_count(0), 2);
  EXPECT_EQ(stitch.boundary_count(1), 2);

  stitch.RemoveCore(3);
  EXPECT_EQ(stitch.num_edges(), 0);
  EXPECT_EQ(stitch.num_points(), 3);
  EXPECT_FALSE(stitch.Contains(3));

  // Re-adding rediscovers the edges symmetrically.
  stitch.AddCore(3, P2(8, 0), Owned(1, 0));
  EXPECT_EQ(stitch.num_edges(), 2);
}

/// Frozen shards for the rebuild tests: one FullyDynamicClusterer per
/// shard at ε = 1, MinPts = 1 (every point core, points farther than 1
/// apart in distinct components), each holding `points` in local-id order.
std::vector<std::shared_ptr<const GridSnapshot>> FrozenShards(
    const std::vector<std::vector<Point>>& points) {
  DbscanParams params;
  params.dim = 2;
  params.eps = 1.0;
  params.min_pts = 1;
  std::vector<std::shared_ptr<const GridSnapshot>> shards;
  for (const std::vector<Point>& held : points) {
    FullyDynamicClusterer shard(params);
    for (const Point& p : held) shard.Insert(p);
    shards.push_back(
        std::static_pointer_cast<const GridSnapshot>(shard.Snapshot()));
  }
  return shards;
}

TEST(BoundaryStitcherTest, RebuildUnionsAcrossEdgesAndSamePoint) {
  // Point 1 is owned by shard 0 and replicated into shard 1 (local 0),
  // where it is locally core in a component of its own; point 2 is owned
  // by shard 1 (local 1) within the stitch radius of point 1; point 3 sits
  // alone in shard 2.
  const auto shards =
      FrozenShards({{P2(0, 0)}, {P2(0, 0), P2(6, 0)}, {P2(50, 0)}});
  const uint64_t own1 = shards[0]->CoreLabelOf(0);
  const uint64_t ghost1 = shards[1]->CoreLabelOf(0);
  const uint64_t own2 = shards[1]->CoreLabelOf(1);
  const uint64_t own3 = shards[2]->CoreLabelOf(0);
  ASSERT_NE(ghost1, own2);

  BoundaryStitcher stitch(2, 10.0);
  Holders at1 = Owned(0, 0);
  at1.above = 0;
  stitch.AddCore(1, P2(0, 0), at1);
  stitch.AddCore(2, P2(6, 0), Owned(1, 1));   // Edge 1-2 across shards.
  stitch.AddCore(3, P2(50, 0), Owned(2, 0));  // Isolated.
  stitch.Rebuild(shards);

  const ClusterLabel a = stitch.Resolve(0, own1);
  EXPECT_EQ(a.shard, ClusterLabel::kStitchedShard);
  // Edge rule: point 1's and point 2's owner components merge.
  EXPECT_EQ(stitch.Resolve(1, own2), a);
  // Same-point rule: shard 1's component holding point 1's replica too.
  EXPECT_EQ(stitch.Resolve(1, ghost1), a);
  // Shard 2's component is interned but alone.
  const ClusterLabel c = stitch.Resolve(2, own3);
  EXPECT_NE(c, a);
  // Labels never seen by the stitch resolve to themselves.
  const ClusterLabel raw = stitch.Resolve(3, 99);
  EXPECT_EQ(raw.shard, 3);
  EXPECT_EQ(raw.id, 99u);
  EXPECT_NE(raw, a);
  EXPECT_NE(raw, c);

  // FullSnapshot's path: the same table without installing it.
  EXPECT_EQ(stitch.BuildTable(shards)->Resolve(1, ghost1),
            stitch.table()->Resolve(1, ghost1));
}

TEST(BoundaryStitcherTest, RebuildTracksCurrentEdgesOnly) {
  const auto shards = FrozenShards({{P2(0, 0)}, {P2(6, 0)}});
  const uint64_t own1 = shards[0]->CoreLabelOf(0);
  const uint64_t own2 = shards[1]->CoreLabelOf(0);
  BoundaryStitcher stitch(2, 10.0);
  stitch.AddCore(1, P2(0, 0), Owned(0, 0));
  stitch.AddCore(2, P2(6, 0), Owned(1, 0));
  stitch.Rebuild(shards);
  EXPECT_EQ(stitch.Resolve(0, own1), stitch.Resolve(1, own2));

  stitch.RemoveCore(2);
  stitch.Rebuild(shards);
  // The old union is gone: shard 1's label is raw again.
  EXPECT_EQ(stitch.Resolve(1, own2).shard, 1);
}

}  // namespace
}  // namespace ddc
