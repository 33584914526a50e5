#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "common/random.h"
#include "core/cluster_snapshot.h"
#include "core/clusterer.h"
#include "core/method_registry.h"
#include "engine/sharded_clusterer.h"
#include "persist/snapshot_io.h"
#include "telemetry/metrics.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

/// Incremental freezing (GridSnapshot::Build re-freezing only dirty cells,
/// sharing the rest with the previous epoch) must be invisible: after every
/// batch of a seeded random op sequence, the snapshot a clusterer publishes
/// serializes to the same bytes and answers the same queries as one frozen
/// from scratch out of the same state (Clusterer::FullSnapshot). Snapshots
/// of earlier epochs must keep their bytes however many builds follow.

std::string TempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "ddc_freeze_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string SavedBytes(const ClusterSnapshot& snap,
                       const DbscanParams& params, const std::string& path) {
  std::string error;
  EXPECT_TRUE(SaveSnapshot(snap, params, /*last_seq=*/0, path, &error))
      << error;
  std::string bytes;
  EXPECT_TRUE(ReadFileToString(path, &bytes, &error)) << error;
  return bytes;
}

/// Empty when the two files' bytes are equal, else where they part.
std::string Mismatch(const std::string& a, const std::string& b) {
  if (a == b) return "";
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
         " bytes, first difference at offset " + std::to_string(i);
}

CGroupByResult CanonicalQuery(const ClusterSnapshot& snap,
                              const std::vector<PointId>& ids) {
  CGroupByResult r = snap.Query(ids);
  r.Canonicalize();
  return r;
}

/// One batch of the random op sequence: a hot spot that circles the plane
/// once over `batches` batches (cells are born, churned and emptied),
/// background noise, and deletions of random alive points where supported.
void ApplyBatch(Clusterer& c, Rng& rng, int b, int batches, bool deletes,
                std::vector<PointId>* alive) {
  const double angle = 6.283185307179586 * b / batches;
  const double cx = 400 * std::cos(angle);
  const double cy = 400 * std::sin(angle);
  const int64_t ops = rng.NextInRange(1, 120);
  for (int64_t i = 0; i < ops; ++i) {
    if (deletes && alive->size() > 200 && rng.NextBernoulli(0.45)) {
      const size_t at = static_cast<size_t>(rng.NextBelow(alive->size()));
      c.Delete((*alive)[at]);
      (*alive)[at] = alive->back();
      alive->pop_back();
      continue;
    }
    Point p;
    if (rng.NextBernoulli(0.85)) {
      p[0] = cx + rng.NextDouble(-40, 40);
      p[1] = cy + rng.NextDouble(-40, 40);
    } else {
      p[0] = rng.NextDouble(-500, 500);
      p[1] = rng.NextDouble(-500, 500);
    }
    alive->push_back(c.Insert(p));
  }
}

DbscanParams TestParams(const std::string& spec) {
  DbscanParams params = EffectiveParams(spec, PaperParams(2));
  params.eps = 10.0;
  return params;
}

/// Drives `spec` through `batches` random batches and checks the
/// incremental freeze against a full one after each.
void RunIdentity(const std::string& spec, int batches, uint64_t seed) {
  SCOPED_TRACE(spec);
  const DbscanParams params = TestParams(spec);
  std::unique_ptr<Clusterer> c = MakeMethod(spec, params);
  const bool deletes = MethodSupportsDeletes(spec);
  const std::string dir = TempDir(MethodBaseName(spec) + std::to_string(seed));
  Rng rng(seed);
  std::vector<PointId> alive;

  struct Kept {
    std::shared_ptr<const ClusterSnapshot> snap;
    std::string bytes;
  };
  std::vector<Kept> kept;

  for (int b = 0; b < batches; ++b) {
    ApplyBatch(*c, rng, b, batches, deletes, &alive);
    const std::shared_ptr<const ClusterSnapshot> incremental = c->Snapshot();
    const std::shared_ptr<const ClusterSnapshot> full = c->FullSnapshot();
    ASSERT_EQ(incremental->epoch(), full->epoch());
    const std::string inc_bytes =
        SavedBytes(*incremental, params, dir + "/inc.snap");
    const std::string full_bytes =
        SavedBytes(*full, params, dir + "/full.snap");
    ASSERT_EQ(Mismatch(inc_bytes, full_bytes), "")
        << "batch " << b << ": incremental and full freeze serialize apart";
    ASSERT_EQ(CanonicalQuery(*incremental, alive),
              CanonicalQuery(*full, alive))
        << "batch " << b;
    if (b % 25 == 0) kept.push_back(Kept{incremental, inc_bytes});
  }

  // Earlier epochs share chunks with later ones; none may have changed.
  for (const Kept& k : kept) {
    ASSERT_EQ(Mismatch(SavedBytes(*k.snap, params, dir + "/kept.snap"),
                       k.bytes),
              "")
        << "epoch " << k.snap->epoch() << " changed after later freezes";
  }
}

int64_t Counter(const char* name) {
  return MetricsRegistry::Instance().ValueOf(name);
}

TEST(IncrementalFreezeTest, EveryGridSnapshotMethodMatchesAFullFreeze) {
  for (const MethodInfo& info : AllMethodInfos()) {
    if (info.name == "sharded-double-approx") continue;
    RunIdentity(info.name, /*batches=*/60, /*seed=*/11);
  }
}

TEST(IncrementalFreezeTest, ReusesCellsAndRecyclesChunks) {
  const std::string spec = "double-approx";
  std::unique_ptr<Clusterer> c = MakeMethod(spec, TestParams(spec));
  const int64_t refrozen = Counter("core.snapshot_cells_refrozen");
  const int64_t reused = Counter("core.snapshot_cells_reused");
  const int64_t released = Counter("core.snapshot_chunks_released");
  Rng rng(5);
  std::vector<PointId> alive;
  constexpr int kBatches = 400;
  for (int b = 0; b < kBatches; ++b) {
    ApplyBatch(*c, rng, b, kBatches, /*deletes=*/true, &alive);
    c->Snapshot();
  }
  // Most cells of an epoch are shared with the previous one, and chunks
  // whose cells were all re-frozen since are handed back.
  EXPECT_GT(Counter("core.snapshot_cells_reused") - reused,
            4 * (Counter("core.snapshot_cells_refrozen") - refrozen));
  EXPECT_GT(Counter("core.snapshot_chunks_released"), released);
}

TEST(IncrementalFreezeTest, ShardedEngineMatchesAFullFreezeUnderRebalance) {
  const int64_t splits = Counter("engine.rebalance.splits");
  const int64_t merges = Counter("engine.rebalance.merges");
  for (const int shards : {1, 4}) {
    RunIdentity("sharded-double-approx:shards=" + std::to_string(shards) +
                    ",threads=2,batch=16,warmup=64,rebalance=1,rb_split=1.3,"
                    "rb_epochs=1,rb_cooldown=0,rb_min_points=32",
                /*batches=*/100, /*seed=*/static_cast<uint64_t>(shards));
    if (HasFatalFailure()) return;
  }
  // The identity only means something if the wandering hot spot actually
  // reshaped the slabs between freezes.
  EXPECT_GT(Counter("engine.rebalance.splits"), splits);
  EXPECT_GT(Counter("engine.rebalance.merges"), merges);
}

/// The stitch rebuild reads the frozen shards through the local ids cached
/// when each boundary point registered. A scripted two-slab engine at
/// rho == 0 (cut at x = 50, halo 1), checked after every flush three ways:
/// the published epoch against FullSnapshot() (bytes and queries) and
/// against exact DBSCAN over the alive points.
class CachedStitchIdsTest : public ::testing::Test {
 protected:
  CachedStitchIdsTest()
      : params_{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = 0},
        dir_(TempDir("stitch_ids")) {}

  void Make(const ShardedClusterer::Options& options) {
    engine_ = std::make_unique<ShardedClusterer>(params_, options);
  }

  PointId Insert(double x, double y) {
    const PointId gid = engine_->Insert(Point{x, y});
    points_.push_back(Point{x, y});
    ids_.push_back(gid);
    return gid;
  }

  void Delete(PointId gid) {
    engine_->Delete(gid);
    ids_[gid] = kInvalidPoint;
  }

  void FlushAndCheck(const std::string& what) {
    SCOPED_TRACE(what);
    const std::shared_ptr<const ClusterSnapshot> published =
        engine_->Snapshot();
    const std::shared_ptr<const ClusterSnapshot> full =
        engine_->FullSnapshot();
    ASSERT_EQ(Mismatch(SavedBytes(*published, params_, dir_ + "/pub.snap"),
                       SavedBytes(*full, params_, dir_ + "/full.snap")),
              "");
    const std::vector<PointId> alive = engine_->AlivePoints();
    ASSERT_EQ(CanonicalQuery(*published, alive), CanonicalQuery(*full, alive));
    ASSERT_EQ(RemapToInsertionIndex(engine_->QueryAll(), ids_),
              OracleOverAlive(points_, ids_, params_));
  }

  DbscanParams params_;
  std::string dir_;
  std::unique_ptr<ShardedClusterer> engine_;
  std::vector<Point> points_;  // By gid (gids are insertion indices).
  std::vector<PointId> ids_;   // Insertion index -> gid, or kInvalidPoint.
};

ShardedClusterer::Options TwoSlabs() {
  ShardedClusterer::Options options;
  options.shards = 2;
  options.threads = 2;
  options.batch = 4;
  options.warmup = 2;  // The two anchors below fix the cut at x = 50.
  return options;
}

TEST_F(CachedStitchIdsTest, BoundaryPointPromotedAndDeletedInOneEpoch) {
  Make(TwoSlabs());
  Insert(0, 0);
  Insert(100, 0);
  // A core chain across the cut: one cluster, stitched at the boundary.
  std::vector<PointId> chain;
  for (int i = 0; i <= 8; ++i) chain.push_back(Insert(48 + 0.5 * i, 0));
  // A cluster owned by slab 0 whose replicas are core in slab 1 too, and a
  // border point of it owned by slab 1: only the replicas' cached ids tie
  // slab 1's label of that cluster to slab 0's (same-point rule).
  for (const double x : {49.2, 49.4, 49.6, 49.8}) Insert(x, 10);
  const PointId border = Insert(50.7, 10);
  FlushAndCheck("chain");
  ASSERT_EQ(engine_->shard_map().cuts(), std::vector<double>{50});
  const int64_t registered = engine_->num_boundary_points();
  ASSERT_GT(registered, 0);
  EXPECT_TRUE(engine_->SameCluster(chain.front(), chain.back()));
  EXPECT_TRUE(engine_->SameCluster(border, border - 1));

  // Owned by slab 0 within the halo of slab 1, core on arrival (two chain
  // points within eps), then deleted before the next flush: at fold time
  // its promotion meets a replica slab 1 has already dropped.
  const PointId q = Insert(49.7, 0.8);
  const PointId r = Insert(50.3, -0.9);  // The mirror case, owned by slab 1.
  Delete(q);
  Delete(r);
  FlushAndCheck("promoted and deleted");
  EXPECT_EQ(engine_->num_boundary_points(), registered);

  // Cut the chain at the boundary (the cluster splits), then mend it (the
  // halves merge again): each rebuild reads the survivors' cached ids.
  Delete(chain[4]);
  Delete(chain[5]);
  FlushAndCheck("split at the cut");
  EXPECT_FALSE(engine_->SameCluster(chain.front(), chain.back()));
  Insert(50, 0);
  Insert(50.5, 0);
  FlushAndCheck("merged again");
  EXPECT_TRUE(engine_->SameCluster(chain.front(), chain.back()));
}

TEST_F(CachedStitchIdsTest, SplitAndMergeThenRebuild) {
  ShardedClusterer::Options options = TwoSlabs();
  options.rebalance.enabled = true;
  options.rebalance.epochs = 1;
  options.rebalance.cooldown = 0;
  options.rebalance.min_points = 32;
  options.rebalance.max_shards = 3;
  Make(options);
  Insert(0, 0);
  Insert(100, 0);

  // A dense blob in slab 0 makes it hot: the split cuts through the blob's
  // middle, and the re-registered boundary points carry their new ids.
  std::vector<PointId> blob;
  for (int i = 0; i < 400; ++i) {
    blob.push_back(Insert(20 + 0.5 * (i % 40), 0.5 * (i / 40)));
  }
  FlushAndCheck("split");
  ASSERT_EQ(engine_->rebalance_splits(), 1);
  ASSERT_GT(engine_->num_boundary_points(), 0);
  EXPECT_TRUE(engine_->SameCluster(blob.front(), blob.back()));

  // The blob moves to the top slab: at the shard ceiling the controller
  // merges the two emptied slabs to make room, then re-splits.
  for (const PointId gid : blob) Delete(gid);
  blob.clear();
  for (int i = 0; i < 400; ++i) {
    blob.push_back(Insert(70 + 0.5 * (i % 40), 0.5 * (i / 40)));
  }
  for (int epoch = 0; epoch < 4; ++epoch) {
    FlushAndCheck("epoch " + std::to_string(epoch) + " after the move");
    Insert(1 + epoch, 30);  // Keeps every flush dirty.
  }
  EXPECT_GE(engine_->rebalance_merges(), 1);
  EXPECT_TRUE(engine_->SameCluster(blob.front(), blob.back()));
}

}  // namespace
}  // namespace ddc
