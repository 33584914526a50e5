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

}  // namespace
}  // namespace ddc
