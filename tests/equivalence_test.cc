#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fully_dynamic_clusterer.h"
#include "core/incremental_dbscan.h"
#include "core/semi_dynamic_clusterer.h"
#include "core/static_dbscan.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace ddc {
namespace {

/// With rho == 0 every algorithm in this library maintains *exact* DBSCAN,
/// so on a shared insertion-only workload all three dynamic clusterers must
/// agree with each other (and transitively with the static oracle, which the
/// per-algorithm suites already check). This is the strongest cross-cutting
/// integration test: one framework (Section 4) behind three different
/// structure stacks, plus an independent 1998 algorithm, one answer.
TEST(EquivalenceTest, AllAlgorithmsAgreeOnInsertions) {
  WorkloadConfig config;
  config.num_updates = 900;
  config.insert_fraction = 1.0;
  config.query_every = 0;
  config.spreader.dim = 2;
  config.spreader.extent = 3000.0;
  config.seed = 99;
  const Workload w = BuildWorkload(config);

  DbscanParams params{.dim = 2, .eps = 120.0, .min_pts = 6, .rho = 0.0};
  SemiDynamicClusterer semi(params);
  FullyDynamicClusterer full(params);
  IncrementalDbscan inc(params);

  for (size_t i = 0; i < w.ops.size(); ++i) {
    const Point& p = w.points[w.ops[i].target];
    semi.Insert(p);
    full.Insert(p);
    inc.Insert(p);
    if (i % 150 != 149 && i + 1 != w.ops.size()) continue;

    auto a = semi.QueryAll();
    auto b = full.QueryAll();
    auto c = inc.QueryAll();
    a.Canonicalize();
    b.Canonicalize();
    c.Canonicalize();
    ASSERT_EQ(a, b) << "semi vs fully at op " << i;
    ASSERT_EQ(b, c) << "fully vs inc at op " << i;
  }
}

/// Shared driver for the full-vs-IncDBSCAN agreement tests: replays `w`
/// through both clusterers at rho == 0, asserting identical clusterings
/// every `check_every` ops and after the last one. Comparison happens in the
/// shared insertion-index space (PointIds diverge once deletions interleave
/// differently with internal id assignment).
void ExpectFullMatchesIncThroughout(const Workload& w,
                                    const DbscanParams& params,
                                    size_t check_every) {
  FullyDynamicClusterer full(params);
  IncrementalDbscan inc(params);
  std::vector<PointId> full_id(w.points.size(), kInvalidPoint);
  std::vector<PointId> inc_id(w.points.size(), kInvalidPoint);

  for (size_t i = 0; i < w.ops.size(); ++i) {
    ApplyOp(full, w, w.ops[i], full_id);
    ApplyOp(inc, w, w.ops[i], inc_id);
    if (i % check_every != check_every - 1 && i + 1 != w.ops.size()) continue;
    const auto a = RemapToInsertionIndex(full.QueryAll(), full_id);
    const auto b = RemapToInsertionIndex(inc.QueryAll(), inc_id);
    ASSERT_EQ(a, b) << "at op " << i;
  }
}

/// On mixed workloads (deletions included), the fully-dynamic clusterer and
/// IncDBSCAN must agree exactly when rho == 0.
TEST(EquivalenceTest, FullyDynamicMatchesIncDbscanOnMixedWorkload) {
  WorkloadConfig config;
  config.num_updates = 900;
  config.insert_fraction = 2.0 / 3.0;
  config.query_every = 0;
  config.spreader.dim = 2;
  config.spreader.extent = 2500.0;
  config.seed = 100;

  DbscanParams params{.dim = 2, .eps = 110.0, .min_pts = 5, .rho = 0.0};
  ExpectFullMatchesIncThroughout(BuildWorkload(config), params, 120);
}

/// Delete-heavy workloads are the fully-dynamic algorithm's entire reason to
/// exist (Theorem 2 shows insertion-only schemes cannot survive deletions):
/// with nearly half the updates deleting points, clusters repeatedly split —
/// IncDBSCAN's expensive BFS path — and at rho == 0 both algorithms must
/// still agree exactly, checkpoint after checkpoint.
TEST(EquivalenceTest, FullyDynamicMatchesIncDbscanOnDeleteHeavyWorkload) {
  WorkloadConfig config;
  config.num_updates = 900;
  config.insert_fraction = 0.55;
  config.query_every = 0;
  config.spreader.dim = 2;
  config.spreader.extent = 2000.0;
  config.seed = 102;
  const Workload w = BuildWorkload(config);
  ASSERT_GT(w.num_deletes, w.num_updates / 3);

  DbscanParams params{.dim = 2, .eps = 100.0, .min_pts = 4, .rho = 0.0};
  ExpectFullMatchesIncThroughout(w, params, 90);
}

/// Mixed insert/delete workload: at rho == 0 the fully-dynamic clusterer
/// must agree with IncDBSCAN on the workload's own subset C-group-by
/// queries, not just on full clusterings.
TEST(EquivalenceTest, FullyDynamicAgreesOnMixedWorkloadQueries) {
  WorkloadConfig config;
  config.num_updates = 600;
  config.insert_fraction = 0.7;
  config.query_every = 75;
  config.spreader.dim = 2;
  config.spreader.extent = 2200.0;
  config.seed = 103;
  const Workload w = BuildWorkload(config);
  ASSERT_GT(w.num_queries, 0);

  DbscanParams params{.dim = 2, .eps = 105.0, .min_pts = 5, .rho = 0.0};
  IncrementalDbscan inc(params);
  FullyDynamicClusterer full(params);
  std::vector<PointId> inc_id(w.points.size(), kInvalidPoint);
  std::vector<PointId> full_id(w.points.size(), kInvalidPoint);

  for (size_t i = 0; i < w.ops.size(); ++i) {
    const Operation& op = w.ops[i];
    if (op.type != Operation::Type::kQuery) {
      ApplyOp(inc, w, op, inc_id);
      ApplyOp(full, w, op, full_id);
      continue;
    }
    auto to_pids = [&](const std::vector<PointId>& ids) {
      std::vector<PointId> q;
      q.reserve(op.query.size());
      for (const int64_t k : op.query) q.push_back(ids[k]);
      return q;
    };
    const auto want = RemapToInsertionIndex(inc.Query(to_pids(inc_id)), inc_id);
    const auto got =
        RemapToInsertionIndex(full.Query(to_pids(full_id)), full_id);
    ASSERT_EQ(got, want) << "at op " << i;
  }
}

/// The paper's experimental requirement (Section 8.1): with rho = 0.001 the
/// ρ-double-approximate algorithm must return exactly the same clusters as
/// the ρ-approximate one. On insertion-only workloads we can check this
/// directly: Semi-Approx vs Double-Approx, same rho.
TEST(EquivalenceTest, DoubleApproxMatchesSemiApproxAtTinyRho) {
  WorkloadConfig config;
  config.num_updates = 1200;
  config.insert_fraction = 1.0;
  config.query_every = 0;
  config.spreader.dim = 3;
  config.spreader.extent = 4000.0;
  config.seed = 101;
  const Workload w = BuildWorkload(config);

  DbscanParams params{.dim = 3, .eps = 200.0, .min_pts = 10, .rho = 0.001};
  SemiDynamicClusterer semi(params);
  FullyDynamicClusterer full(params);

  for (size_t i = 0; i < w.ops.size(); ++i) {
    semi.Insert(w.points[w.ops[i].target]);
    full.Insert(w.points[w.ops[i].target]);
  }
  auto a = semi.QueryAll();
  auto b = full.QueryAll();
  a.Canonicalize();
  b.Canonicalize();
  ASSERT_EQ(a, b);
}

}  // namespace
}  // namespace ddc
