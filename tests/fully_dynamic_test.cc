#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/fully_dynamic_clusterer.h"
#include "core/static_dbscan.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

/// Replays a random insert/delete sequence, verifying the full clustering
/// against the static oracle (rho == 0) or the sandwich guarantee (rho > 0)
/// at regular checkpoints.
void RunMixedWorkload(const DbscanParams& params, uint64_t seed, int steps,
                      double p_insert, int check_every) {
  Rng rng(seed);
  FullyDynamicClusterer clusterer(params);
  std::vector<PointId> alive;

  for (int step = 0; step < steps; ++step) {
    if (alive.empty() || rng.NextBernoulli(p_insert)) {
      const Point p =
          BlobPoints(rng, 1, params.dim, 7.0, 1, 1.2, 0.25)[0];
      alive.push_back(clusterer.Insert(p));
    } else {
      const size_t i = rng.NextBelow(alive.size());
      clusterer.Delete(alive[i]);
      alive[i] = alive.back();
      alive.pop_back();
    }

    if (step % check_every != check_every - 1) continue;

    // Materialize the alive points in id order for the oracle.
    std::vector<PointId> ids = clusterer.AlivePoints();
    std::vector<Point> pts;
    pts.reserve(ids.size());
    for (const PointId id : ids) pts.push_back(clusterer.grid().point(id));

    auto got = clusterer.QueryAll();
    got.Canonicalize();

    if (params.rho == 0) {
      const auto want = StaticDbscan(pts, params).ToGroups(ids);
      ASSERT_EQ(got, want) << "step " << step << " n=" << ids.size();
    } else {
      const auto lower = StaticDbscan(pts, params).ToGroups(ids);
      DbscanParams outer = params;
      outer.eps = params.eps_outer();
      outer.rho = 0;
      const auto upper = StaticDbscan(pts, outer).ToGroups(ids);
      std::string why;
      ASSERT_TRUE(CheckSandwich(lower, got, upper, &why))
          << why << " at step " << step;
    }
  }
}

struct FullCase {
  const char* name;
  DbscanParams params;
};

class FullyDynamicOracleTest : public ::testing::TestWithParam<FullCase> {};

TEST_P(FullyDynamicOracleTest, MixedWorkloadChecksOut) {
  const auto& c = GetParam();
  RunMixedWorkload(c.params, /*seed=*/777, /*steps=*/900, /*p_insert=*/0.7,
                   /*check_every=*/60);
}

// Exact configurations (rho = 0) must reproduce exact DBSCAN; approximate
// ones must stay inside the sandwich.
INSTANTIATE_TEST_SUITE_P(
    Cases, FullyDynamicOracleTest,
    ::testing::Values(
        FullCase{"exact2d", {.dim = 2, .eps = 0.8, .min_pts = 4, .rho = 0.0}},
        FullCase{"exact3d", {.dim = 3, .eps = 1.1, .min_pts = 5, .rho = 0.0}},
        FullCase{"exact1d_minpts1",
                 {.dim = 1, .eps = 0.4, .min_pts = 1, .rho = 0.0}},
        FullCase{"approx2d_tiny_rho",
                 {.dim = 2, .eps = 0.8, .min_pts = 4, .rho = 0.001}},
        FullCase{"approx2d_mid_rho",
                 {.dim = 2, .eps = 0.8, .min_pts = 4, .rho = 0.2}},
        FullCase{"approx3d_big_rho",
                 {.dim = 3, .eps = 1.1, .min_pts = 5, .rho = 0.4}},
        FullCase{"approx5d",
                 {.dim = 5, .eps = 1.8, .min_pts = 4, .rho = 0.25}}),
    [](const auto& info) { return info.param.name; });

TEST(FullyDynamicTest, DeleteReversesInsert) {
  // Figure 1's reverse direction: deleting the bridge points splits the
  // merged cluster back in two.
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = 0.0};
  FullyDynamicClusterer c(params);
  PointId l0 = kInvalidPoint, r0 = kInvalidPoint;
  for (int i = 0; i < 5; ++i) {
    const PointId id = c.Insert(Point{0.3 * i, 0.0});
    if (i == 0) l0 = id;
  }
  for (int i = 0; i < 5; ++i) {
    const PointId id = c.Insert(Point{6 + 0.3 * i, 0.0});
    if (i == 0) r0 = id;
  }
  std::vector<PointId> bridge;
  for (const double x : {2.0, 2.9, 3.8, 4.7, 5.4}) {
    bridge.push_back(c.Insert(Point{x, 0}));
  }
  auto r = c.Query({l0, r0});
  ASSERT_EQ(r.groups.size(), 1u);

  for (const PointId b : bridge) c.Delete(b);
  r = c.Query({l0, r0});
  ASSERT_EQ(r.groups.size(), 2u);
  EXPECT_TRUE(r.noise.empty());
}

TEST(FullyDynamicTest, DrainToEmpty) {
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = 0.1};
  FullyDynamicClusterer c(params);
  Rng rng(5);
  std::vector<PointId> ids;
  for (const Point& p : UniformPoints(rng, 120, 2, 3.0)) {
    ids.push_back(c.Insert(p));
  }
  EXPECT_GT(c.num_graph_edges(), 0);
  for (const PointId id : ids) c.Delete(id);
  EXPECT_EQ(c.size(), 0);
  EXPECT_EQ(c.num_graph_edges(), 0);
  EXPECT_EQ(c.num_abcp_instances(), 0);
  const auto r = c.QueryAll();
  EXPECT_TRUE(r.groups.empty());
  EXPECT_TRUE(r.noise.empty());
  // The structure remains usable after draining.
  c.Insert(Point{0, 0});
  EXPECT_EQ(c.size(), 1);
}

TEST(FullyDynamicTest, ReinsertAfterDeleteSameSpot) {
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 2, .rho = 0.0};
  FullyDynamicClusterer c(params);
  const PointId a = c.Insert(Point{0, 0});
  const PointId b = c.Insert(Point{0.5, 0});
  auto r = c.Query({a, b});
  ASSERT_EQ(r.groups.size(), 1u);
  c.Delete(b);
  r = c.Query({a});
  EXPECT_TRUE(r.groups.empty());
  EXPECT_EQ(r.noise.size(), 1u);
  const PointId b2 = c.Insert(Point{0.5, 0});
  r = c.Query({a, b2});
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0].size(), 2u);
}

TEST(FullyDynamicTest, DeletionHeavyRegime) {
  // Mostly deletions after a build-up phase: stresses demotions, witness
  // repairs and connectivity splits.
  DbscanParams params{.dim = 2, .eps = 0.9, .min_pts = 4, .rho = 0.0};
  RunMixedWorkload(params, /*seed=*/31337, /*steps=*/700, /*p_insert=*/0.45,
                   /*check_every=*/50);
}

}  // namespace
}  // namespace ddc
