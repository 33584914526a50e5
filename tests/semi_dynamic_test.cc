#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/semi_dynamic_clusterer.h"
#include "core/static_dbscan.h"
#include "tests/test_util.h"

namespace ddc {
namespace {

// With rho == 0 the semi-dynamic clusterer is exact DBSCAN: after every
// prefix of insertions its full clustering must equal the static oracle.
struct ExactCase {
  int dim;
  double eps;
  int min_pts;
};

class SemiExactTest : public ::testing::TestWithParam<ExactCase> {};

TEST_P(SemiExactTest, MatchesOracleAtEveryPrefix) {
  const auto [dim, eps, min_pts] = GetParam();
  Rng rng(500 + dim * 31 + min_pts);
  const auto pts = BlobPoints(rng, 220, dim, 7.0, 4, 0.9, 0.12);
  DbscanParams params{.dim = dim, .eps = eps, .min_pts = min_pts, .rho = 0.0};

  SemiDynamicClusterer clusterer(params);
  for (int n = 0; n < static_cast<int>(pts.size()); ++n) {
    clusterer.Insert(pts[n]);
    if (n % 20 != 19 && n + 1 != static_cast<int>(pts.size())) continue;
    auto got = clusterer.QueryAll();
    got.Canonicalize();
    const std::vector<Point> prefix(pts.begin(), pts.begin() + n + 1);
    const auto want = OracleGroups(prefix, params);
    ASSERT_EQ(got, want) << "prefix " << n + 1 << " dim=" << dim;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SemiExactTest,
    ::testing::Values(ExactCase{1, 0.6, 3}, ExactCase{2, 0.7, 4},
                      ExactCase{2, 0.7, 1}, ExactCase{3, 0.9, 4},
                      ExactCase{3, 1.5, 10}, ExactCase{5, 1.8, 4},
                      ExactCase{7, 2.5, 3}));

// With rho > 0, every prefix must satisfy the sandwich guarantee.
struct ApproxCase {
  int dim;
  double rho;
};

class SemiSandwichTest : public ::testing::TestWithParam<ApproxCase> {};

TEST_P(SemiSandwichTest, SandwichAtEveryPrefix) {
  const auto [dim, rho] = GetParam();
  Rng rng(900 + dim);
  const auto pts = BlobPoints(rng, 200, dim, 7.0, 4, 0.9, 0.12);
  DbscanParams params{.dim = dim, .eps = 0.9, .min_pts = 4, .rho = rho};

  SemiDynamicClusterer clusterer(params);
  for (int n = 0; n < static_cast<int>(pts.size()); ++n) {
    clusterer.Insert(pts[n]);
    if (n % 40 != 39 && n + 1 != static_cast<int>(pts.size())) continue;
    auto got = clusterer.QueryAll();
    got.Canonicalize();
    const std::vector<Point> prefix(pts.begin(), pts.begin() + n + 1);
    const auto lower = OracleGroups(prefix, params);
    const auto upper = OracleGroupsOuter(prefix, params);
    std::string why;
    ASSERT_TRUE(CheckSandwich(lower, got, upper, &why))
        << why << " at prefix " << n + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SemiSandwichTest,
    ::testing::Values(ApproxCase{2, 0.001}, ApproxCase{2, 0.5},
                      ApproxCase{3, 0.25}, ApproxCase{5, 0.1}));

TEST(SemiDynamicTest, FigureOneScenario) {
  // The paper's Figure 1: insertions create a connection path that merges
  // two clusters.
  DbscanParams params{.dim = 2, .eps = 1.0, .min_pts = 3, .rho = 0.0};
  SemiDynamicClusterer c(params);
  std::vector<PointId> left, right;
  for (int i = 0; i < 5; ++i) left.push_back(c.Insert(Point{0.3 * i, 0.0}));
  for (int i = 0; i < 5; ++i) right.push_back(c.Insert(Point{6 + 0.3 * i, 0.0}));

  auto r = c.Query({left[0], right[0]});
  r.Canonicalize();
  ASSERT_EQ(r.groups.size(), 2u);  // Separate clusters.

  // Bridge them.
  c.Insert(Point{2.0, 0});
  c.Insert(Point{2.9, 0});
  c.Insert(Point{3.8, 0});
  c.Insert(Point{4.7, 0});
  c.Insert(Point{5.4, 0});
  r = c.Query({left[0], right[0]});
  r.Canonicalize();
  ASSERT_EQ(r.groups.size(), 1u);  // Merged.
  EXPECT_EQ(r.groups[0].size(), 2u);
}

TEST(SemiDynamicTest, QuerySubsetConsistentWithFullClustering) {
  Rng rng(321);
  DbscanParams params{.dim = 2, .eps = 0.8, .min_pts = 4, .rho = 0.0};
  SemiDynamicClusterer c(params);
  const auto pts = BlobPoints(rng, 150, 2, 6.0, 3, 0.8, 0.1);
  for (const auto& p : pts) c.Insert(p);

  auto full = c.QueryAll();
  full.Canonicalize();

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<PointId> q;
    for (PointId i = 0; i < 150; ++i) {
      if (rng.NextBernoulli(0.2)) q.push_back(i);
    }
    auto sub = c.Query(q);
    sub.Canonicalize();

    // Expected: restriction of the full groups to q.
    CGroupByResult want;
    std::set<PointId> qs(q.begin(), q.end());
    for (const auto& g : full.groups) {
      std::vector<PointId> inter;
      for (PointId p : g) {
        if (qs.count(p)) inter.push_back(p);
      }
      if (!inter.empty()) want.groups.push_back(inter);
    }
    for (PointId p : full.noise) {
      if (qs.count(p)) want.noise.push_back(p);
    }
    want.Canonicalize();
    ASSERT_EQ(sub, want) << "trial " << trial;
  }
}

TEST(SemiDynamicTest, DeleteAborts) {
  DbscanParams params{.dim = 2, .eps = 1, .min_pts = 2, .rho = 0.0};
  SemiDynamicClusterer c(params);
  const PointId id = c.Insert(Point{0, 0});
  EXPECT_DEATH(c.Delete(id), "insertions only");
}

TEST(SemiDynamicTest, QueryIgnoresUnknownIds) {
  DbscanParams params{.dim = 2, .eps = 1, .min_pts = 1, .rho = 0.0};
  SemiDynamicClusterer c(params);
  c.Insert(Point{0, 0});
  auto r = c.Query({0, 57});  // 57 never inserted.
  r.Canonicalize();
  EXPECT_EQ(r.groups.size(), 1u);
  EXPECT_TRUE(r.noise.empty());
}

TEST(SemiDynamicTest, EdgeCountStaysSparse) {
  // The grid graph has O(#cells) edges; sanity-check the bound loosely.
  Rng rng(11);
  DbscanParams params{.dim = 2, .eps = 0.7, .min_pts = 3, .rho = 0.0};
  SemiDynamicClusterer c(params);
  for (const auto& p : BlobPoints(rng, 400, 2, 8.0, 5, 1.0, 0.1)) c.Insert(p);
  EXPECT_LE(c.num_graph_edges(),
            static_cast<int64_t>(c.grid().num_cells()) * 25);
}

}  // namespace
}  // namespace ddc
